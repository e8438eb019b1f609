"""A small SQL front-end over the logical plan builder.

Supports the analytic subset every experiment uses::

    SELECT l_returnflag, SUM(l_extendedprice) AS revenue,
           COUNT(*) AS n
    FROM lineitem
    WHERE l_quantity > 45 AND l_comment LIKE '%express%'
    GROUP BY l_returnflag
    ORDER BY revenue
    LIMIT 10

plus equi joins (``FROM a JOIN b ON a_key = b_key``), BETWEEN, IN,
NOT, and parenthesised boolean expressions.  ``parse_sql`` returns a
:class:`~repro.engine.logical.Query`, so anything the builder can run,
the SQL layer can run — on either engine, with any placement.

Arithmetic SELECT expressions are supported with an alias
(``SELECT price * (1 - disc) AS net ...``) and compile to a computed-
column :class:`~repro.engine.logical.Map` stage; so is an aggregate
over one (``SUM(price * qty) AS r``), whose argument becomes a hidden
column of a Map placed before the Aggregate.

This is a front-end, not a full SQL implementation: no subqueries, no
HAVING, and names are case-sensitive exactly as the catalog stores
them.
"""

from __future__ import annotations

import re
from typing import Optional

from ..engine.logical import AggSpec, Map, Query
from .expressions import Col, Expression, col, lit

__all__ = ["parse_sql", "SqlError"]


class SqlError(Exception):
    """A parse error, with the offending position's context."""


_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<number>-?\d+\.\d+|-?\d+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|<>|!=|=|<|>|\(|\)|,|\*|\+|-|/)
    )""", re.VERBOSE)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT",
    "AND", "OR", "NOT", "BETWEEN", "IN", "LIKE", "AS", "JOIN", "ON",
    "SUM", "COUNT", "AVG", "MIN", "MAX", "ASC",
}


class _Token:
    def __init__(self, kind: str, value, position: int):
        self.kind = kind        # number | string | name | op | keyword
        self.value = value
        self.position = position

    def __repr__(self):
        return f"<{self.kind} {self.value!r}>"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    index = 0
    while index < len(text):
        match = _TOKEN_RE.match(text, index)
        if match is None:
            if text[index:].strip() == "":
                break
            raise SqlError(
                f"cannot tokenize at position {index}: "
                f"{text[index:index + 20]!r}")
        index = match.end()
        if match.lastgroup == "number":
            raw = match.group("number")
            value = float(raw) if "." in raw else int(raw)
            tokens.append(_Token("number", value, match.start()))
        elif match.lastgroup == "string":
            raw = match.group("string")[1:-1].replace("''", "'")
            tokens.append(_Token("string", raw, match.start()))
        elif match.lastgroup == "name":
            word = match.group("name")
            if word.upper() in _KEYWORDS:
                tokens.append(_Token("keyword", word.upper(),
                                     match.start()))
            else:
                tokens.append(_Token("name", word, match.start()))
        else:
            tokens.append(_Token("op", match.group("op"),
                                 match.start()))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], text: str):
        self.tokens = tokens
        self.text = text
        self.index = 0

    # -- token helpers ---------------------------------------------------

    def peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise SqlError("unexpected end of query")
        self.index += 1
        return token

    def accept(self, kind: str, value=None) -> Optional[_Token]:
        token = self.peek()
        if token is not None and token.kind == kind and \
                (value is None or token.value == value):
            return self.next()
        return None

    def expect(self, kind: str, value=None) -> _Token:
        token = self.accept(kind, value)
        if token is None:
            got = self.peek()
            raise SqlError(
                f"expected {value or kind}, got "
                f"{got.value if got else 'end of query'!r}")
        return token

    # -- grammar ---------------------------------------------------

    def parse(self) -> Query:
        self.expect("keyword", "SELECT")
        select_list = self._select_list()
        self.expect("keyword", "FROM")
        table = self.expect("name").value
        query = Query.scan(table)

        while self.accept("keyword", "JOIN"):
            right = self.expect("name").value
            self.expect("keyword", "ON")
            left_key = self.expect("name").value
            self.expect("op", "=")
            right_key = self.expect("name").value
            query = query.join(Query.scan(right), left_key, right_key)

        if self.accept("keyword", "WHERE"):
            query = query.filter(self._expression())

        group_by: list[str] = []
        if self.accept("keyword", "GROUP"):
            self.expect("keyword", "BY")
            group_by.append(self.expect("name").value)
            while self.accept("op", ","):
                group_by.append(self.expect("name").value)

        query = self._apply_select(query, select_list, group_by)

        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            keys = [self.expect("name").value]
            self.accept("keyword", "ASC")
            while self.accept("op", ","):
                keys.append(self.expect("name").value)
                self.accept("keyword", "ASC")
            query = query.sort(keys)

        if self.accept("keyword", "LIMIT"):
            query = query.limit(int(self.expect("number").value))

        if self.peek() is not None:
            raise SqlError(f"trailing input: {self.peek().value!r}")
        return query

    # -- SELECT list ---------------------------------------------------

    def _select_list(self):
        if self.accept("op", "*"):
            return [("star", None, None)]
        items = [self._select_item()]
        while self.accept("op", ","):
            items.append(self._select_item())
        return items

    def _select_item(self):
        """One item as ``(kind, value, alias)``.

        An aggregate's third slot is ``None`` for a bare column (or
        ``*``) argument; a computed argument is the ``(name,
        expression)`` of the hidden column the aggregate reads.
        """
        token = self.peek()
        if token is not None and token.kind == "keyword" and \
                token.value in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
            func = self.next().value.lower()
            self.expect("op", "(")
            argument = None
            if not (func == "count" and self.accept("op", "*")):
                argument = self._scalar_expression()
            self.expect("op", ")")
            alias = ""
            if self.accept("keyword", "AS"):
                alias = self.expect("name").value
            if argument is None or isinstance(argument, Col):
                column = argument.name if argument else ""
                return ("agg", AggSpec(func, column, alias), None)
            if not alias:
                raise SqlError("an aggregate over a computed "
                               "expression needs an alias (AS ...)")
            hidden = f"__{alias}"
            return ("agg", AggSpec(func, hidden, alias),
                    (hidden, argument))
        expr = self._scalar_expression()
        alias = None
        if self.accept("keyword", "AS"):
            alias = self.expect("name").value
        if isinstance(expr, Col):
            return ("column", expr.name, alias)
        if alias is None:
            raise SqlError(
                "a computed SELECT expression needs an alias (AS ...)")
        return ("expr", expr, alias)

    # -- scalar expressions in SELECT (precedence: +- < */) ---------------

    def _scalar_expression(self) -> Expression:
        left = self._scalar_term()
        while True:
            token = self.peek()
            if token is not None and token.kind == "op" \
                    and token.value in ("+", "-"):
                self.next()
                right = self._scalar_term()
                left = left + right if token.value == "+" else \
                    left - right
            else:
                return left

    def _scalar_term(self) -> Expression:
        left = self._scalar_atom()
        while True:
            token = self.peek()
            if token is not None and token.kind == "op" \
                    and token.value in ("*", "/"):
                self.next()
                right = self._scalar_atom()
                left = left * right if token.value == "*" else \
                    left / right
            else:
                return left

    def _scalar_atom(self) -> Expression:
        if self.accept("op", "("):
            inner = self._scalar_expression()
            self.expect("op", ")")
            return inner
        token = self.next()
        if token.kind == "name":
            return col(token.value)
        if token.kind == "number":
            return lit(token.value)
        raise SqlError(
            f"expected a column, number, or '(' in a SELECT "
            f"expression, got {token.value!r}")

    def _apply_select(self, query: Query, select_list,
                      group_by: list[str]) -> Query:
        aggs = [item[1] for item in select_list if item[0] == "agg"]
        columns = [item[1] for item in select_list
                   if item[0] == "column"]
        computed = [(item[2], item[1]) for item in select_list
                    if item[0] == "expr"]
        has_star = any(item[0] == "star" for item in select_list)
        renames = {item[1]: item[2] for item in select_list
                   if item[0] == "column" and item[2]}
        if renames:
            raise SqlError("column aliases are only supported on "
                           "aggregates and computed expressions")
        if computed:
            if aggs:
                raise SqlError("computed expressions cannot be mixed "
                               "with aggregates (aggregate the "
                               "expression instead)")
            query = Query(Map(query.plan, dict(computed)))
            columns = columns + [name for name, _e in computed]
        if aggs:
            if has_star:
                raise SqlError("SELECT * cannot be mixed with "
                               "aggregates")
            if set(columns) - set(group_by):
                extra = sorted(set(columns) - set(group_by))
                raise SqlError(
                    f"non-aggregated columns {extra} must appear in "
                    "GROUP BY")
            hidden = dict(item[2] for item in select_list
                          if item[0] == "agg" and item[2])
            if hidden:
                query = Query(Map(query.plan, hidden))
            return query.aggregate(group_by, aggs)
        if group_by:
            raise SqlError("GROUP BY requires at least one aggregate "
                           "in SELECT")
        if has_star:
            return query
        return query.project(columns)

    # -- expressions (precedence: OR < AND < NOT < predicate) -------------

    def _expression(self) -> Expression:
        left = self._and_term()
        while self.accept("keyword", "OR"):
            left = left | self._and_term()
        return left

    def _and_term(self) -> Expression:
        left = self._not_term()
        while self.accept("keyword", "AND"):
            left = left & self._not_term()
        return left

    def _not_term(self) -> Expression:
        if self.accept("keyword", "NOT"):
            return ~self._not_term()
        return self._predicate()

    def _predicate(self) -> Expression:
        if self.accept("op", "("):
            inner = self._expression()
            self.expect("op", ")")
            return inner
        name = self.expect("name").value
        column = col(name)
        if self.accept("keyword", "BETWEEN"):
            low = self._literal()
            self.expect("keyword", "AND")
            high = self._literal()
            return column.between(low, high)
        if self.accept("keyword", "LIKE"):
            pattern = self.expect("string").value
            return column.like(pattern)
        if self.accept("keyword", "IN"):
            self.expect("op", "(")
            values = [self._literal()]
            while self.accept("op", ","):
                values.append(self._literal())
            self.expect("op", ")")
            return column.isin(values)
        op_token = self.next()
        if op_token.kind != "op" or op_token.value not in (
                "=", "!=", "<>", "<", "<=", ">", ">="):
            raise SqlError(f"expected a comparison after {name!r}, "
                           f"got {op_token.value!r}")
        value = self._operand()
        mapping = {"=": "__eq__", "!=": "__ne__", "<>": "__ne__",
                   "<": "__lt__", "<=": "__le__", ">": "__gt__",
                   ">=": "__ge__"}
        return getattr(column, mapping[op_token.value])(value)

    def _operand(self):
        token = self.peek()
        if token is not None and token.kind == "name":
            return col(self.next().value)
        return lit(self._literal())

    def _literal(self):
        token = self.next()
        if token.kind in ("number", "string"):
            return token.value
        raise SqlError(f"expected a literal, got {token.value!r}")


def parse_sql(text: str) -> Query:
    """Parse a SQL string into a :class:`~repro.engine.logical.Query`."""
    tokens = _tokenize(text)
    if not tokens:
        raise SqlError("empty query")
    return _Parser(tokens, text).parse()

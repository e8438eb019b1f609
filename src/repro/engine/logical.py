"""Logical query plans and the fluent query builder.

A logical plan is a small tree of relational nodes.  Both engines
execute the *same* logical plan — the Volcano engine interprets it
pull-based on the CPU, the data-flow engine compiles it into placed,
push-based stages — which is what makes their results directly
comparable (the correctness oracle of the whole reproduction).

Each node knows its output schema and can estimate its output
cardinality from catalog statistics; the optimizer builds its
movement-cost model on those two methods.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from ..relational.catalog import Catalog
from ..relational.expressions import Expression
from ..relational.schema import DataType, Field, Schema

__all__ = [
    "AggSpec",
    "PlanNode",
    "Scan",
    "Filter",
    "Project",
    "Map",
    "Aggregate",
    "Join",
    "Sort",
    "Limit",
    "Query",
]

_node_ids = itertools.count()


def _bind(schema: Schema, names) -> Schema:
    """``schema``, once it is known to have every one of ``names``.

    ``Schema.field``'s ``KeyError`` (the name and the columns there
    are) otherwise: a plan binds every name it mentions in
    ``output_schema()``, before anything runs, not inside a column
    mapping mid-simulation.
    """
    for name in names:
        schema.field(name)
    return schema


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``AggSpec("sum", "l_extendedprice", "revenue")``."""

    op: str              # sum | count | min | max | avg
    column: str = ""     # empty for count(*)
    alias: str = ""

    VALID_OPS = ("sum", "count", "min", "max", "avg")

    def __post_init__(self):
        if self.op not in self.VALID_OPS:
            raise ValueError(f"unknown aggregate {self.op!r}")
        if self.op != "count" and not self.column:
            raise ValueError(f"aggregate {self.op!r} requires a column")
        if not self.alias:
            object.__setattr__(
                self, "alias",
                f"{self.op}_{self.column}" if self.column else "count")

    @property
    def result_dtype(self) -> str:
        if self.op == "count":
            return DataType.INT64
        return DataType.FLOAT64


class PlanNode:
    """Base class for logical plan nodes."""

    def __init__(self, children: Sequence["PlanNode"]):
        self.node_id = next(_node_ids)
        self.children = list(children)

    def output_schema(self, catalog: Catalog) -> Schema:
        raise NotImplementedError

    def estimate_rows(self, catalog: Catalog) -> float:
        raise NotImplementedError

    def walk(self):
        """All nodes, depth-first, children before parents."""
        for child in self.children:
            yield from child.walk()
        yield self

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__}#{self.node_id} {self.describe()}>"


class Scan(PlanNode):
    """Read a named table from storage."""

    def __init__(self, table: str, columns: Optional[list[str]] = None):
        super().__init__([])
        self.table = table
        self.columns = columns

    def output_schema(self, catalog: Catalog) -> Schema:
        schema = catalog.schema(self.table)
        if self.columns is not None:
            schema = schema.project(self.columns)
        return schema

    def estimate_rows(self, catalog: Catalog) -> float:
        return float(catalog.stats(self.table).rows)

    def describe(self) -> str:
        cols = "*" if self.columns is None else ",".join(self.columns)
        return f"scan {self.table}({cols})"


class Filter(PlanNode):
    """Keep rows satisfying a predicate."""

    def __init__(self, child: PlanNode, predicate: Expression):
        super().__init__([child])
        self.predicate = predicate
        self._names = sorted(predicate.required_columns())

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def output_schema(self, catalog: Catalog) -> Schema:
        return _bind(self.child.output_schema(catalog), self._names)

    def selectivity(self, catalog: Catalog) -> float:
        stats = self._column_stats(catalog)
        return self.predicate.estimate_selectivity(stats)

    def _column_stats(self, catalog: Catalog) -> Optional[dict]:
        # Find the base table below to source column stats.
        node = self.child
        while node.children:
            node = node.children[0]
        if isinstance(node, Scan) and node.table in catalog:
            return catalog.stats(node.table).column_dict()
        return None

    def estimate_rows(self, catalog: Catalog) -> float:
        return self.child.estimate_rows(catalog) * self.selectivity(catalog)

    def describe(self) -> str:
        return f"filter {self.predicate!r}"


class Project(PlanNode):
    """Keep a subset of columns."""

    def __init__(self, child: PlanNode, columns: list[str]):
        super().__init__([child])
        self.columns = list(columns)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog).project(self.columns)

    def estimate_rows(self, catalog: Catalog) -> float:
        return self.child.estimate_rows(catalog)

    def describe(self) -> str:
        return f"project {','.join(self.columns)}"


class Map(PlanNode):
    """Append computed columns (scalar expressions over the input).

    ``exprs`` maps new column names to expressions; existing columns
    pass through unchanged.  Computed columns are FLOAT64 (the result
    type of the vectorized arithmetic kernel).
    """

    def __init__(self, child: PlanNode, exprs: dict):
        super().__init__([child])
        if not exprs:
            raise ValueError("map requires at least one expression")
        self.exprs = dict(exprs)
        self._names = sorted(set().union(
            *(expr.required_columns() for expr in self.exprs.values())))

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def output_schema(self, catalog: Catalog) -> Schema:
        child_schema = _bind(self.child.output_schema(catalog), self._names)
        fields = list(child_schema.fields)
        for name in self.exprs:
            if name in child_schema:
                raise ValueError(
                    f"computed column {name!r} shadows an input column")
            fields.append(Field(name, DataType.FLOAT64))
        return Schema(fields)

    def estimate_rows(self, catalog: Catalog) -> float:
        return self.child.estimate_rows(catalog)

    def describe(self) -> str:
        return f"map {','.join(self.exprs)}"


class Aggregate(PlanNode):
    """Group-by aggregation (no groups = scalar aggregate)."""

    def __init__(self, child: PlanNode, group_by: list[str],
                 aggs: list[AggSpec]):
        super().__init__([child])
        if not aggs:
            raise ValueError("aggregate requires at least one AggSpec")
        self.group_by = list(group_by)
        self.aggs = list(aggs)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def output_schema(self, catalog: Catalog) -> Schema:
        child_schema = _bind(self.child.output_schema(catalog),
                             [a.column for a in self.aggs if a.column])
        fields = [child_schema.field(g) for g in self.group_by]
        fields += [Field(a.alias, a.result_dtype) for a in self.aggs]
        return Schema(fields)

    def estimate_rows(self, catalog: Catalog) -> float:
        if not self.group_by:
            return 1.0
        # Distinct-product estimate capped by input rows.
        node = self.child
        while node.children:
            node = node.children[0]
        groups = 1.0
        if isinstance(node, Scan) and node.table in catalog:
            stats = catalog.stats(node.table)
            for g in self.group_by:
                if g in stats.columns:
                    groups *= max(1, stats.columns[g].distinct)
                else:
                    groups *= 100
        else:
            groups = 100.0 ** len(self.group_by)
        return min(groups, self.child.estimate_rows(catalog))

    def describe(self) -> str:
        aggs = ",".join(a.alias for a in self.aggs)
        return f"agg [{','.join(self.group_by)}] -> {aggs}"


class Join(PlanNode):
    """Equi hash join; optionally partitioned across compute nodes."""

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_key: str, right_key: str):
        super().__init__([left, right])
        self.left_key = left_key
        self.right_key = right_key

    @property
    def left(self) -> PlanNode:
        return self.children[0]

    @property
    def right(self) -> PlanNode:
        return self.children[1]

    def output_schema(self, catalog: Catalog) -> Schema:
        left_schema = _bind(self.left.output_schema(catalog),
                            [self.left_key])
        right_schema = _bind(self.right.output_schema(catalog),
                             [self.right_key])
        # Disambiguate clashes with an r_ prefix (right side).
        clashes = set(left_schema.names) & set(right_schema.names)
        fields = list(left_schema.fields)
        for f in right_schema.fields:
            name = f"r_{f.name}" if f.name in clashes else f.name
            fields.append(Field(name, f.dtype, f.width))
        return Schema(fields)

    def right_output_name(self, name: str, catalog: Catalog) -> str:
        """The output column name of a right-side column."""
        left_names = set(self.left.output_schema(catalog).names)
        return f"r_{name}" if name in left_names else name

    def estimate_rows(self, catalog: Catalog) -> float:
        left_rows = self.left.estimate_rows(catalog)
        right_rows = self.right.estimate_rows(catalog)
        # FK-join style estimate: |L| * |R| / max(distinct keys).
        distinct = max(right_rows, 1.0)
        node = self.right
        while node.children:
            node = node.children[0]
        if isinstance(node, Scan) and node.table in catalog:
            stats = catalog.stats(node.table)
            if self.right_key in stats.columns:
                distinct = max(1, stats.columns[self.right_key].distinct)
        return left_rows * right_rows / distinct

    def describe(self) -> str:
        return f"join {self.left_key} = {self.right_key}"


class Sort(PlanNode):
    """Total order by one or more columns (ascending)."""

    def __init__(self, child: PlanNode, keys: list[str]):
        super().__init__([child])
        if not keys:
            raise ValueError("sort requires at least one key")
        self.keys = list(keys)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def output_schema(self, catalog: Catalog) -> Schema:
        return _bind(self.child.output_schema(catalog), self.keys)

    def estimate_rows(self, catalog: Catalog) -> float:
        return self.child.estimate_rows(catalog)

    def describe(self) -> str:
        return f"sort {','.join(self.keys)}"


class Limit(PlanNode):
    """Keep the first ``n`` rows."""

    def __init__(self, child: PlanNode, n: int):
        super().__init__([child])
        if n < 0:
            raise ValueError("limit must be non-negative")
        self.n = n

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def estimate_rows(self, catalog: Catalog) -> float:
        return min(float(self.n), self.child.estimate_rows(catalog))

    def describe(self) -> str:
        return f"limit {self.n}"


class Query:
    """Fluent builder over logical plans.

    >>> plan = (Query.scan("lineitem")
    ...         .filter(col("l_quantity") > 45)
    ...         .project(["l_orderkey", "l_extendedprice"])
    ...         .aggregate(["l_orderkey"], [AggSpec("sum", "l_extendedprice")])
    ...         .plan)
    """

    def __init__(self, plan: PlanNode):
        self.plan = plan

    @classmethod
    def scan(cls, table: str,
             columns: Optional[list[str]] = None) -> "Query":
        return cls(Scan(table, columns))

    def filter(self, predicate: Expression) -> "Query":
        return Query(Filter(self.plan, predicate))

    def project(self, columns: list[str]) -> "Query":
        return Query(Project(self.plan, columns))

    def with_column(self, name: str, expr: Expression) -> "Query":
        """Append a computed column, e.g.
        ``.with_column("net", col("price") * (lit(1) - col("disc")))``."""
        return Query(Map(self.plan, {name: expr}))

    def aggregate(self, group_by: list[str],
                  aggs: list[AggSpec]) -> "Query":
        return Query(Aggregate(self.plan, group_by, aggs))

    def count(self) -> "Query":
        """COUNT(*) — the query §4.4 runs entirely on a NIC."""
        return Query(Aggregate(self.plan, [], [AggSpec("count")]))

    def join(self, other: "Query", left_key: str,
             right_key: str) -> "Query":
        return Query(Join(self.plan, other.plan, left_key, right_key))

    def sort(self, keys: list[str]) -> "Query":
        return Query(Sort(self.plan, keys))

    def limit(self, n: int) -> "Query":
        return Query(Limit(self.plan, n))

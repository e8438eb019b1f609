"""Observability helpers: checksums, fabric snapshots, report schema.

This module turns the raw records a :class:`~repro.sim.trace.Trace`
accumulates into the machine-readable evidence the paper's argument is
made of:

* :func:`table_checksum` — a canonical content hash of a result
  table, stable across engines and placements (row order and float
  summation order do not matter), so every run doubles as a
  correctness run;
* :func:`fabric_snapshot` — one fabric's movement, per-link
  byte/chunk totals, device/link utilization, and critical-path
  summary as a plain dict;
* :func:`make_report` / :func:`validate_report` — the JSON report
  (``BENCH_<tag>.json``) the harness emits and ``--compare`` re-runs:
  exact, repeatable model outputs only, no host time.
"""

from __future__ import annotations

import hashlib
import sys
from itertools import chain
from typing import Sequence

__all__ = [
    "REPORT_SCHEMA",
    "CHECKSUM_FLOAT_DIGITS",
    "table_checksum",
    "columns_checksum",
    "content_key",
    "fabric_snapshot",
    "make_report",
    "report_violations",
    "validate_report",
]

REPORT_SCHEMA = "repro.bench/v3"
"""The one schema identifier benchmark reports carry and accept."""

CHECKSUM_FLOAT_DIGITS = 6
"""Significant digits floats are rounded to before hashing.

Different plans add floats in different orders, so bit-exact equality
across engines is not attainable; six significant digits absorbs the
summation-order jitter (relative error ~1e-12) while still catching
any real wrong answer.
"""

_ROW_SEP = "\x1e"
_CELL_SEP = "\x1f"
_ESCAPE = "\x1d"
# Each separator a cell holds, and the escape itself, becomes the
# escape plus a letter; a rendered cell then holds no separator, and a
# bare escape is left free to stand for a lone empty cell.
_ESCAPES = str.maketrans({_ESCAPE: _ESCAPE + "a", _ROW_SEP: _ESCAPE + "b",
                          _CELL_SEP: _ESCAPE + "c"})
_LONE_EMPTY = _ESCAPE
# The dtype kinds ``Schema`` produces; ``content_key`` keys only these.
_KEYED_KINDS = "biufU"


def _canonical_cell(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return format(value, f".{CHECKSUM_FLOAT_DIGITS}g")
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


def _escaped(cells: list[str]) -> list[str]:
    """``cells`` with every separator escaped (as is when none holds one)."""
    joined = "".join(cells)
    if _ESCAPE in joined or _ROW_SEP in joined or _CELL_SEP in joined:
        return [cell.translate(_ESCAPES) for cell in cells]
    return cells


def _canonical_column(values) -> list[str]:
    """One column rendered cell-by-cell, with per-dtype fast paths.

    Produces exactly the strings :func:`_canonical_cell` would for
    each element's python form (``tolist``), without the per-cell
    isinstance dispatch, with separators escaped.  Numbers never hold
    a separator, so only strings and generic cells are checked.
    """
    kind = values.dtype.kind
    if kind == "f":
        fmt = f".{CHECKSUM_FLOAT_DIGITS}g"
        return ["nan" if v != v else format(v, fmt)
                for v in values.tolist()]
    if kind == "U":
        return _escaped(values.tolist())
    if kind in "iu":
        return [str(v) for v in values.tolist()]
    return _escaped([_canonical_cell(v) for v in values.tolist()])


def columns_checksum(names: Sequence[str], columns: Sequence) -> str:
    """:func:`table_checksum` over already gathered columns.

    ``columns[i]`` is the full column called ``names[i]``, as
    ``table.column`` returns it.
    """
    digest = hashlib.sha256()
    digest.update(_CELL_SEP.join(names).encode())
    if columns and all(values.dtype.kind in "iuf" for values in columns):
        # Numbers only: one ``%`` format renders every row, ``%d`` and
        # ``%.6g`` printing a python int or float exactly as
        # :func:`_canonical_column` does (NaN as ``nan``).
        row = _CELL_SEP.join(f"%.{CHECKSUM_FLOAT_DIGITS}g"
                             if values.dtype.kind == "f" else "%d"
                             for values in columns)
        cells = tuple(chain.from_iterable(zip(*[values.tolist()
                                                for values in columns])))
        rows = (_ROW_SEP.join([row] * len(columns[0])) % cells).split(
            _ROW_SEP) if cells else []
    elif len(columns) == 1:
        rows = [cell or _LONE_EMPTY for cell in _canonical_column(columns[0])]
    else:
        rendered = [_canonical_column(values) for values in columns]
        rows = [_CELL_SEP.join(cells) for cells in zip(*rendered)]
    rows.sort()  # canonical order, independent of row layout
    digest.update(_ROW_SEP.join(rows).encode())
    return digest.hexdigest()


def table_checksum(table) -> str:
    """SHA-256 over a canonical, order-insensitive table rendering.

    Two engines that return the same rows (up to float summation
    order) produce the same checksum; a dropped row, a wrong value, or
    changed column names produce a different one.  Only the column
    names are hashed, not their types: an INT64 ``1`` and a FLOAT64
    ``1.0`` both render as ``1``.  Rows are rendered
    column-at-a-time and ordered by their final string form — the
    same digest the original row-at-a-time rendering produced, since
    the string sort is what fixed the hashed order.  A cell holding a
    separator is escaped and a one-column row of an empty string
    renders as a bare escape, so under the same column names two
    different row sets never render alike; every other cell renders
    as it always has.  Names and rows are hashed back to back with no
    separator between them, so a name can still run into the rows:
    ``a`` over ``12`` and ``a1`` over ``2`` share a digest.
    """
    names = table.schema.names
    return columns_checksum(names, [table.column(name) for name in names])


def content_key(names: Sequence[str], columns: Sequence):
    """An exact, hashable key of a result's content, or None.

    Two results with equal keys have the same column names, dtypes,
    shapes and bytes, so :func:`columns_checksum` renders them alike;
    a cache of checksums keyed by it returns what a render would.
    Columns of a kind ``Schema`` does not produce get no key.
    """
    key = []
    for name, values in zip(names, columns):
        if values.dtype.kind not in _KEYED_KINDS:
            return None
        key.append((name, values.dtype.str, values.shape, values.tobytes()))
    return tuple(key)


def combine_checksums(checksums: dict[str, str]) -> str:
    """One checksum over a named set of checksums (scheduler runs)."""
    digest = hashlib.sha256()
    for name in sorted(checksums):
        digest.update(f"{name}={checksums[name]}".encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Fabric snapshots
# ---------------------------------------------------------------------------

def fabric_snapshot(fabric) -> dict:
    """Summarize one fabric's run as a JSON-serializable dict.

    Includes bytes moved per data-path segment, per-link byte/chunk
    totals, device and link utilization (clamped to [0, 1]) up to the
    simulator's clock, and the trace's critical-path summary.
    """
    utilization = {
        key: min(1.0, max(0.0, value)) for key, value in
        fabric.utilization_report(fabric.sim.now).items()}
    events = fabric.trace.event_stats()
    return {
        "movement_bytes": fabric.movement_report(),
        "links": fabric.trace.link_report(),
        "utilization": utilization,
        "critical_path": fabric.trace.critical_path(top=8),
        "stalls": fabric.trace.stall_report(),
        "ledger": fabric.trace.movement_ledger(),
        "events": events,
        "events_truncated": events["truncated"],
    }


# ---------------------------------------------------------------------------
# Benchmark reports
# ---------------------------------------------------------------------------

def make_report(tag: str, smoke: Sequence[dict] = (),
                experiments: Sequence[dict] = (), created: str = "",
                serving: Sequence[dict] = (),
                scale: Sequence[dict] = ()) -> dict:
    """Assemble the schema-versioned benchmark report.

    One list of records per section (``scale`` and ``serving`` records
    come from ``repro bench --scale`` / ``--serve``).  Below the
    ``tag`` / ``created`` / ``python`` header the report depends on
    the records alone.
    """
    sections = {"smoke": list(smoke), "experiments": list(experiments),
                "serving": list(serving), "scale": list(scale)}
    return {
        "schema": REPORT_SCHEMA,
        "tag": tag,
        "created": created,
        "python": "%d.%d.%d" % sys.version_info[:3],
        **sections,
        "totals": {"benchmarks": sum(map(len, sections.values()))},
    }


_NUMBER = (int, float)

# Required keys and their JSON types, checked before any value so the
# value checks can assume the shapes they read.  "checksum" is checked
# separately (missing vs malformed get distinct reason strings).
_QUERY_SHAPE = {"name": str, "sim_time_s": _NUMBER, "rows": int,
                "movement_bytes": dict, "links": dict,
                "utilization": dict, "agree": bool, "events": dict,
                "events_truncated": bool}

_EVENT_STAT_KEYS = ("recorded", "capacity", "dropped", "truncated")

_SERVING_SHAPE = {"name": str, "sim_time_s": _NUMBER, "queries": int,
                  "completed": int, "shed": int, "slo_violations": int,
                  "latency": dict, "goodput_qps": _NUMBER,
                  "tenants": dict}

_LATENCY_KEYS = ("p50_s", "p99_s", "p999_s")

_TELEMETRY_SCHEMA = "repro.serve-telemetry/v1"

_TELEMETRY_SHAPE = {"tenants": dict, "alerts": list, "exemplars": list}

_TELEMETRY_SERIES_KEYS = ("window", "arrivals", "completions",
                          "sheds", "violations")

_ALERT_KEYS = ("tenant", "window", "ts", "kind", "fast_burn",
               "slow_burn", "threshold")

_OBSERVATORY_SCHEMA = "repro.observatory/v1"

_OBSERVATORY_SHAPE = {"horizon_s": _NUMBER, "events_dropped": int,
                      "partial": bool, "partial_reason": str,
                      "pools": list, "totals": dict, "series": list,
                      "bound": dict, "regret": dict}

_OBSERVATORY_SERIES_KEYS = ("window", "start", "end", "pools",
                            "saturation", "link_bytes")

_OBSERVATORY_LEADER_KEYS = ("name", "tenant", "chosen", "best",
                            "regret_s", "regret_ratio")


def _is_hex_digest(value) -> bool:
    return (isinstance(value, str) and len(value) == 64
            and all(c in "0123456789abcdef" for c in value))


def _is_a(value, kind) -> bool:
    """``isinstance`` for JSON values: ``true`` is not a number."""
    return isinstance(value, kind) and (
        kind is bool or not isinstance(value, bool))


def _shape_violations(record: dict, where: str, required: dict,
                      optional: dict) -> list[str]:
    """Missing and wrong-typed keys of one record ([] = well-formed)."""
    errors = [f"{where}: missing {key!r}"
              for key in required if key not in record]
    for key, kind in {**required, **optional}.items():
        if key in record and not _is_a(record[key], kind):
            errors.append(f"{where}: {key!r} is {record[key]!r}, expected "
                          f"{getattr(kind, '__name__', 'number')}")
    return errors


def _checksum_violations(record: dict, where: str) -> list[str]:
    if "checksum" not in record:
        return [f"{where}: checksum missing"]
    if not _is_hex_digest(record["checksum"]):
        return [f"{where}: checksum {record['checksum']!r} is not a "
                "sha256 hex digest"]
    return []


def _query_record_violations(record: dict, where: str) -> list[str]:
    """Value checks for one well-formed smoke-shaped record."""
    errors = [f"{where}: events missing {key!r}"
              for key in _EVENT_STAT_KEYS if key not in record["events"]]
    errors.extend(_checksum_violations(record, where))
    if record["sim_time_s"] <= 0.0:
        errors.append(f"{where}: sim_time_s not positive")
    for dev, value in record["utilization"].items():
        if not (_is_a(value, _NUMBER) and 0.0 <= value <= 1.0):
            errors.append(f"{where}: utilization[{dev}] = {value!r} "
                          "outside [0, 1]")
    for seg, nbytes in record["movement_bytes"].items():
        if not (_is_a(nbytes, _NUMBER) and nbytes >= 0):
            errors.append(f"{where}: movement_bytes[{seg}] = "
                          f"{nbytes!r} is not a byte count")
    link_bytes = [entry.get("bytes") if isinstance(entry, dict)
                  else None for entry in record["links"].values()]
    if not all(_is_a(nbytes, _NUMBER) for nbytes in link_bytes):
        errors.append(f"{where}: a link entry has no numeric 'bytes'")
    elif link_bytes and sum(link_bytes) <= 0.0:
        errors.append(f"{where}: all per-link byte counters are zero")
    return errors


def _serving_record_violations(record: dict, where: str) -> list[str]:
    """Value checks for one well-formed serving record."""
    errors = [f"{where}: latency missing {key!r}"
              for key in _LATENCY_KEYS if key not in record["latency"]]
    errors.extend(_checksum_violations(record, where))
    for key in ("queries", "completed", "shed", "slo_violations"):
        if record[key] < 0:
            errors.append(f"{where}: {key} negative")
    if record["completed"] + record["shed"] > record["queries"]:
        errors.append(f"{where}: completed + shed exceeds submitted "
                      "queries")
    if record["slo_violations"] > record["completed"]:
        errors.append(f"{where}: more SLO violations than "
                      "completions")
    if "records" in record and not record["records"]:
        # A serving record that carries the per-query list must
        # carry a non-empty one: an empty list means the run
        # served nothing, and every aggregate above is vacuous.
        errors.append(f"{where}: 'records' list is empty — the run "
                      "served no queries")
    for key, check in (
            ("telemetry", _telemetry_section_violations),
            ("observatory", lambda payload:
             _observatory_section_violations(payload, record))):
        if key not in record:
            continue
        # The section validators read payloads this package wrote;
        # one malformed enough to break their reads is the violation.
        try:
            errors.extend(f"{where}: {violation}"
                          for violation in check(record[key]))
        except (AttributeError, TypeError) as exc:
            errors.append(f"{where}: malformed {key} section ({exc})")
        digest = record.get(f"{key}_digest")
        if not _is_hex_digest(digest):
            errors.append(f"{where}: {key}_digest {digest!r} is not "
                          "a sha256 hex digest")
    return errors


def _experiment_record_violations(record: dict, where: str) -> list[str]:
    """Every check verdict is ``{name: str, passed: bool, value:
    number | null}``."""
    errors = []
    for position, check in enumerate(record["checks"]):
        at = f"{where}.checks[{position}]"
        if not isinstance(check, dict):
            errors.append(f"{at}: not an object")
            continue
        errors.extend(_shape_violations(check, at, {
            "name": str, "passed": bool, "value": (*_NUMBER, type(None))},
            {}))
    return errors


# Section -> (required keys, keys typed whenever present, value checks).
# ``--compare`` re-runs a serving record from the two optional keys.
_SECTION_CHECKS = {
    "smoke": (_QUERY_SHAPE, {}, _query_record_violations),
    "scale": ({**_QUERY_SHAPE, "chunk_rows": int}, {},
              _query_record_violations),
    "serving": (_SERVING_SHAPE,
                {"rows": int, "requested_queries": int},
                _serving_record_violations),
    "experiments": ({"name": str, "rows": list, "checks": list}, {},
                    _experiment_record_violations),
}


def report_violations(report) -> list[str]:
    """Every schema violation in a benchmark report (empty = valid).

    The non-raising core of :func:`validate_report`, and total — any
    JSON value in, reasons out: a baseline file is outside input.  A
    record with a missing or wrong-typed key gets those violations
    only; the value checks need the shape.
    """
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    errors: list[str] = []
    if report.get("schema") != REPORT_SCHEMA:
        errors.append(f"schema is {report.get('schema')!r}, expected "
                      f"{REPORT_SCHEMA!r}")
    for key in ("tag", "smoke", "experiments", "serving", "totals"):
        if key not in report:
            errors.append(f"missing top-level key {key!r}")
    for section, (required, optional, check) in _SECTION_CHECKS.items():
        records = report.get(section, [])
        if not isinstance(records, list):
            errors.append(f"{section!r} section is not a list")
            continue
        for record in records:
            if not isinstance(record, dict):
                errors.append(f"{section}: a record is not an object")
                continue
            where = f"{section}[{record.get('name', '<unnamed>')}]"
            errors.extend(
                _shape_violations(record, where, required, optional)
                or check(record, where))
    return errors


def _dense_series_violations(series: list, windows: int, keys,
                             where: str) -> list[str]:
    """A per-window series holds entry ``i`` for window ``i`` of
    ``windows``, each with every one of ``keys``."""
    errors = []
    if len(series) != windows:
        errors.append(f"{where}: series has {len(series)} entries for "
                      f"{windows} windows (series must be dense)")
    for position, entry in enumerate(series):
        if entry.get("window") != position:
            errors.append(f"{where}: series entry {position} has "
                          f"window index {entry.get('window')!r}")
            break
        missing = [k for k in keys if k not in entry]
        if missing:
            errors.append(f"{where}: window {position} missing "
                          f"{missing}")
            break
    return errors


def _windowed_section_violations(section, name: str, shape: dict,
                                 schema: str) -> list[str]:
    """What both observer sections are checked for first: an object
    of ``shape`` (plus ``schema``, ``window_s``, ``windows``) carrying
    ``schema`` and a positive window.  The rest of a section's checks
    read what these guarantee."""
    if not isinstance(section, dict):
        return [f"{name} section is not an object"]
    errors = _shape_violations(section, name, {
        "schema": str, "window_s": _NUMBER, "windows": int, **shape}, {})
    if not errors and section["schema"] != schema:
        errors.append(f"{name} schema is {section['schema']!r}, "
                      f"expected {schema!r}")
    if not errors and section["window_s"] <= 0:
        errors.append(f"{name} window_s not positive")
    return errors


def _telemetry_section_violations(telemetry: dict) -> list[str]:
    """Structural checks for one ``repro.serve-telemetry/v1`` section."""
    errors = _windowed_section_violations(
        telemetry, "telemetry", _TELEMETRY_SHAPE, _TELEMETRY_SCHEMA)
    if errors:
        return errors
    for tenant, data in telemetry["tenants"].items():
        errors.extend(_dense_series_violations(
            data.get("series", []), telemetry["windows"],
            _TELEMETRY_SERIES_KEYS, f"telemetry tenant {tenant}"))
    for index, alert in enumerate(telemetry["alerts"]):
        missing = [k for k in _ALERT_KEYS if k not in alert]
        if missing:
            errors.append(f"telemetry alert {index} missing "
                          f"{missing}")
        if alert.get("kind") not in ("fired", "resolved"):
            errors.append(f"telemetry alert {index} has kind "
                          f"{alert.get('kind')!r}")
    for exemplar in telemetry["exemplars"]:
        name = exemplar.get("name", "<unnamed>")
        attribution = exemplar.get("attribution", {})
        if not attribution.get("exact", False):
            errors.append(f"telemetry exemplar {name}: critical-path "
                          "attribution is not exact")
        # A partial attribution (bounded ring overflowed) must say
        # why instead of silently reconciling over truncated inputs.
        if attribution.get("partial", False) \
                and not attribution.get("partial_reason"):
            errors.append(f"telemetry exemplar {name}: attribution "
                          "marked partial without a reason")
    return errors


def _observatory_section_violations(observatory: dict,
                                    record: dict) -> list[str]:
    """Structural checks for one ``repro.observatory/v1`` section.

    ``record`` is the serving record (or other wrapper document) the
    section came in, ``{}`` for a bare payload.  A section with a
    missing or wrong-typed member gets those violations only; the
    value checks need the shape.
    """
    errors = _windowed_section_violations(
        observatory, "observatory", _OBSERVATORY_SHAPE,
        _OBSERVATORY_SCHEMA)
    if errors:
        return errors
    for pool, seconds in observatory["totals"].items():
        if not _is_a(seconds, _NUMBER):
            errors.append(f"observatory totals[{pool}] = {seconds!r} "
                          "is not a number")
    errors.extend(_dense_series_violations(
        observatory["series"], observatory["windows"],
        _OBSERVATORY_SERIES_KEYS, "observatory"))
    # Partial semantics: dropped ring events imply (and are the only
    # reason for) a partial section, and partial requires a reason.
    dropped = observatory["events_dropped"]
    if observatory["partial"] != (dropped > 0):
        errors.append("observatory partial flag disagrees with "
                      f"events_dropped={dropped}")
    if observatory["partial"] and not observatory["partial_reason"]:
        errors.append("observatory marked partial without a reason")
    bound = observatory["bound"]
    tagged = bound.get("queries", [])
    completed = record.get("completed")
    if completed is not None and len(tagged) != completed:
        errors.append(f"observatory bound classifier tagged "
                      f"{len(tagged)} queries but the record "
                      f"completed {completed}")
    by_tenant_total = sum(
        count for cell in bound.get("by_tenant", {}).values()
        for count in cell.values())
    if by_tenant_total != len(tagged):
        errors.append("observatory per-tenant bound counts do not "
                      "sum to the tagged query count")
    regret = observatory["regret"]
    for entry in regret.get("queries", []):
        if entry.get("regret_s", 0.0) < 0.0:
            errors.append(f"observatory regret for "
                          f"{entry.get('name')} is negative")
            break
    leaders = regret.get("leaders", [])
    for position, entry in enumerate(leaders):
        missing = [k for k in _OBSERVATORY_LEADER_KEYS if k not in entry]
        if missing:
            return errors + [f"observatory regret leader {position} "
                             f"missing {missing}"]
    if [e.get("regret_s") for e in leaders] != sorted(
            (e.get("regret_s") for e in leaders), reverse=True):
        errors.append("observatory regret leaders are not sorted by "
                      "descending regret")
    return errors


def validate_report(report) -> None:
    """Check a benchmark report against :data:`REPORT_SCHEMA`.

    Runs before every report is written and on every baseline load.
    An invalid report raises :class:`ValueError` carrying every
    violation joined with ``"; "``.  Deliberately dependency-free (no
    jsonschema in the image).
    """
    errors = report_violations(report)
    if errors:
        raise ValueError("invalid benchmark report: " + "; ".join(errors))

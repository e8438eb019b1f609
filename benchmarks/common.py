"""Shared helpers for the experiment benchmarks.

Every experiment (F1–F6 architecture scenarios, C1–C8 claims; see
DESIGN.md) prints a table of the series the paper's argument predicts
so EXPERIMENTS.md can record paper-vs-measured.
"""

from __future__ import annotations

from typing import Optional

KIB = 1024.0
MIB = 1024.0 ** 2
GIB = 1024.0 ** 3


def rows_approx_equal(a: list[tuple], b: list[tuple],
                      rel: float = 1e-9) -> bool:
    """Order-insensitive row comparison tolerant of float summation
    order (different plans add floats in different orders)."""
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(sorted(a), sorted(b)):
        if len(row_a) != len(row_b):
            return False
        for va, vb in zip(row_a, row_b):
            if isinstance(va, float) or isinstance(vb, float):
                scale = max(abs(va), abs(vb), 1.0)
                if abs(va - vb) > rel * scale:
                    return False
            elif va != vb:
                return False
    return True


def fmt_bytes(n: float) -> str:
    """Human-readable byte count."""
    if n >= GIB:
        return f"{n / GIB:.2f}GiB"
    if n >= MIB:
        return f"{n / MIB:.2f}MiB"
    if n >= KIB:
        return f"{n / KIB:.1f}KiB"
    return f"{n:.0f}B"


def fmt_time(seconds: float) -> str:
    """Human-readable (simulated) duration."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.1f}us"
    return f"{seconds * 1e9:.0f}ns"


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: list[dict], columns: Optional[list[str]] = None
                 ) -> str:
    """Plain-text aligned table from dict rows."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_cell(row.get(col, "")) for col in columns]
             for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in cells))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(widths[i])
                       for i, col in enumerate(columns))
    divider = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(r[i].ljust(widths[i])
                               for i in range(len(columns)))
                     for r in cells)
    return f"{header}\n{divider}\n{body}"


def report(exp_id: str, title: str, claim: str, rows: list[dict],
           columns: Optional[list[str]] = None, notes: str = "") -> str:
    """Print one experiment's result table.

    The machine-readable record is the harness's
    ``BENCH_<tag>.json`` (``repro bench``).
    """
    table = format_table(rows, columns)
    text = (f"== {exp_id}: {title} ==\n"
            f"paper: {claim}\n\n{table}\n")
    if notes:
        text += f"\nnotes: {notes}\n"
    print("\n" + text)
    return text

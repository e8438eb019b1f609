"""Compare two perfbench run sets: ``compare.py A.json B.json``.

A is the base, B the candidate.  One row per workload and end-to-end
metric with both medians, their quartiles and the ratio B/A.  A row is

``worse``
    when B's median is worse than A's by more than the metric's bound
    in ``BENCHMARK.json``;
``unresolved``
    when A's own quartile spread exceeds the bound, so the run sets
    cannot tell a change of that size from noise;
``ok``
    otherwise.

Simulated counts repeat exactly, so any exact count that differs
between A and B fails the comparison outright.  Exit code 1 on any
``worse`` row, exact-count difference or failed op.

Times are calibrated (see ``worker.Clock``).  The last lines give, per
workload, the raw window median and the host-speed reference loop
(``harness.calib_spin_ms``) of both run sets, so the reader sees what
the calibration took out.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

EXACT = ("sim.events", "flow.chunks", "hardware.link_chunks",
         "hardware.bytes_moved", "hardware.sim_time_us",
         "relational.rows_scanned", "serve.completed", "serve.shed")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of the repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def compare(base: dict, candidate: dict, spec: dict) -> tuple[list, list]:
    """Rows for the table and a list of hard failures."""
    rows, failures = [], []
    for workload, a in base["workloads"].items():
        b = candidate["workloads"].get(workload)
        if b is None:
            failures.append(f"{workload}: missing from the candidate")
            continue
        for side, entry in (("A", a), ("B", b)):
            if entry["failed"]:
                failures.append(f"{workload}: {entry['failed']} of "
                                f"{entry['attempted']} ops failed in {side}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a1, a2, a3 = quartiles(a["end_to_end"][name])
            b1, b2, b3 = quartiles(b["end_to_end"][name])
            ratio = b2 / a2
            loss = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if (a3 - a1) / a2 > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append((workload, name, metric["unit"], (a1, a2, a3),
                         (b1, b2, b3), ratio, bound, verdict))
        for name in EXACT:
            if a["per_layer"].get(name) != b["per_layer"].get(name):
                failures.append(
                    f"{workload}: exact count {name} differs: "
                    f"{a['per_layer'].get(name)} != "
                    f"{b['per_layer'].get(name)}")
    return rows, failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        candidate = json.load(handle)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here),
                           "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if base["seed"] != candidate["seed"]:
        print(f"seeds differ ({base['seed']} != {candidate['seed']}): "
              "exact counts are only comparable at one seed",
              file=sys.stderr)
        return 2
    rows, failures = compare(base, candidate, spec)
    print(f"{'workload':16} {'metric':14} {'unit':4} "
          f"{'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
          f"{'B/A':>7} {'bound':>5}  verdict")
    for workload, name, unit, a, b, ratio, bound, verdict in rows:
        cells = [f"{m:.5g} [{lo:.5g}, {hi:.5g}]" for lo, m, hi in (a, b)]
        print(f"{workload:16} {name:14} {unit:4} {cells[0]:>34} "
              f"{cells[1]:>34} {ratio:7.3f} {bound:5.3g}  {verdict}")
    for workload, a in base["workloads"].items():
        b = candidate["workloads"].get(workload)
        if b is None:
            continue
        for label, key in (("raw window median", "window_raw_ms_p50"),
                           ("reference loop", "calib_spin_ms")):
            raw_a = statistics.median(a[key])
            raw_b = statistics.median(b[key])
            print(f"{workload:16} {label:17} A {raw_a:9.4g} ms  "
                  f"B {raw_b:9.4g} ms  B/A {raw_b / raw_a:.3f}")
    for failure in failures:
        print(f"FAIL {failure}")
    worse = [row for row in rows if row[-1] == "worse"]
    return 1 if worse or failures else 0


if __name__ == "__main__":
    sys.exit(main())

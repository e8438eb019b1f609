"""perfbench: five fixed workloads, host-time and exact-count metrics.

Two ways to run it, both from the root of a checkout:

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload (what ``BENCHMARK.json``'s command does).
    Prints every metric by name with its unit, then one JSON object as
    the last line.  ``--trace 0`` gives the end-to-end metrics with
    tracing off; ``--trace 1`` the per-layer metrics of a traced run.

``python3 perfbench/run.py [--seed N] [--quick] [--out DIR]``
    A run set: every workload ``REPEATS`` times, interleaved
    round-robin, then one traced run each; written to
    ``<out>/perfbench.json`` for ``compare.py``.

Every workload runs in its own fresh interpreter (``worker.py``).  All
times are host seconds; every ``sim.*`` / bytes / events value is a
simulated model output and repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV_FLAGS = ("REPRO_NO_CODEGEN", "REPRO_NO_FUSE", "REPRO_SLOW_KERNEL",
             "REPRO_SLOW_FLOW")
REFERENCE = os.path.join(HERE, "reference.json")
#: Fresh-process repeats of every workload in a run set (``--quick``: 1).
REPEATS = 3
#: Fresh interpreters whose set-up time is the median reported as
#: ``setup_s`` by a single run (a run set uses its repeats instead).
SETUPS = 3
#: A single run must end within 180 s; its children share this budget.
RUN_BUDGET_S = 170.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_worker(workload: str, seed: int, seconds: float, mode: str,
               args, deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter; its last line is JSON."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode,
               "--out", args.out, "--reference", args.reference]
    env = dict(os.environ)
    # The package's kernel cache lives in the home directory; the
    # benchmark writes nothing outside its checkout, and with the disk
    # tier off every run compiles its kernels cold, so runs are alike.
    env["REPRO_KERNEL_CACHE_DIR"] = ""
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with "
                           f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["host"]["flags"] = {flag: os.environ[flag] for flag in ENV_FLAGS
                               if os.environ.get(flag)}
    return result


def run_once(workload: str, seed: int, seconds: float, traced: bool,
             setups: int, args) -> dict:
    """One run of one workload; ``setup_s`` is a median over ``setups``."""
    deadline = time.monotonic() + RUN_BUDGET_S
    result = run_worker(workload, seed, seconds,
                        "traced" if traced else "timed", args, deadline)
    samples = [result["metrics"]["setup_s"]]
    for _ in range(setups - 1):
        samples.append(run_worker(workload, seed, 0, "setup", args,
                                  deadline)["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(samples)
    # ISSUE 12's ``failed_share`` turned round: the driver takes no
    # metric that reads 0, and this one reads 1 on a healthy tree.
    result["metrics"]["passed_share"] = \
        1 - result["failed"] / result["attempted"]
    return result


def report(spec: dict, workload: str, result: dict, kind: str) -> dict:
    """Print the run's metrics by name and unit; return the contract form."""
    metrics = {}
    for metric in spec[kind]:
        name = metric["name"]
        metrics[name] = {"value": result["metrics"][name],
                         "unit": metric["unit"]}
        print(f"{workload:16} {name:32} "
              f"{result['metrics'][name]:>16.6g} {metric['unit']}")
    print(f"{workload:16} {'samples':32} "
          f"{result['metrics'].get('samples', 0):>16} windows")
    if kind == "end_to_end":        # raw, beside the calibrated times
        for raw in ("harness.window_raw_ms_p50", "harness.calib_spin_ms"):
            print(f"{workload:16} {raw:32} "
                  f"{result['metrics'][raw]:>16.6g} ms")
    for error in result["errors"]:
        print(f"{workload}: FAILED OP: {error}", file=sys.stderr)
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def rebaseline(spec: dict, args) -> int:
    """Pin the seed-0 digests, after the independent checks pass."""
    pinned = {}
    for entry in spec["workloads"]:
        result = run_worker(entry["name"], 0, 0, "reference", args,
                            time.monotonic() + RUN_BUDGET_S)
        if result["failed"]:
            print(f"{entry['name']}: not pinned: {result['errors']}",
                  file=sys.stderr)
            return 1
        pinned[entry["name"]] = result["digests"]
    # One digest per line, so a rebaseline reads as a diff of digests.
    body = ",\n".join(
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(digest)}"
            for key, digest in sorted(digests.items())) + "\n }"
        for name, digests in sorted(pinned.items()))
    with open(args.reference, "w") as handle:
        handle.write("{\n" + body + "\n}\n")
    print(f"wrote {args.reference}")
    return 0


def run_set(spec: dict, seconds: float, repeats: int, args) -> int:
    """Every workload, repeats interleaved round-robin, then traced."""
    names = [entry["name"] for entry in spec["workloads"]]
    out = {"schema": "perfbench/v1", "seed": args.seed,
           "seconds": seconds, "repeats": repeats,
           "workloads": {name: {"end_to_end": {}, "per_layer": {},
                                "attempted": 0, "failed": 0}
                         for name in names}}
    failed = 0
    for traced, rounds in ((False, repeats), (True, 1)):
        kind = "per_layer" if traced else "end_to_end"
        for _ in range(rounds):
            for name in names:
                result = run_once(name, args.seed, seconds, traced, 1, args)
                contract = report(spec, name, result, kind)
                entry = out["workloads"][name]
                entry["attempted"] += contract["attempted"]
                entry["failed"] += contract["failed"]
                failed += contract["failed"]
                for metric, cell in contract["metrics"].items():
                    entry[kind].setdefault(metric, []).append(cell["value"])
                # python / numpy versions, nproc, the flags set
                out["host"] = result["host"]
                # The host-speed reference and the raw window of every
                # run, beside the calibrated ones.
                for raw in ("calib_spin_ms", "window_raw_ms_p50"):
                    entry.setdefault(raw, []).append(
                        result["metrics"][f"harness.{raw}"])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "perfbench.json")
    with open(path, "w") as handle:
        json.dump(out, handle, indent=1)
    print(f"wrote {path}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one run of this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of a run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the seconds, one repeat")
    parser.add_argument("--out", default=os.path.join("bench-out", "perf"))
    parser.add_argument("--reference", default=REFERENCE)
    parser.add_argument("--rebaseline", action="store_true",
                        help="rewrite the pinned seed-0 digests")
    parser.add_argument("--allow-env", action="store_true",
                        help="run although a REPRO_* fast-path flag is set")
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)

    flags = [flag for flag in ENV_FLAGS if os.environ.get(flag)]
    if flags and not args.allow_env:
        print(f"perfbench: {', '.join(flags)} set: this would time a "
              "reference path, not the default one.  Unset, or pass "
              "--allow-env.", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}: nothing to "
              "measure", file=sys.stderr)
        return 3
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    if args.quick:
        seconds /= 10.0
    if args.rebaseline:
        return rebaseline(spec, args)
    if args.workload is None:
        return run_set(spec, seconds, 1 if args.quick else REPEATS, args)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_once(args.workload, args.seed, seconds, bool(args.trace),
                      1 if args.trace else SETUPS, args)
    contract = report(spec, args.workload, result,
                      "per_layer" if args.trace else "end_to_end")
    print(json.dumps(contract))
    return 0 if contract["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

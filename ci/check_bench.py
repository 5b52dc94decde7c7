#!/usr/bin/env python3
"""Gate the sketch hot path's per-layer figures against the committed baseline.

Reads three or more perfbench result lines, one file per run (the last
line of stdout of ``perfbench/run.py --trace 1``; a whole stdout capture
also works), and compares the median of each gated metric with
``results/BENCH_layers.baseline.json``. The gated metrics time Algorithm 1
(winnow, then T-trial select) and the whole stage-1 segment path; all are
lower-is-better. The gate fails when a run reports ``"correct": false``,
when fewer than three runs are given, or when a median is more than the
allowed fraction (default 15%) above its baseline value. Improvements
never fail the gate, but a large one prints a reminder to refresh the
baseline so the gate keeps teeth. The other query-path layers are printed
but not gated: one run of each strays 0.2 or more from the median on a
2-vCPU host, wider than the bound.

The baseline tracks the CI runner class; it records the host's LLC size
so a runner change shows. To refresh it (new runner hardware, or an
accepted change that moves the numbers), run from the repository root on
CI-class hardware:

    for i in $(seq 1 10); do
      python3 perfbench/run.py --workload map_small_repeats --seed 1 \\
          --seconds 8 --trace 1 | tail -n 1 > layers-$i.json
    done
    python3 ci/check_bench.py --refresh results/BENCH_layers.baseline.json layers-*.json

and commit the result together with the change that moved the numbers.

Usage: check_bench.py [--refresh] [--max-regression 0.15] BASELINE.json RUN.json...
"""

import argparse
import json
import statistics
import sys

COMMAND = (
    "python3 perfbench/run.py --workload map_small_repeats --seed 1 --seconds 8 --trace 1"
)
# Each replaces one stage of the former sketch micro-benchmark:
# minimizers, select and map.
GATED = ("sketch.winnow_ns_per_kbp", "sketch.select_ns_per_kbp", "core.segment_ns_p50")
SHOWN = ("seq.encode_ns_per_kbp", "index.probe_ns", "index.count_ns_per_segment")
MIN_RUNS = 3


def load_run(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        sys.exit(f"error: {path}: no result line")
    try:
        run = json.loads(lines[-1])
    except ValueError as exc:
        sys.exit(f"error: {path}: last line is not JSON: {exc}")
    if not isinstance(run, dict) or not isinstance(run.get("metrics"), dict):
        sys.exit(f"error: {path}: last line is not a perfbench result")
    return run


def value(run, name, path):
    try:
        return float(run["metrics"][name]["value"])
    except (KeyError, TypeError, ValueError) as exc:
        sys.exit(f"error: {path}: no metrics.{name}.value: {exc}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed baseline (written with --refresh)")
    ap.add_argument("runs", nargs="+", help="one perfbench result line per file")
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="allowed fractional slowdown of a median (default 0.15)",
    )
    ap.add_argument(
        "--refresh",
        action="store_true",
        help="write BASELINE from the runs' medians instead of gating",
    )
    args = ap.parse_args()

    runs = [(path, load_run(path)) for path in args.runs]
    failures = [f"{path}: perfbench reported \"correct\": false" for path, run in runs
                if run.get("correct") is not True]
    if len(runs) < MIN_RUNS:
        failures.append(f"{len(runs)} run(s) given, the gate needs at least {MIN_RUNS}")
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        sys.exit(1)

    def median(name):
        return statistics.median(value(run, name, path) for path, run in runs)

    def max_dev(name, mid):
        return max(abs(value(run, name, path) / mid - 1.0) for path, run in runs)

    llc = int(median("host.llc_bytes"))
    if args.refresh:
        baseline = {
            "schema_version": 2,
            "command": COMMAND,
            "runs": len(runs),
            "host.llc_bytes": llc,
            "median": {name: median(name) for name in GATED},
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"baseline written to {args.baseline} from {len(runs)} runs")
        return

    with open(args.baseline) as f:
        baseline = json.load(f)
    if baseline.get("schema_version") != 2:
        sys.exit(f"error: {args.baseline}: unsupported schema_version "
                 f"{baseline.get('schema_version')!r}")
    if baseline.get("host.llc_bytes") != llc:
        print(f"note: these runs saw an LLC of {llc} bytes, the baseline host "
              f"{baseline.get('host.llc_bytes')}; the baseline may not fit this runner")

    print(f"{len(runs)} runs of: {baseline['command']}")
    print(f"{'metric':<28} {'baseline':>10} {'median':>10} {'max dev':>8} {'delta':>8}")
    for name in GATED:
        base = float(baseline["median"][name])
        if base <= 0:
            sys.exit(f"error: baseline {name} is {base}, refresh the baseline")
        mid = median(name)
        delta = mid / base - 1.0
        print(f"{name:<28} {base:>10.0f} {mid:>10.0f} {max_dev(name, mid):>8.1%} {delta:>+8.1%}")
        if delta > args.max_regression:
            failures.append(
                f"{name}: median {mid:.0f} is {delta:.1%} above the baseline "
                f"{base:.0f} (allowed: {args.max_regression:.0%})"
            )
        elif delta < -args.max_regression:
            print(f"note: {name} improved {-delta:.1%}; consider refreshing the baseline "
                  f"(see ci/check_bench.py header) so the gate keeps teeth")
    for name in SHOWN:
        mid = median(name)
        print(f"{name:<28} {'not gated':>10} {mid:>10.0f} {max_dev(name, mid):>8.1%}")

    if failures:
        for f in failures:
            print(f"REGRESSION {f}", file=sys.stderr)
        sys.exit(1)
    print(f"bench gate ok: no gated median is more than {args.max_regression:.0%} "
          f"above {args.baseline}")


if __name__ == "__main__":
    main()

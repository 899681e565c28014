"""Run the benchmark in alternated parent/change pairs and summarise each metric.

    python3 tools/pairs.py PARENT CHANGE --pairs 10 --seconds 20 --seed 10001

PARENT and CHANGE are the roots of two checkouts.  Pair i runs
perfbench/run.py --trace 0 with seed SEED + i on each side, the parent
first in even pairs and the change first in odd ones, so that neither
side always runs on the warmer or the busier host.  The workloads, and
the end-to-end metrics with the direction in which each is better, are
read from the change's BENCHMARK.json; --workload (repeatable) runs only
the ones named.  Every run of one workload comes before the next
workload's.

For each workload and metric the tool prints the parent's and the
change's median with their quartiles, the change in the median, that
change over the parent's interquartile range, and in how many pairs the
change was strictly better.  A run that reports correct false or a
failed operation is printed as a warning line.  Progress goes to
standard error.  SIGTERM or Ctrl-C stops the running benchmark too.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between
    order statistics as statistics.quantiles(method="inclusive") does."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better: str) -> dict:
    """Summary of one metric over (parent, change) pairs of values, where
    better is "lower" or "higher"."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, got {better!r}")
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    sign = -1 if better == "lower" else 1
    iqr = parent[2] - parent[0]
    gap = change[1] - parent[1]
    return {
        "pairs": len(pairs),
        "parent": parent,
        "change": change,
        "delta": gap / parent[1] if parent[1] else float("nan"),
        "gap_over_iqr": abs(gap) / iqr if iqr else float("inf") if gap else 0.0,
        "wins": sum(sign * (c - p) > 0 for p, c in pairs),
    }


def read_result(stdout: str) -> dict:
    """The last line of a run's standard output: the JSON object with
    correct, attempted, failed and metrics."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def format_row(metric: str, better: str, s: dict) -> str:
    def side(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    return (
        f"  {metric:<12} {better:<7} {side(s['parent']):<30} {side(s['change']):<30}"
        f" {s['delta']:+7.2%} {s['gap_over_iqr']:6.2f}  {s['wins']}/{s['pairs']}"
    )


HEADER = (
    f"  {'metric':<12} {'better':<7} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30}"
    f" {'median':>7} {'/IQR':>6}  won"
)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return read_result(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=10001, help="seed of the first pair")
    parser.add_argument("--workload", action="append", help="a workload to run (default: all)")
    args = parser.parse_args(argv)
    # SIGTERM raises KeyboardInterrupt, on which subprocess.run kills the
    # running benchmark instead of leaving it to load the host.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    unknown = set(args.workload or ()) - set(names)
    if unknown:
        parser.error(f"unknown workload {sorted(unknown)} (choose from {', '.join(names)})")
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    for workload in args.workload or names:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            results = {}
            for side in order:
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: {side}", file=sys.stderr)
                results[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            runs.append((seed, results))
        last = args.seed + args.pairs - 1
        print(f"{workload}: {args.pairs} pairs, seeds {args.seed}-{last}, {args.seconds:g} s runs")
        for seed, results in runs:
            for side, result in results.items():
                if result["correct"] is not True or result["failed"]:
                    print(f"  warning: {side} seed {seed}: correct {result['correct']},"
                          f" failed {result['failed']}")
        print(HEADER)
        for metric, better in metrics:
            pairs = [
                (r["parent"]["metrics"][metric]["value"], r["change"]["metrics"][metric]["value"])
                for _, r in runs
            ]
            print(format_row(metric, better, summarize(pairs, better)))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

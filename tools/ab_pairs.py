"""Run the benchmark in two checkouts in alternating pairs and summarize
the end-to-end metrics.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --seed S --pairs N

Each pair runs `bench/run.py --workload W --seed S --seconds 22` once in
PARENT and once in CHANGE, PARENT first in odd pairs and CHANGE first in
even ones.  Prints every pair's wall_s, setup_s and peak_rss_mb, then for
each metric both medians, the parent's quartiles and the pairs the change
won: lower is better for all three, and ties count for neither side.  Each
run writes only to its own checkout's bench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SECONDS = 22


def run(checkout: Path, workload: str, seed: int) -> dict:
    """The end-to-end metrics of one benchmark run in `checkout`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(cmd[1:])} failed:\n{done.stderr}")
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {m: metrics[m]["value"] for m in METRICS}


def summary(parent: list[dict], change: list[dict]) -> dict:
    """{metric: (parent median, change median, (parent lower quartile,
    parent upper quartile), pairs the change won)} of row-aligned runs."""
    out = {}
    for metric in METRICS:
        a = [run[metric] for run in parent]
        b = [run[metric] for run in change]
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive")
        won = sum(y < x for x, y in zip(a, b))
        out[metric] = (statistics.median(a), statistics.median(b), (q1, q3), won)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[name].append(run(sides[name], args.workload, args.seed))
        print(f"pair {i + 1}: " + " | ".join(
            f"{name} " + " ".join(f"{m} {runs[name][-1][m]:.6g}" for m in METRICS)
            for name in ("parent", "change")
        ), flush=True)
    for metric, (a, b, (q1, q3), won) in summary(runs["parent"], runs["change"]).items():
        print(f"{metric}: parent median {a:.6g} (quartiles {q1:.6g}-{q3:.6g}, "
              f"spread {q3 - q1:.6g}), change median {b:.6g}, "
              f"difference {a - b:.6g}; change won {won} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

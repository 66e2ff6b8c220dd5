"""Report digests of every benchmark operation in one or more checkouts, and
whether they differ.

    python3 tools/bench_digests.py CHECKOUT [CHECKOUT ...]

In each checkout, runs `bench/run.py --workload W --seed S --seconds 2` for
every workload of its BENCHMARK.json and for seeds 1, 7 and 503, and reads
the run record that run.py writes to that checkout's bench/results/.  Prints
each operation's report digest and verdict, and each run's failed share of
operations.  With two or more checkouts, every run is compared with the
first checkout's, and the exit status is 1 when any digest or failed share
differs.  Nothing under bench/ is changed apart from bench/results/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

SEEDS = (1, 7, 503)
SECONDS = 2


def collect(checkout: Path) -> dict:
    """{(workload, seed): (failed share, {operation: (digest, ok)})}."""
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    runs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            cmd = [sys.executable, "bench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(SECONDS)]
            done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{checkout}: {' '.join(cmd[1:])} failed:\n{done.stderr}")
            summary = json.loads(done.stdout.splitlines()[-1])
            record = checkout / "bench" / "results" / f"{workload}-seed{seed}-trace0.json"
            ops = json.loads(record.read_text())["operations"]
            runs[workload, seed] = (
                Fraction(summary["failed"], summary["attempted"]),
                {op["name"]: (op["digest"], op["ok"]) for op in ops},
            )
    return runs


def show(checkout: Path, runs: dict) -> None:
    print(f"# {checkout}")
    for (workload, seed), (share, ops) in runs.items():
        print(f"{workload} seed {seed}: failed share {share}")
        for name, (digest, ok) in ops.items():
            print(f"  {name:28s} {digest or '-':16s} {'ok' if ok else 'FAIL'}")


def differences(first: dict, other: dict) -> list[str]:
    out = []
    for key in sorted(first.keys() | other.keys()):
        if key not in first or key not in other:
            out.append(f"{key[0]} seed {key[1]}: run in one checkout only")
            continue
        (share_a, ops_a), (share_b, ops_b) = first[key], other[key]
        if share_a != share_b:
            out.append(f"{key[0]} seed {key[1]}: failed share {share_a} vs {share_b}")
        for name in sorted(ops_a.keys() | ops_b.keys()):
            a, b = ops_a.get(name, ("missing",)), ops_b.get(name, ("missing",))
            if a[0] != b[0]:
                out.append(f"{key[0]} seed {key[1]} {name}: digest {a[0]} vs {b[0]}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    args = parser.parse_args(argv)
    results = []
    for checkout in args.checkouts:
        runs = collect(checkout.resolve())
        show(checkout, runs)
        results.append(runs)
    status = 0
    for checkout, runs in zip(args.checkouts[1:], results[1:]):
        diff = differences(results[0], runs)
        print(f"# {checkout} against {args.checkouts[0]}: "
              f"{len(diff)} difference{'s' if len(diff) != 1 else ''}")
        for line in diff:
            print(line)
        status = status or int(bool(diff))
    return status


if __name__ == "__main__":
    sys.exit(main())

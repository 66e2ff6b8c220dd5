"""Steadiness study: run the benchmark on several seeds and report spreads.

    python3 bench/steadiness.py --workloads cat-model ruled-euclid --seeds 10

Runs `bench/run.py` once per seed and workload, one run at a time, exactly
as BENCHMARK.json specifies, and prints for each end-to-end metric the
median and the distance between the first and third quartiles as a share of
the median, next to a third of the metric's bound.  Each run's result line
is appended to bench/results/steadiness.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    log = BENCH / "results" / "steadiness.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=ROOT, check=True, capture_output=True, text=True,
            )
            elapsed = time.perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            with log.open("a") as f:
                f.write(json.dumps({
                    "workload": workload, "seed": seed, "elapsed_s": elapsed, **result,
                }) + "\n")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: correct {all(r['correct'] for r in results)}, "
              f"failed shares {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            target = metric["bound"] / 3.0
            mark = "ok" if spread < target or name == "setup_s" else "WIDE"
            ok = ok and mark == "ok"
            print(f"  {name:12s} median {median:9.4f} {metric['unit']:3s} "
                  f"IQR/median {spread:6.3f} (third of bound {target:.3f}) {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of catdisc: one workload per run, timed in whole rounds, checked.

    python3 bench/run.py --workload cat-model --seed 1 --seconds 22 --trace 0

Builds the workload's inputs from the seed, warms up with one round, then
repeats rounds of the workload's operations until `--seconds` have passed
and at least four rounds have run.  Each round is timed without its checks;
every operation's output is checked after the round.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: wall_s (upper quartile
of the round times), setup_s and peak_rss_mb.  With `--trace 1` untraced and
traced rounds alternate and the metrics are the per-layer ones of the traced
rounds, plus the tracing overhead.  A run record with the machine, every
operation's verdict and report digest, and the round times goes to
bench/results/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 3
# One BLAS thread: the benchmark measures catdisc, not BLAS scheduling on a
# shared machine.
BLAS_THREADS = 1
# A run has at least this many rounds, so that its quartiles exist.
MIN_ROUNDS = 4
WORKLOAD_NAMES = ("cat-model", "ruled-euclid", "harmonic-tree", "minimize-poly")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_catdisc():
    """Import catdisc from this checkout's src/, never from anywhere else."""
    package = SRC / "catdisc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no catdisc sources at {package}")
    sys.path.insert(0, str(SRC))
    import catdisc

    if Path(catdisc.__file__).resolve().parent != package:
        raise SystemExit(f"bench: catdisc imported from {catdisc.__file__}")


def fresh_import_s() -> float:
    """Wall time of a new interpreter that imports catdisc and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import catdisc.cli"],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "platform": platform.platform(),
    }


def run_round(ops, tracer=None):
    """Run every operation once; return per-operation times and results.

    Only the operation calls are timed.  Errors are kept as results, so a
    failing operation is counted and the round goes on.
    """
    times, results = [], []
    for op in ops:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # counted as a failed operation
            out, err = None, exc
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        results.append((out, err))
    return times, results


def upper_quartile(values) -> float:
    """Time within which three rounds in four finish.

    The machines this runs on alternate between a common slow state and
    bursts up to 1.8 times faster lasting tens of seconds; a run's median
    falls into whichever state held most of the run, while the upper
    quartile stays in the common state unless a burst covers three quarters
    of the run.
    """
    return statistics.quantiles(values, n=4)[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before NumPy is first imported, in this process and in the fresh
    # interpreters of the set-up.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("CATDISC_OUTDIR", None)
    import_catdisc()
    import tracing
    import workloads

    build = workloads.WORKLOADS[args.workload]
    workdir = RESULTS / "inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    in_process_import_s = time.perf_counter() - T_START

    # Set-up: a fresh interpreter's imports and the input generation, each
    # repeated, then one warm-up round of the operations.
    import_s = [fresh_import_s() for _ in range(SETUP_REPEATS)]
    inputs_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = build(args.seed, workdir)
        inputs_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    run_round(ops)
    warmup_s = time.perf_counter() - t0
    setup_s = statistics.median(import_s) + statistics.median(inputs_s) + warmup_s

    tracer = tracing.Tracer()
    modes = (False, True) if args.trace else (False,)
    rounds, layer_rounds, records = [], [], {}
    attempted = failed = 0
    unexpected = []
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced in modes:
            tracer.reset()
            times, results = run_round(ops, tracer if traced else None)
            if traced:
                layer_rounds.append(tracer.metrics())
            rounds.append({"traced": traced, "wall_s": sum(times), "op_s": times})
            for op, (out, err) in zip(ops, results):
                outcome = op.judge(out, err)
                first = records.setdefault(op.name, outcome)
                if outcome.ok and outcome.digest != first.digest:
                    outcome.ok = False
                    outcome.detail = "report digest differs from the first round"
                attempted += 1
                if not outcome.ok:
                    failed += 1
                    if op.known_fault is None:
                        unexpected.append((op.name, outcome.detail))
        if time.perf_counter() >= deadline and len(rounds) >= MIN_ROUNDS * len(modes):
            break

    walls = [r["wall_s"] for r in rounds if not r["traced"]]
    if args.trace:
        traced_walls = [r["wall_s"] for r in rounds if r["traced"]]
        metrics = {
            name: {
                "value": statistics.median(lr[name] for lr in layer_rounds),
                "unit": unit,
            }
            for name, unit in tracing.PER_LAYER_UNITS.items()
        }
        metrics["trace.overhead_s"] = {
            "value": upper_quartile(traced_walls) - upper_quartile(walls),
            "unit": "s",
        }
    else:
        values = {
            "wall_s": upper_quartile(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "setup": {
            "in_process_import_s": in_process_import_s,
            "fresh_import_s": import_s,
            "inputs_s": inputs_s,
            "warmup_s": warmup_s,
        },
        "operations": [
            {
                "name": op.name,
                "known_fault": op.known_fault,
                **vars(records[op.name]),
            }
            for op in ops
        ],
        "unexpected_failures": unexpected,
        "rounds": rounds,
        "per_layer_rounds": layer_rounds,
        "metrics": metrics,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for op in ops:
        rec = records[op.name]
        mark = "ok" if rec.ok else f"FAIL (known fault, {op.known_fault})" if op.known_fault else "FAIL"
        print(f"{args.workload}/{op.name}: {mark}: {rec.detail}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

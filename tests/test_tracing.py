"""The benchmark tracer still sees every oracle layer it reports.

`bench/tracing.py` finds what it wraps by module and name; a refactor that
moves an oracle call elsewhere would read as zero in its per-layer metrics.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
from catdisc.mesh import MappedGraph, grid_mesh  # noqa: E402
from catdisc.model import Kappa  # noqa: E402
from catdisc.polyhedral import build_polyhedral_disc, lipschitz_check  # noqa: E402
from catdisc.spaces import EuclideanSpace  # noqa: E402
from catdisc.verify import certify_induced  # noqa: E402
from test_verify import harmonic_tripod_map  # noqa: E402


def traced(run):
    """The tracer's metrics over one call of `run`."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.metrics()


def test_tracer_counts_every_oracle_layer():
    """On a flat map and on a tree-target map, whose oracles use different
    curve components, each counted apart."""
    mesh = grid_mesh(3)
    flat = MappedGraph(mesh, EuclideanSpace(2), [np.array(c) for c in mesh.coords])
    tripod = harmonic_tripod_map(4)

    def flat_run():
        certify_induced(flat, Kappa(0.0), triple_budget=1, grid=3, seed=1, steiner=2)
        W, pair = build_polyhedral_disc(flat, epsilon=0.5)
        lipschitz_check(pair, W, samples=10, refinement=1)

    def tripod_run():
        report = certify_induced(tripod, Kappa(0.0), triple_budget=2, grid=3, seed=1, steiner=2)
        assert report.n_triples > 0

    oracle = ("verify.oracle.nodes", "verify.oracle.edges", "verify.oracle.geodesic_calls",
              "verify.dijkstra.calls")
    for run, names in ((flat_run, (*oracle, "polyhedral.distance_calls")), (tripod_run, oracle)):
        metrics = traced(run)
        for name in names:
            assert metrics[name] > 0, (run.__name__, name)

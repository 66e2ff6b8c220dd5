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


def test_tracer_counts_every_oracle_layer():
    mesh = grid_mesh(3)
    flat = MappedGraph(mesh, EuclideanSpace(2), [np.array(c) for c in mesh.coords])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        certify_induced(flat, Kappa(0.0), triple_budget=1, grid=3, seed=1, steiner=2)
        W, pair = build_polyhedral_disc(flat, epsilon=0.5)
        lipschitz_check(pair, W, samples=10, refinement=1)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in (
        "verify.oracle.nodes", "verify.oracle.edges", "verify.dijkstra.calls",
        "polyhedral.distance_calls",
    ):
        assert metrics[name] > 0, name

"""Graph relaxation toward length minimizers and its necessary conditions."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from catdisc.errors import FixedSetMismatchError, GraphMismatchError
from catdisc.mesh import MappedGraph, SimpleGraph, grid_mesh, triangle_fan
from catdisc.minimize import (
    RelaxConfig,
    dominates,
    non_bubbling,
    relax_graph,
    vertex_angle_sums,
)
from catdisc.spaces import EuclideanSpace


def fermat_instance():
    """Equilateral corners fixed, one free center vertex off the minimizer."""
    sp = EuclideanSpace(2)
    fan = triangle_fan(3)
    corners = [
        np.array([math.cos(2 * math.pi * i / 3), math.sin(2 * math.pi * i / 3)])
        for i in range(3)
    ]
    imgs = [np.array([0.4, 0.3])] + corners
    return MappedGraph(fan, sp, imgs, fixed={1, 2, 3})


def test_fermat_point_reached():
    mg = fermat_instance()
    res = relax_graph(mg)
    assert res.converged
    assert np.linalg.norm(res.graph.images[0]) <= 1e-6
    report = vertex_angle_sums(res.graph)
    assert abs(report.entries[0].total - 2.0 * math.pi) <= 1e-6


def test_angle_sum_negative_control():
    # A center lifted out of its neighbors' plane sees every corner angle
    # shrink, so the cyclic sum falls below 2*pi (a cone point).
    sp = EuclideanSpace(3)
    fan = triangle_fan(4)
    rim = [np.array([c[0], c[1], 0.0]) for c in fan.coords[1:]]
    lifted = MappedGraph(
        fan, sp, [np.array([0.0, 0.0, 0.5])] + rim, fixed=set(range(1, 5))
    )
    report = vertex_angle_sums(lifted)
    assert report.entries[0].total < 2.0 * math.pi - 1e-3
    flat = MappedGraph(
        fan, sp, [np.zeros(3)] + rim, fixed=set(range(1, 5))
    )
    assert abs(vertex_angle_sums(flat).entries[0].total - 2.0 * math.pi) <= 1e-6


def test_monotone_descent_and_fixed_preservation():
    sp = EuclideanSpace(2)
    mesh = grid_mesh(3)
    rng = np.random.default_rng(2)
    imgs = [np.array(c) + 0.3 * rng.normal(size=2) for c in mesh.coords]
    mg = MappedGraph(mesh, sp, imgs)
    res = relax_graph(mg, RelaxConfig(max_iters=50))
    totals = [row[1] for row in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
    for v in mg.fixed:
        assert res.graph.images[v] is mg.images[v]


def test_grid_total_length_matches_subgradient_oracle():
    sp = EuclideanSpace(2)
    mesh = grid_mesh(4)  # 5x5 vertices
    rng = np.random.default_rng(3)
    imgs = [np.array(c) + 0.15 * rng.normal(size=2) for c in mesh.coords]
    mg = MappedGraph(mesh, sp, imgs)
    res = relax_graph(mg)
    assert res.converged
    got = res.graph.total_length()

    # Independent oracle: direct minimization of the total length over the
    # stacked free coordinates (convex; smooth near this minimizer).
    free = [v for v in range(mesh.n_vertices) if v not in mg.fixed]
    edges = [(int(u), int(v)) for u, v in mesh.edges]

    def total(x):
        pos = {v: mg.images[v] for v in mg.fixed}
        for i, v in enumerate(free):
            pos[v] = x[2 * i : 2 * i + 2]
        return sum(np.linalg.norm(pos[u] - pos[v]) for u, v in edges)

    x0 = np.concatenate([mg.images[v] for v in free])
    opt = scipy_minimize(total, x0, method="L-BFGS-B", tol=1e-14)
    assert abs(got - opt.fun) / opt.fun <= 1e-6


def test_dominates_self_and_relaxed():
    sp = EuclideanSpace(2)
    mesh = grid_mesh(2)
    rng = np.random.default_rng(5)
    imgs = [np.array(c) + 0.25 * rng.normal(size=2) for c in mesh.coords]
    mg = MappedGraph(mesh, sp, imgs)
    self_rep = dominates(mg, mg)
    assert self_rep.holds and not self_rep.strict
    res = relax_graph(mg, RelaxConfig(preserve_domination=True))
    rep = dominates(mg, res.graph)
    assert rep.holds  # clipped moves never lengthen any edge


def test_preserve_domination_strict_progress():
    # Middle vertex beyond the far endpoint: moving to the midpoint shortens
    # one edge and keeps the other, so domination holds strictly.
    sp = EuclideanSpace(1)
    g = SimpleGraph(3, ((0, 1), (1, 2)))
    mg = MappedGraph(
        g,
        sp,
        [np.array([0.0]), np.array([3.0]), np.array([2.0])],
        fixed={0, 2},
    )
    res = relax_graph(mg, RelaxConfig(preserve_domination=True))
    rep = dominates(mg, res.graph)
    assert rep.holds
    assert rep.strict
    assert res.graph.total_length() < mg.total_length() - 0.5


def test_dominates_mismatch_errors():
    sp = EuclideanSpace(2)
    mesh = grid_mesh(2)
    imgs = [np.array(c) for c in mesh.coords]
    mg = MappedGraph(mesh, sp, imgs)
    other_mesh = grid_mesh(3)
    other = MappedGraph(other_mesh, sp, [np.array(c) for c in other_mesh.coords])
    with pytest.raises(GraphMismatchError):
        dominates(mg, other)
    shifted = mg.with_images(
        [img + np.array([1.0, 0.0]) for img in mg.images]
    )
    with pytest.raises(FixedSetMismatchError):
        dominates(mg, shifted)


def test_non_bubbling_detects_trapped_component():
    sp = EuclideanSpace(2)
    # Path 0-1-2-3-4, ends fixed; the three middle vertices share one image
    # point, and both complement components contain a fixed endpoint.
    g = SimpleGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    z = np.zeros(2)
    far = np.array([1.0, 0.0])
    mg = MappedGraph(g, sp, [far, z, z, z, far], fixed={0, 4})
    rep = non_bubbling(mg)
    assert rep.ok
    assert rep.checked_points == 1
    # Star with all leaves at the origin and only one leaf fixed: the free
    # center maps elsewhere and its component misses the fixed set.
    star = SimpleGraph(4, ((0, 1), (0, 2), (0, 3)))
    mg2 = MappedGraph(star, sp, [far, z, z, z], fixed={1})
    rep2 = non_bubbling(mg2)
    assert not rep2.ok


def test_relax_rejects_bad_config():
    with pytest.raises(ValueError):
        RelaxConfig(max_iters=0)

"""Graph relaxation toward length minimizers and its necessary conditions."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference_sweeps import fermat_sweep
from scipy.optimize import minimize as scipy_minimize

import catdisc
from catdisc.constructions import RuledDiscSpec, ruled_disc_map
from catdisc.errors import FixedSetMismatchError, GraphMismatchError
from catdisc.mesh import MappedGraph, SimpleGraph, grid_mesh, path_graph, triangle_fan
from catdisc.minimize import (
    RelaxConfig,
    dominates,
    non_bubbling,
    relax_graph,
    vertex_angle_sums,
)
from catdisc.model import SIDE_FLOOR
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


def test_angle_sums_flag_vertices_with_edges_below_the_side_floor():
    """The relaxed map of the test above has edges 1.07e-13 long at vertex
    9, too short for a comparison angle: the vertex is flagged, not a crash."""
    mg = noisy_grid(3, 0.3, 2)
    res = relax_graph(mg)
    assert res.converged
    report = vertex_angle_sums(res.graph)
    short = {
        v for v in mg.mesh.interior_vertices()
        if min(res.graph.edge_length(v, u) for u in mg.mesh.neighbors(v)) < SIDE_FLOOR
    }
    assert {e.vertex for e in report.entries if e.flagged} == short == {9, 10}
    assert all(e.angles == () for e in report.entries if e.flagged)
    assert abs(report.min_total - 2.0 * math.pi) <= 1e-9


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


def noisy_grid(n, amplitude, seed):
    """grid_mesh(n) in the plane with every image moved by amplitude * N(0, 1)."""
    mesh = grid_mesh(n)
    rng = np.random.default_rng(seed)
    imgs = [np.array(c) + amplitude * rng.normal(size=2) for c in mesh.coords]
    return MappedGraph(mesh, EuclideanSpace(2), imgs)


def skew_ruled_map():
    """The 7x7-vertex ruled map between two skew segments of R^3."""
    return ruled_disc_map(RuledDiscSpec(
        eta0=(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
        eta1=(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.2])),
        grid=(6, 6), space=EuclideanSpace(3),
    ))


def reference_minimizer(mg):
    """Fermat-point sweeps from the input images until none moves a vertex
    by 1e-12."""
    images = list(mg.images)
    for _ in range(10_000):
        if fermat_sweep(mg.mesh, mg.space, images, mg.fixed) < 1e-12:
            return images
    raise AssertionError("reference sweeps did not converge")


def lbfgs_total(mg):
    """Least total edge length over the free images, by L-BFGS-B with the
    analytic gradient (unit edge vectors, guarded at zero length)."""
    pos = np.array(mg.images, dtype=float)
    free = [v for v in range(len(pos)) if v not in mg.fixed]
    E = np.asarray(mg.mesh.edges)

    def total(x):
        p = pos.copy()
        p[free] = x.reshape(len(free), -1)
        d = p[E[:, 0]] - p[E[:, 1]]
        n = np.linalg.norm(d, axis=1)
        unit = d / np.maximum(n, 1e-15)[:, None]
        grad = np.zeros_like(p)
        np.add.at(grad, E[:, 0], unit)
        np.add.at(grad, E[:, 1], -unit)
        return float(n.sum()), grad[free].ravel()

    opt = scipy_minimize(
        total, pos[free].ravel(), jac=True, method="L-BFGS-B",
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000},
    )
    return float(opt.fun)


@pytest.mark.parametrize("case", ["grid5", "skew7"])
def test_newton_solve_is_certified_by_one_sweep(case, monkeypatch):
    mg = noisy_grid(4, 0.15, 3) if case == "grid5" else skew_ruled_map()
    calls = []
    fermat_point = EuclideanSpace.fermat_point
    monkeypatch.setattr(
        EuclideanSpace, "fermat_point",
        lambda self, *args: calls.append(1) or fermat_point(self, *args),
    )
    res = relax_graph(mg)
    assert res.converged and res.sweeps == len(res.trace)
    assert len(calls) == mg.mesh.n_vertices - len(mg.fixed)
    totals = [row[1] for row in res.trace]
    assert all(b <= a + 1e-14 * a for a, b in zip(totals, totals[1:]))
    # The last Newton step is quadratic in the one before it, and the sweep
    # after them moves no vertex by more than `fermat_point` resolves (it
    # stops once its own step is below 1e-14).
    moves = [row[2] for row in res.trace]
    assert moves[-2] <= 100.0 * moves[-3] ** 2
    scale = max(1.0, mg.space.spread([mg.images[v] for v in mg.fixed]))
    assert moves[-1] <= 1e-13 * scale
    for v in mg.fixed:
        assert res.graph.images[v] is mg.images[v]
    want = reference_minimizer(mg)
    assert max(mg.space.distance(p, q) for p, q in zip(res.graph.images, want)) <= 1e-9


def _fallback_case(case):
    if case == "path-1d":
        # Every Hessian block of a 1-D target is zero.
        mg = MappedGraph(
            path_graph(5), EuclideanSpace(1),
            [np.array([x]) for x in (0.0, 0.7, -0.3, 2.0, 1.0)], fixed={0, 4},
        )
        return mg, RelaxConfig()
    if case == "obtuse-fan":
        # The corner at the origin sees the others at about 169 degrees, so
        # it is the Fermat point, where the centre's edge to it collapses.
        rim = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([-1.0, 0.2])]
        mg = MappedGraph(
            triangle_fan(3), EuclideanSpace(2), [np.array([0.3, 0.2])] + rim,
            fixed={1, 2, 3},
        )
        return mg, RelaxConfig()
    # Far from the corners, the step to the Fermat point shortens every
    # edge, so clipping leaves it whole.
    mg = fermat_instance()
    mg = mg.with_images([np.array([2.0, 1.5])] + mg.images[1:])
    return mg, RelaxConfig(preserve_domination=True)


@pytest.mark.parametrize("case", ["path-1d", "obtuse-fan", "preserve-domination"])
def test_newton_fallbacks_converge_to_the_reference_sweep(case, monkeypatch):
    mg, cfg = _fallback_case(case)
    if case == "path-1d":
        X = np.array(mg.images)
        movable = np.array([v not in mg.fixed for v in range(5)])
        assert mg.space.length_minimum(mg.mesh.edges, X, movable) == []
        assert np.array_equal(X, np.array(mg.images))
    if case == "preserve-domination":
        def refuse(*args):
            raise AssertionError("preserve_domination ran the Newton solve")

        monkeypatch.setattr(EuclideanSpace, "length_minimum", refuse)
    res = relax_graph(mg, cfg)
    assert res.converged and res.sweeps == len(res.trace)
    want = reference_minimizer(mg)
    assert max(mg.space.distance(p, q) for p, q in zip(res.graph.images, want)) <= 1e-9
    if case == "obtuse-fan":
        assert res.graph.images[0].tobytes() == mg.images[1].tobytes()


def test_relax_is_bit_identical_across_blas_thread_counts():
    code = (
        "import numpy as np\n"
        "from catdisc.mesh import MappedGraph, grid_mesh\n"
        "from catdisc.minimize import relax_graph\n"
        "from catdisc.spaces import EuclideanSpace\n"
        "mesh = grid_mesh(4)\n"
        "rng = np.random.default_rng(3)\n"
        "imgs = [np.array(c) + 0.15 * rng.normal(size=2) for c in mesh.coords]\n"
        "res = relax_graph(MappedGraph(mesh, EuclideanSpace(2), imgs))\n"
        "print(res.trace_csv())\n"
        "print(repr([p.tolist() for p in res.graph.images]))\n"
    )
    src = Path(catdisc.__file__).resolve().parents[1]
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=str(threads)),
            capture_output=True, text=True, check=True,
        ).stdout
        for threads in (1, 2)
    ]
    assert outs[0] == outs[1] and outs[0].count("\n") > 3


@pytest.mark.xfail(
    strict=False,
    reason="sweeps cannot move two coincident free vertices apart, and the "
    "Newton solve gives up once an edge collapses, so relax_graph stops "
    "short of the minimum (ROADMAP: contract coincident free vertices)",
)
def test_relax_reaches_the_minimum_when_free_vertices_coincide():
    mg = noisy_grid(3, 0.3, 3)
    res = relax_graph(mg)
    assert res.converged
    assert res.graph.total_length() <= lbfgs_total(mg) + 1e-9

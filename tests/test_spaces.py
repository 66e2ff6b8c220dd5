"""Target-space backends: Euclidean, model surfaces, trees, flat cones."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catdisc import model, spaces
from catdisc.constructions import HarmonicSpec, harmonic_relax
from catdisc.errors import BackendMismatchError, OutOfConvexityError
from catdisc.mesh import MappedGraph, grid_mesh
from catdisc.minimize import relax_graph
from catdisc.spaces import (
    ConePoint,
    EuclideanSpace,
    FlatCone,
    MetricTree,
    ModelSpace,
    TargetSpace,
    TreePoint,
    point_from_config,
    space_from_config,
)
from catdisc.steiner import tri_point


def cone_unfold_distance(theta, p, q):
    """Brute-force cone distance: min over unfoldings and the apex route."""
    gap = abs(p[1] - q[1]) % theta
    gap = min(gap, theta - gap)
    through_apex = p[0] + q[0]
    if gap >= math.pi:
        return through_apex
    direct = math.sqrt(
        p[0] ** 2 + q[0] ** 2 - 2.0 * p[0] * q[0] * math.cos(gap)
    )
    return min(direct, through_apex)


def newton_fermat_reference(pts, weights, x):
    """Minimizer of sum_i w_i |x - a_i| by undamped Newton from `x`, which
    must lie near it; the gradient there is checked to vanish."""
    for _ in range(50):
        d = np.linalg.norm(pts - x, axis=1)
        U = (x - pts) / d[:, None]
        hess = sum(w * (np.eye(len(x)) - np.outer(u, u)) / di for w, u, di in zip(weights, U, d))
        x = x - np.linalg.solve(hess, weights @ U)
    assert np.linalg.norm(weights @ U) <= 1e-12
    return x


class TestEuclidean:
    def test_distance_geodesic(self):
        sp = EuclideanSpace(3)
        p, q = np.array([0.0, 0.0, 0.0]), np.array([3.0, 4.0, 0.0])
        assert sp.distance(p, q) == 5.0
        mid = sp.geodesic(p, q, 0.5)
        assert np.allclose(mid, [1.5, 2.0, 0.0])

    def test_barycenter_weighted(self):
        sp = EuclideanSpace(2)
        pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
        b = sp.barycenter(pts, [1.0, 3.0])
        assert np.allclose(b, [0.75, 0.0])

    def test_fermat_equilateral_center(self):
        sp = EuclideanSpace(2)
        pts = [
            np.array([math.cos(2 * math.pi * i / 3), math.sin(2 * math.pi * i / 3)])
            for i in range(3)
        ]
        f = sp.fermat_point(pts)
        assert np.linalg.norm(f) <= 1e-6

    def test_fermat_near_weak_anchor_converges_fast(self, monkeypatch):
        # The optimum sits 0.012 from the last point, whose pull barely
        # exceeds its weight: plain Weiszfeld contracts at a rate close to 1
        # there and needs 1,745 iterations to meet its 1e-14 step test.
        pts = np.array([
            [0.36113569, 0.62290506],
            [0.22349094, 0.67601563],
            [0.71089444, 0.83008565],
            [0.53884418, 0.78094282],
        ])
        # Every iteration away from an anchor solves for one Newton step.
        solve = spaces._solve
        calls = []

        def counting_solve(a, b):
            calls.append(1)
            return solve(a, b)

        monkeypatch.setattr(spaces, "_solve", counting_solve)
        f = EuclideanSpace(2).fermat_point(list(pts))
        monkeypatch.undo()
        assert 1 <= len(calls) <= 40
        x = newton_fermat_reference(pts, np.ones(4), np.array([0.5297, 0.7728]))
        assert np.linalg.norm(f - x) <= 1e-12

    def test_fermat_returns_an_optimal_anchor_exactly(self):
        # The heavy anchor's weight, 3/5, exceeds the others' pull, so the
        # optimum is that anchor itself.
        pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([-0.5, 0.8])]
        f = EuclideanSpace(2).fermat_point(pts, [3.0, 1.0, 1.0])
        assert np.array_equal(f, pts[0])

    @pytest.mark.parametrize(
        "ts, weights",
        [((-1.0, 0.3, 2.0), (1.0, 2.0, 1.5)), ((-1.0, 0.3, 2.0, 2.5), (1.0, 1.0, 1.0, 1.0))],
    )
    def test_fermat_of_collinear_anchors(self, ts, weights):
        # The Hessian is singular on the anchors' line: its solve fails, or
        # its huge step does not lower the sum, so Weiszfeld steps remain.
        # The optimum is a weighted median.
        base, direction = np.array([0.1, -0.2]), np.array([0.6, 0.8])
        pts = [base + t * direction for t in ts]
        f = EuclideanSpace(2).fermat_point(pts, weights)
        offset = f - base
        assert abs(offset[0] * direction[1] - offset[1] * direction[0]) <= 1e-12
        value = sum(w * np.linalg.norm(p - f) for p, w in zip(pts, weights))
        best = min(sum(w * np.linalg.norm(p - q) for p, w in zip(pts, weights)) for q in pts)
        assert value <= best + 1e-12

    def test_fermat_weighted_in_r3_matches_newton(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(5, 3))
        weights = rng.uniform(0.5, 2.0, size=5)
        f = EuclideanSpace(3).fermat_point(list(pts), weights)
        # Start the reference near the optimum: plain Weiszfeld first.
        x = weights @ pts / weights.sum()
        for _ in range(2000):
            coef = weights / np.linalg.norm(pts - x, axis=1)
            x = coef @ pts / coef.sum()
        x = newton_fermat_reference(pts, weights, x)
        assert np.linalg.norm(f - x) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_distance_is_bitwise_the_numpy_norm(self, n):
        sp = EuclideanSpace(n)
        rng = np.random.default_rng(n)
        for p, q in zip(rng.normal(size=(200, n)), 10.0 * rng.normal(size=(200, n))):
            assert sp.distance(p, q) == float(np.linalg.norm(p - q))

    def test_dimension_checked(self):
        sp = EuclideanSpace(2)
        with pytest.raises(BackendMismatchError):
            sp.distance(np.zeros(2), np.zeros(3))


class TestModelSpace:
    @pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
    def test_geodesic_endpoint_consistency(self, kappa):
        sp = ModelSpace(kappa)
        p, q = sp.point((0.3, -0.2)), sp.point((-0.5, 0.7))
        d = sp.distance(p, q)
        x = sp.geodesic(p, q, 0.25)
        assert abs(sp.distance(p, x) - 0.25 * d) <= 1e-9

    def test_sphere_distance_known(self):
        sp = ModelSpace(1.0)
        north = sp.point((0.0, 0.0))
        quarter = sp.point((math.pi / 2.0, 0.0))
        assert abs(sp.distance(north, quarter) - math.pi / 2.0) <= 1e-12

    def test_barycenter_spread_guard(self):
        sp = ModelSpace(1.0)
        # Antipodal-ish pair spread >= R_kappa/2 = pi/2.
        pts = [sp.point((0.0, 0.0)), sp.point((2.0, 0.0))]
        with pytest.raises(OutOfConvexityError):
            sp.barycenter(pts)

    @pytest.mark.parametrize("kappa", [-1.0, 1.0])
    def test_symmetric_points_center_on_the_base_point(self, kappa):
        sp = ModelSpace(kappa)
        o = model.base_point(sp.kappa)
        pts = [sp.point(xy) for xy in ((0.4, 0.0), (-0.4, 0.0), (0.0, 0.3), (0.0, -0.3))]
        assert sp.distance(sp.barycenter(pts), o) <= 1e-12
        assert sp.distance(sp.fermat_point(pts), o) <= 1e-12

    @pytest.mark.parametrize("kappa", [-1.0, 1.0])
    def test_weighted_barycenter_and_fermat_point_are_critical(self, kappa):
        """Sum w_i log_x(p_i) vanishes at the barycenter; the weighted unit
        log vectors vanish at a Fermat point off the anchors, and at an
        anchor the others' pull fits its weight."""
        sp = ModelSpace(kappa)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            pts = [sp.point(rng.uniform(-0.5, 0.5, size=2)) for _ in range(5)]
            w = rng.uniform(0.5, 1.5, size=5)
            w /= w.sum()
            x = sp.barycenter(pts, w)
            logs = [model.log_map(sp.kappa, x, p) for p in pts]
            assert np.linalg.norm(sum(wi * v for wi, v in zip(w, logs))) <= 1e-11
            x = sp.fermat_point(pts, w)
            logs = [model.log_map(sp.kappa, x, p) for p in pts]
            d = np.array([np.linalg.norm(v) for v in logs])
            pull = sum(wi * v / di for wi, v, di in zip(w, logs, d) if di > 1e-9)
            near = np.flatnonzero(d <= 1e-9)
            if near.size:
                assert np.linalg.norm(pull) <= w[near[0]] + 1e-9
            else:
                assert np.linalg.norm(pull) <= 1e-9

    def test_sphere_harmonic_map_and_length_minimizer_converge(self):
        """On a 3 x 3 grid into M_1: the harmonic map balances the log
        vectors to its neighbors at every interior vertex, and the length
        minimizer balances their unit vectors."""
        sp = ModelSpace(1.0)
        mesh = grid_mesh(3)
        rng = np.random.default_rng(4)
        imgs = [sp.point(0.8 * (c - 0.5) + 0.1 * rng.normal(size=2)) for c in mesh.coords]
        mg = MappedGraph(mesh, sp, imgs)
        harmonic = harmonic_relax(HarmonicSpec(mesh, {v: imgs[v] for v in mg.fixed}, sp))
        minimal = relax_graph(mg)
        assert harmonic.converged and minimal.converged
        for v in mesh.interior_vertices():
            x = harmonic.graph.images[v]
            logs = [model.log_map(sp.kappa, x, harmonic.graph.images[u]) for u in mesh.neighbors(v)]
            assert np.linalg.norm(sum(logs)) <= 1e-9
            x = minimal.graph.images[v]
            logs = [model.log_map(sp.kappa, x, minimal.graph.images[u]) for u in mesh.neighbors(v)]
            assert np.linalg.norm(sum(u / np.linalg.norm(u) for u in logs)) <= 1e-9


class TestMetricTree:
    def setup_method(self):
        self.tree = MetricTree(
            [("o", "a", 1.0), ("o", "b", 2.0), ("o", "c", 3.0)]
        )

    def test_leg_distances(self):
        t = self.tree
        pa = t.vertex_point("a")
        pb = t.vertex_point("b")
        assert abs(t.distance(pa, pb) - 3.0) <= 1e-12
        half = TreePoint("o", "c", 1.5)
        assert abs(t.distance(pa, half) - 2.5) <= 1e-12

    def test_geodesic_passes_through_root(self):
        t = self.tree
        pa, pb = t.vertex_point("a"), t.vertex_point("b")
        mid = t.geodesic(pa, pb, 1.0 / 3.0)
        # One unit along a 3-unit path from the a-leg end is the root.
        assert abs(t.distance(t.vertex_point("o"), mid)) <= 1e-12

    def test_same_edge_interpolation(self):
        t = self.tree
        p = TreePoint("o", "c", 0.5)
        q = TreePoint("o", "c", 2.5)
        x = t.geodesic(p, q, 0.25)
        assert abs(t.distance(p, x) - 0.5) <= 1e-12

    def test_barycenter_median_property(self):
        t = self.tree
        pts = [t.vertex_point(x) for x in ("a", "b", "c")]
        b = t.barycenter(pts)
        # Tripod barycenter of leg endpoints with lengths 1,2,3 sits on the
        # longest leg: minimize (1+x)^2 + (2+x)^2 + (3-x)^2 over the c-leg.
        cost = lambda x: (1 + x) ** 2 + (2 + x) ** 2 + (3 - x) ** 2
        xs = np.linspace(0.0, 3.0, 30001)
        best = xs[np.argmin([cost(x) for x in xs])]
        assert abs(t.distance(t.vertex_point("o"), b) - best) <= 1e-4

    def test_not_a_tree_rejected(self):
        with pytest.raises(ValueError):
            MetricTree([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])

    def test_barycenter_rows_take_three_anchors(self):
        t = self.tree
        pts = [t.vertex_point(x) for x in ("a", "b", "c", "o")]
        with pytest.raises(ValueError):
            t.barycenter_rows(pts, np.full((2, 4), 0.25))
        with pytest.raises(ValueError):
            t.barycenter_rows(pts[:3], np.zeros((1, 3)))


TRIPOD = [("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)]
# A spine s0..s4 with legs hanging off it: tripod legs cross several edges.
CATERPILLAR = [
    ("s0", "s1", 0.7), ("s1", "s2", 1.3), ("s2", "s3", 0.4), ("s3", "s4", 0.9),
    ("s0", "l0", 0.6), ("s1", "l1", 0.5), ("l1", "m1", 0.8), ("s2", "l2", 1.1),
    ("s3", "l3", 0.3),
]


def random_tree_point(tree, rng):
    """A random edge point, a vertex, or either written from the other end."""
    if rng.uniform() < 0.3:
        verts = list(tree.adj)
        p = tree.vertex_point(verts[rng.integers(len(verts))])
    else:
        p = tree.random_point(rng)
    if rng.uniform() < 0.5:
        p = TreePoint(p.v, p.u, tree.adj[p.u][p.v] - p.offset)
    return p


@pytest.mark.parametrize("edges", [TRIPOD, CATERPILLAR], ids=["tripod", "caterpillar"])
def test_closed_form_means_match_the_edge_scan(edges):
    tree = MetricTree(edges)
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(120):
        corners = [random_tree_point(tree, rng) for _ in range(3)]
        if trial % 6 == 1:
            corners[2] = corners[0]
        elif trial % 6 == 2:
            corners = [corners[1]] * 3
        elif trial % 6 == 3:  # the same vertex written on two edges
            corners[1] = TreePoint(corners[0].u, corners[0].v, 0.0)
            corners[2] = tree.vertex_point(corners[0].u)
        rows = rng.uniform(size=(12, 3))
        rows[rng.uniform(size=rows.shape) < 0.3] = 0.0
        rows[rows.sum(axis=1) == 0.0, trial % 3] = 1.0
        got = tree.barycenter_rows(corners, rows)
        for w, p in zip(rows, got):
            keep = w > 0.0
            want = tree.barycenter(
                [c for c, k in zip(corners, keep) if k], w[keep]
            )
            worst = max(worst, tree.distance(p, want))
    assert worst <= 1e-12


def test_tree_barycenter_and_fermat_point_beat_a_dense_scan():
    """On every edge of the caterpillar, sampled densely and at each anchor,
    scalar `distance` finds no better point than `barycenter` or
    `fermat_point`.  The sum of distances is least at a vertex or an
    anchor, both scanned, so the Fermat value matches the scan's least one;
    the barycenter y of normalised weights meets f(x) >= f(y) + d(x, y)^2
    at every scanned x, which only the minimizer of f does in a CAT(0)
    space (Sturm 2003)."""
    tree = MetricTree(CATERPILLAR)
    rng = np.random.default_rng(8)
    grid = [
        TreePoint(u, v, float(s)) for u, v, w in tree.edges for s in np.linspace(0.0, w, 61)
    ]
    for trial in range(30):
        anchors = [random_tree_point(tree, rng) for _ in range(rng.integers(1, 6))]
        if trial % 3 == 1:
            anchors += anchors[:2]
        elif trial % 3 == 2:  # several anchors on one edge, written from either end
            u, v, w = tree.edges[trial % len(tree.edges)]
            anchors += [TreePoint(u, v, 0.3 * w), TreePoint(v, u, 0.2 * w), TreePoint(u, v, 0.5 * w)]
        weights = rng.uniform(0.1, 2.0, size=len(anchors))
        weights /= weights.sum()
        scan = grid + anchors
        D = np.array([[tree.distance(x, p) for p in anchors] for x in scan])
        bary, fermat = tree.barycenter(anchors, weights), tree.fermat_point(anchors, weights)
        f_bary = sum(w * tree.distance(bary, p) ** 2 for w, p in zip(weights, anchors))
        f_fermat = sum(w * tree.distance(fermat, p) for w, p in zip(weights, anchors))
        to_bary = np.array([tree.distance(x, bary) for x in scan])
        assert np.all((D * D) @ weights >= f_bary + to_bary**2 - 1e-12)
        assert abs(f_fermat - (D @ weights).min()) <= 1e-12

    # An anchor whose weight outweighs all the others is the Fermat point.
    heavy = TreePoint("l1", "m1", 0.35)
    others = [tree.vertex_point("s4"), TreePoint("s2", "s1", 0.2), tree.vertex_point("l0")]
    got = tree.fermat_point([heavy] + others, [3.5, 1.0, 1.0, 1.0])
    assert tree.distance(got, heavy) <= 1e-12


@pytest.mark.parametrize("edges", [TRIPOD, CATERPILLAR], ids=["tripod", "caterpillar"])
def test_array_distance_matches_scalar_distance(edges):
    tree = MetricTree(edges)
    rng = np.random.default_rng(6)
    P = [random_tree_point(tree, rng) for _ in range(400)]
    Q = [random_tree_point(tree, rng) for _ in range(400)]
    # Same-edge pairs, in both orientations.
    for i in range(0, 100, 2):
        p = P[i]
        Q[i] = TreePoint(p.u, p.v, float(rng.uniform(0.0, tree.adj[p.u][p.v])))
        Q[i + 1] = TreePoint(p.v, p.u, float(rng.uniform(0.0, tree.adj[p.u][p.v])))
        P[i + 1] = p
    X, Y = tree.as_array(P), tree.as_array(Q)
    got = tree.distance_arrays(X, Y)
    want = np.array([tree.distance(p, q) for p, q in zip(P, Q)])
    assert np.abs(got - want).max() <= 1e-12
    assert np.array_equal(tree.distance_arrays(tree.as_array(P), tree.as_array(P)),
                          np.zeros(len(P)))
    alpha, beta, gamma = tree.offset_terms(X[:, 0].astype(np.intp), Y[:, 0].astype(np.intp))
    assert np.abs(np.abs(alpha * X[:, 1] + beta * Y[:, 1] + gamma) - want).max() <= 1e-12


def test_pair_energy_minimum_pulls_a_path_across_a_tree_vertex():
    """Points 1 and 2 of the path 0-1-2 must cross the tree vertex v0 onto
    the fixed point's edge.  After point 1 moves onto that edge, holding
    point 2 where its solve leaves the box would not lower the energy, so
    the solve steps to the first bound instead."""
    tree = MetricTree([("v1", "v0", 1.1), ("v2", "v0", 0.8)])
    X = np.array([[0.0, 0.8], [1.0, 0.8], [1.0, 0.4]])
    rows = tree.pair_energy_minimum(np.array([[1, 0], [2, 1]]), X, np.array([False, True, True]))
    assert np.array_equal(X, [[0.0, 0.8]] * 3)
    energies = [e for e, _ in rows]
    assert energies[-1] == 0.0
    assert all(b <= a for a, b in zip(energies, energies[1:]))


def backend_sample(name, rng, n):
    """A backend, n of its points, and the map from its points to array
    points."""
    if name == "euclidean":
        return EuclideanSpace(3), list(rng.normal(size=(n, 3))), np.array
    if name.startswith("model"):
        sp = ModelSpace(1.0 if name == "model+1" else -1.0)
        pts = [sp.point(xy) for xy in rng.uniform(-0.6, 0.6, size=(n, 2))]
        return sp, pts, lambda P: np.array([p.coords for p in P])
    if name == "tripod":
        tree = MetricTree(TRIPOD)
        return tree, [random_tree_point(tree, rng) for _ in range(n)], tree.as_array
    cone = FlatCone(1.5 * math.pi)
    pts = [cone.random_point(rng) for _ in range(n - 2)] + [cone.point(0.0, 0.0)] * 2

    def as_objects(P):
        out = np.empty(len(P), dtype=object)
        out[:] = P
        return out

    return cone, pts, as_objects


@pytest.mark.parametrize("name", ["euclidean", "model+1", "model-1", "tripod", "cone"])
def test_array_interface_matches_the_point_methods(name):
    """`distance_arrays` is `distance` per pair, and `triangle_means` the
    per-point interpolant per row: `tri_point`, or on the tree its own
    Frechet mean (`barycenter`).  Exactly equal on the cone, which goes
    point by point."""
    rng = np.random.default_rng(11)
    space, pts, to_array = backend_sample(name, rng, 60)
    P, Q = pts[:30], pts[30:]
    got = space.distance_arrays(to_array(P), to_array(Q))
    want = np.array([space.distance(p, q) for p, q in zip(P, Q)])
    corners = [[pts[i] for i in rng.choice(len(pts), 3, replace=False)] for _ in range(20)]
    tri_idx = rng.integers(len(corners), size=50)
    rows = rng.dirichlet(np.ones(3), size=50)
    means = space.triangle_means(space.triangle_tables(corners), tri_idx, rows)
    if isinstance(space, MetricTree):
        ref = [space.barycenter(corners[t], w) for t, w in zip(tri_idx, rows)]
    else:
        ref = [tri_point(space, corners[t], w) for t, w in zip(tri_idx, rows)]
    if name == "cone":
        assert np.array_equal(got, want)
        assert list(means) == ref
    else:
        assert np.abs(got - want).max() <= 1e-12
        assert space.distance_arrays(means, to_array(ref)).max() <= 1e-12


@pytest.mark.parametrize("name", ["euclidean", "model+1", "model-1"])
def test_chains_equal_the_per_point_calls(name):
    """Chain points and step lengths from array passes are the ones of one
    `geodesic` call per point and one `distance` call per step, byte for
    byte, coincident ends and chains without points included."""
    rng = np.random.default_rng(5)
    space, pts, to_array = backend_sample(name, rng, 40)
    ends = list(zip(pts[:20], pts[20:])) + [(pts[0], pts[0])]
    for fracs in ([[0.2, 0.4, 0.6, 0.8]] * len(ends), [[]] * len(ends)):
        got_pts, got_steps = space.chains(ends, fracs)
        want_pts, want_steps = TargetSpace.chains(space, ends, fracs)
        assert to_array(got_pts).tobytes() == to_array(want_pts).tobytes()
        assert np.asarray(got_steps).tobytes() == np.array(want_steps).tobytes()


@pytest.mark.parametrize("theta", [1.5 * math.pi, 2.5 * math.pi])
def test_cone_array_forms_equal_the_point_methods_bit_for_bit(theta):
    """`distance_arrays`, `distance_blocks` and `geodesics` (as (r, phi)
    rows) of a flat cone are `distance` and `geodesic` per pair and per
    fraction, byte for byte,
    on random pairs and on pairs at the apex, at angular gaps of exactly pi
    and above pi, and with an angle just below theta."""
    cone = FlatCone(theta)
    rng = np.random.default_rng(9)
    apex, x = cone.point(0.0, 0.0), cone.point(0.7, 1.0)
    P = [cone.random_point(rng) for _ in range(40)] + [
        apex, x, apex, x, cone.point(1.0, 0.0), cone.point(0.4, 0.2),
        cone.point(0.8, math.nextafter(theta, 0.0)),
    ]
    Q = [cone.random_point(rng) for _ in range(40)] + [
        x, apex, apex, x, cone.point(0.5, math.pi), cone.point(0.9, 0.2 + 1.2 * math.pi),
        cone.point(0.6, 0.1),
    ]
    want = np.array([cone.distance(p, q) for p, q in zip(P, Q)])
    assert cone.distance_arrays(np.array(P, dtype=object), np.array(Q, dtype=object)).tobytes() == (
        want.tobytes()
    )
    (block,) = cone.distance_blocks([(P, Q)])
    assert block.tobytes() == np.array([[cone.distance(p, q) for q in Q] for p in P]).tobytes()
    T = np.array([0.0, 1e-16, 0.1, 1.0 / 3.0, 0.5, 0.9, 1.0])
    for p, q in zip(P, Q):
        want = np.array([(g.r, g.phi) for g in (cone.geodesic(p, q, t) for t in T.tolist())])
        assert cone.geodesics(p, q, T).tobytes() == want.tobytes()


@pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
def test_model_blocks_and_geodesics_equal_the_point_methods(kappa):
    """`ModelSpace.geodesics` rows are `geodesic` per fraction, and
    `distance_blocks` of points, of those rows and of both mixed is
    `distance` per entry, byte for byte."""
    sp = ModelSpace(kappa)
    rng = np.random.default_rng(13)
    pts = [sp.point(xy) for xy in rng.uniform(-0.6, 0.6, size=(6, 2))]
    T = np.array([0.0, 0.25, 0.5, 1.0 / 3.0, 1.0])
    rows = sp.geodesics(pts[0], pts[1], T)
    as_points = [sp.geodesic(pts[0], pts[1], t) for t in T.tolist()]
    assert rows.tobytes() == np.array([p.coords for p in as_points]).tobytes()
    got = sp.distance_blocks([(pts[:2], pts[2:]), (pts[:1], rows), (rows, rows)])
    for block, (A, B) in zip(got, [(pts[:2], pts[2:]), (pts[:1], as_points),
                                   (as_points, as_points)]):
        want = np.array([[sp.distance(a, b) for b in B] for a in A])
        assert np.asarray(block).tobytes() == want.tobytes()


def test_cone_array_forms_check_their_points():
    cone = FlatCone(1.5 * math.pi)
    good = [cone.point(0.5, 0.1)]
    for bad in (ConePoint(-0.1, 0.0), ConePoint(0.5, 1.5 * math.pi + 1e-9), (0.5, 0.1)):
        with pytest.raises(BackendMismatchError):
            cone.distance_arrays(good, [bad])
        with pytest.raises(BackendMismatchError):
            cone.distance_blocks([(good, [bad])])
        with pytest.raises(BackendMismatchError):
            cone.geodesics(good[0], bad, np.array([0.5]))


class TestFlatCone:
    @pytest.mark.parametrize("theta", [1.5 * math.pi, 2.5 * math.pi])
    def test_distance_matches_unfolding_oracle(self, theta):
        cone = FlatCone(theta)
        rng = np.random.default_rng(5)
        for _ in range(300):
            r1, r2 = rng.uniform(0.1, 2.0, size=2)
            a1, a2 = rng.uniform(0.0, theta, size=2)
            got = cone.distance(cone.point(r1, a1), cone.point(r2, a2))
            want = cone_unfold_distance(theta, (r1, a1), (r2, a2))
            assert abs(got - want) <= 1e-12

    def test_apex_routes(self):
        cone = FlatCone(1.5 * math.pi)
        p = cone.point(1.0, 0.0)
        q = cone.point(1.0, 0.75 * math.pi)  # gap >= pi on a 3pi/2 cone? no
        apexward = cone.point(1.0, cone.theta / 2.0)
        assert cone.distance(p, cone.point(0.0, 0.0)) == 1.0
        mid = cone.geodesic(p, apexward, 0.5)
        # gap = 3pi/4 < pi: direct geodesic misses the apex.
        assert mid.r > 0.0

    def test_geodesic_length_additivity(self):
        cone = FlatCone(2.5 * math.pi)
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = cone.point(rng.uniform(0.1, 2.0), rng.uniform(0.0, cone.theta))
            q = cone.point(rng.uniform(0.1, 2.0), rng.uniform(0.0, cone.theta))
            d = cone.distance(p, q)
            x = cone.geodesic(p, q, 0.3)
            assert abs(cone.distance(p, x) - 0.3 * d) <= 1e-9

    def test_curvature_bound_classification(self):
        assert FlatCone(2.5 * math.pi).curvature_bound == 0.0
        assert math.isinf(FlatCone(1.5 * math.pi).curvature_bound)


def unfolded_sector(cone, anchors):
    """Anchors (r, phi) in a sector narrower than pi, as cone points and as
    plane points of the sector unfolded from its first ray."""
    pts = [cone.point(r, phi) for r, phi in anchors]
    base = anchors[0][1]
    plane = np.array([
        [p.r * math.cos((p.phi - base) % cone.theta), p.r * math.sin((p.phi - base) % cone.theta)]
        for p in pts
    ])
    return pts, plane, base


def sector_error(cone, x, target, base):
    """Plane distance from cone point x, unfolded like its anchors, to target."""
    a = (x.phi - base) % cone.theta
    return float(np.linalg.norm([x.r * math.cos(a) - target[0], x.r * math.sin(a) - target[1]]))


def test_cone_barycenter_and_fermat_point_match_the_unfolded_sector():
    """Away from the apex of a 5pi/2 cone, three anchors spanning 2.1 rad
    span a flat convex region, so both minimizers are the planar ones.
    Measured errors: 1.1e-8 (barycenter) and 1.2e-8 (Fermat point)."""
    cone = FlatCone(2.5 * math.pi)
    pts, plane, base = unfolded_sector(cone, [(0.8, 0.3), (1.0, 1.2), (0.7, 2.4)])
    fermat = newton_fermat_reference(plane, np.full(3, 1.0 / 3.0), plane.mean(axis=0))
    assert sector_error(cone, cone.barycenter(pts), plane.mean(axis=0), base) <= 1e-7
    assert sector_error(cone, cone.fermat_point(pts), fermat, base) <= 1e-7


@pytest.mark.xfail(raises=AssertionError, strict=False,
                   reason="the geodesic coordinate descent stalls at 6.8e-4")
def test_cone_barycenter_of_a_narrow_fan_reaches_the_planar_one():
    """Anchors whose directions from the minimizer are close: the descent
    zigzags and stops at its 300-round cap (about 1.7 s)."""
    cone = FlatCone(2.5 * math.pi)
    pts, plane, base = unfolded_sector(cone, [(1.0, 4.0), (0.7, 4.9), (0.9, 5.8)])
    assert sector_error(cone, cone.barycenter(pts), plane.mean(axis=0), base) <= 1e-7


class TestConfig:
    def test_round_trip_backends(self):
        sp = space_from_config({"backend": "euclidean", "dim": 3})
        assert isinstance(sp, EuclideanSpace)
        p = point_from_config(sp, [1.0, 2.0, 3.0])
        assert np.allclose(p, [1.0, 2.0, 3.0])
        tree = space_from_config(
            {"backend": "tree", "edges": [["o", "a", 1.0], ["o", "b", 1.0]]}
        )
        tp = point_from_config(tree, ["o", "a", 0.5])
        assert abs(tree.distance(tp, tree.vertex_point("a")) - 0.5) <= 1e-12

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            space_from_config({"backend": "nope"})


@settings(max_examples=100, deadline=None)
@given(
    theta=st.floats(0.5 * math.pi, 3.0 * math.pi),
    r1=st.floats(0.01, 2.0),
    r2=st.floats(0.01, 2.0),
    a1=st.floats(0.0, 1.0),
    a2=st.floats(0.0, 1.0),
)
def test_cone_triangle_inequality_with_apex(theta, r1, r2, a1, a2):
    cone = FlatCone(theta)
    p = cone.point(r1, a1 * theta)
    q = cone.point(r2, a2 * theta)
    d = cone.distance(p, q)
    assert d <= r1 + r2 + 1e-12
    assert d >= abs(r1 - r2) - 1e-12

"""Target-space backends: Euclidean, model surfaces, trees, flat cones."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catdisc.errors import BackendMismatchError, OutOfConvexityError
from catdisc.spaces import (
    EuclideanSpace,
    FlatCone,
    MetricTree,
    ModelSpace,
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
        norm = np.linalg.norm
        calls = []

        def counting_norm(*args, **kwargs):
            calls.append(1)
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        f = EuclideanSpace(2).fermat_point(list(pts))
        monkeypatch.undo()
        assert len(calls) <= 500
        # Reference optimum: undamped Newton on sum |x - a_i| from a point
        # near the minimizer.
        x = np.array([0.5297, 0.7728])
        for _ in range(50):
            d = norm(pts - x, axis=1)
            U = (x - pts) / d[:, None]
            hess = sum((np.eye(2) - np.outer(u, u)) / di for u, di in zip(U, d))
            x = x - np.linalg.solve(hess, U.sum(axis=0))
        assert norm(U.sum(axis=0)) <= 1e-12
        assert norm(f - x) <= 1e-12

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
        assert abs(t._vertex_distance_to("o", mid)) <= 1e-12

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
        assert abs(t._vertex_distance_to("o", b) - best) <= 1e-4

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
    got = tree.distance_arrays(tree.as_array(P), tree.as_array(Q))
    want = np.array([tree.distance(p, q) for p, q in zip(P, Q)])
    assert np.abs(got - want).max() <= 1e-12
    assert np.array_equal(tree.distance_arrays(tree.as_array(P), tree.as_array(P)),
                          np.zeros(len(P)))


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

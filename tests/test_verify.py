"""Thinness certification: self-consistency, cone controls, induced metrics."""

import math

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from catdisc import verify
from catdisc.constructions import (
    HarmonicSpec,
    RuledDiscSpec,
    harmonic_relax,
    ruled_disc_map,
)
from catdisc.errors import GeometryError
from catdisc.mesh import MappedGraph, grid_mesh, triangle_fan
from catdisc.model import Kappa, build_comparison_triangle
from catdisc.spaces import EuclideanSpace, FlatCone, MetricTree, ModelSpace, TreePoint
from catdisc.steiner import _batch_distance, _batch_geodesic
from catdisc.verify import (
    CHORD_SAMPLES,
    RELAX_LEVELS,
    RELAX_PASSES,
    RELAX_SHRINK,
    InducedGraphSpace,
    _resample,
    _compared_distances,
    certify_cat,
    certify_induced,
    recompare,
    thinness_defect,
)


def cone_unfold_distance(theta, p, q):
    """Cone distance by unfolding: min of the direct developed chord and the
    route through the apex.  Independent of the FlatCone implementation."""
    r1, phi1 = p
    r2, phi2 = q
    dphi = abs(phi1 - phi2) % theta
    dphi = min(dphi, theta - dphi)
    through_apex = r1 + r2
    if dphi >= math.pi:
        return through_apex
    direct = math.sqrt(r1 * r1 + r2 * r2 - 2 * r1 * r2 * math.cos(dphi))
    return min(direct, through_apex)


@pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
def test_model_space_self_comparison(k):
    space = ModelSpace(k)
    report = certify_cat(space, Kappa(k), triple_budget=40, grid=8, seed=3)
    assert report.passed
    assert abs(report.max_defect) <= 1e-9


def test_wide_cone_passes_flat_comparison():
    cone = FlatCone(2.5 * math.pi)
    report = certify_cat(cone, Kappa(0.0), triple_budget=60, grid=8, seed=1,
                         tolerance=1e-6)
    assert report.passed


def test_narrow_cone_fails_with_oracle_confirmed_defect():
    theta = 1.5 * math.pi
    cone = FlatCone(theta)
    report = certify_cat(cone, Kappa(0.0), triple_budget=60, grid=8, seed=1,
                         tolerance=1e-6)
    assert not report.passed
    assert report.max_defect > 0.05

    # Frozen oracle for one triple that encloses the apex (equally spaced
    # at radius 1): measured side lengths by explicit unfolding, then the
    # flat comparison by the law of cosines.  Each angular gap is theta/3 =
    # pi/2, so every side unfolds to sqrt(2) and the comparison triangle is
    # equilateral; its midpoints sit sqrt(2)/2 apart, while on the cone the
    # two side midpoints at radius sqrt(2)/2 are a quarter turn apart and
    # measure sqrt(2) * sqrt(2)/2 = 1.
    angles = (0.0, theta / 3.0, 2.0 * theta / 3.0)
    p, q, r = (cone.point(1.0, a) for a in angles)
    for u, v, got in (
        (0, 1, cone.distance(p, q)),
        (0, 2, cone.distance(p, r)),
        (1, 2, cone.distance(q, r)),
    ):
        want = cone_unfold_distance(theta, (1.0, angles[u]), (1.0, angles[v]))
        assert abs(want - math.sqrt(2.0)) <= 1e-12
        assert abs(got - want) <= 1e-12
    samples = thinness_defect(cone, Kappa(0.0), (p, q, r), grid=9)
    assert samples is not None
    mids = [s for s in samples if abs(s.s - 0.5) < 1e-9 and abs(s.t - 0.5) < 1e-9]
    assert len(mids) == 1
    want_measured = cone_unfold_distance(
        theta,
        (math.sqrt(2.0) / 2.0, theta / 6.0),
        (math.sqrt(2.0) / 2.0, -theta / 6.0),
    )
    assert abs(want_measured - 1.0) <= 1e-12
    assert abs(mids[0].measured - want_measured) <= 1e-9
    assert abs(mids[0].compared - math.sqrt(2.0) / 2.0) <= 1e-9
    assert mids[0].defect > 0.05


def test_recompare_defects_monotone_in_kappa():
    report, samples = certify_cat(
        EuclideanSpace(3), Kappa(0.0), triple_budget=10, grid=4, seed=7,
        collect_samples=True,
    )
    assert report.passed
    # Restrict to triples small enough for the kappa = 1 comparison triangle.
    samples = [s for s in samples if sum(s.sides) < 0.9 * 2.0 * math.pi]
    assert samples
    low = recompare(samples, Kappa(-1.0))
    high = recompare(samples, Kappa(1.0))
    for s_low, s_mid, s_high in zip(low, samples, high):
        # A higher curvature bound is a weaker condition: its comparison
        # distance is at least as large, so its defect is no larger.
        assert s_low.compared <= s_mid.compared + 1e-12
        assert s_mid.compared <= s_high.compared + 1e-12
        assert s_high.defect <= s_mid.defect + 1e-12
        assert s_mid.defect <= s_low.defect + 1e-12


def law_of_cosines_distance(k, sides, s, t):
    """Distance between the points at fractions s on AB and t on AC of the
    M_k triangle with sides (a, b, c): the third side of the triangle with
    sides s*c and t*b enclosing the corner angle alpha at A."""
    a, b, c = sides
    x, y = s * c, t * b
    clamp = lambda v: min(max(v, -1.0), 1.0)
    if k == 0.0:
        cos_alpha = clamp((b * b + c * c - a * a) / (2.0 * b * c))
        return math.sqrt(max(x * x + y * y - 2.0 * x * y * cos_alpha, 0.0))
    if k > 0.0:
        cos_alpha = clamp(
            (math.cos(a) - math.cos(b) * math.cos(c)) / (math.sin(b) * math.sin(c))
        )
        return math.acos(clamp(
            math.cos(x) * math.cos(y) + math.sin(x) * math.sin(y) * cos_alpha
        ))
    cos_alpha = clamp(
        (math.cosh(b) * math.cosh(c) - math.cosh(a))
        / (math.sinh(b) * math.sinh(c))
    )
    return math.acosh(max(
        math.cosh(x) * math.cosh(y) - math.sinh(x) * math.sinh(y) * cos_alpha,
        1.0,
    ))


@pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize(
    "sides, degeneracy",
    [((0.9, 1.1, 0.7), None), ((1.0, 0.6, 0.4), "segment"),
     ((0.5, 1.2, 0.7), "segment")],
)
def test_compared_distances_match_law_of_cosines(k, sides, degeneracy):
    kappa = Kappa(k)
    assert build_comparison_triangle(kappa, *sides).degeneracy == degeneracy
    fracs = [0.0, 0.2, 0.5, 0.85, 1.0]
    S = [s for s in fracs for _ in fracs]
    T = [t for _ in fracs for t in fracs]
    got = _compared_distances(kappa, sides, S, T)
    for s, t, d in zip(S, T, got):
        assert abs(d - law_of_cosines_distance(k, sides, s, t)) <= 1e-12


def test_compared_distances_reject_fractions_outside_unit_interval():
    kappa, sides = Kappa(1.0), (0.9, 1.1, 0.7)
    edge = _compared_distances(kappa, sides, [1.0 + 1e-13, -1e-13], [0.5, 0.5])
    assert np.array_equal(
        edge, _compared_distances(kappa, sides, [1.0, 0.0], [0.5, 0.5])
    )
    for S, T in (([1.5], [0.5]), ([0.5], [-0.1]), ([0.2, math.nan], [0.5, 0.5])):
        with pytest.raises(ValueError):
            _compared_distances(kappa, sides, S, T)


@pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
def test_recompare_at_the_same_kappa_reproduces_compared(k):
    _, samples = certify_cat(
        ModelSpace(k), Kappa(k), triple_budget=8, grid=6, seed=4,
        collect_samples=True,
    )
    again = recompare(samples, Kappa(k))
    assert again == samples


def test_recompare_of_a_non_grid_subset_matches_the_full_list():
    _, samples = certify_cat(
        EuclideanSpace(3), Kappa(0.0), triple_budget=10, grid=4, seed=7,
        collect_samples=True,
    )
    subset = [
        s for s in samples[::3] if sum(s.sides) < 0.9 * 2.0 * math.pi
    ]
    assert 0 < len(subset) < len(samples)
    for k in (-1.0, 1.0):
        full = dict(zip(map(id, samples), recompare(samples, Kappa(k))))
        assert recompare(subset, Kappa(k)) == [full[id(s)] for s in subset]


class NaNPairSpace(EuclideanSpace):
    """The plane with one fixed triple; the distance between one pair of its
    geodesic grid points is NaN."""

    def __init__(self, triple, bad_pair):
        super().__init__(2)
        self.triple = [np.asarray(p, dtype=float) for p in triple]
        self.bad_pair = bad_pair
        self.drawn = 0

    def random_point(self, rng):
        self.drawn += 1
        return self.triple[(self.drawn - 1) % 3]

    def distance(self, p, q):
        for u, v in (self.bad_pair, self.bad_pair[::-1]):
            if np.array_equal(p, u) and np.array_equal(q, v):
                return math.nan
        return super().distance(p, q)


def test_non_finite_measured_distance_is_an_error():
    triple = ((0.0, 0.0), (1.0, 0.1), (0.2, 0.9))
    flat = EuclideanSpace(2)
    p, q, r = (np.asarray(v) for v in triple)
    grid = 6
    # A pair late in the first triple's grid, so a NaN is not the first defect.
    bad = (flat.geodesic(p, q, 4 / (grid + 1)), flat.geodesic(p, r, 3 / (grid + 1)))
    with pytest.raises(GeometryError, match="non-finite measured"):
        certify_cat(NaNPairSpace(triple, bad), Kappa(0.0), triple_budget=3,
                    grid=grid, seed=0)
    assert certify_cat(
        NaNPairSpace(triple, (p + 5.0, q + 5.0)), Kappa(0.0), triple_budget=3,
        grid=grid, seed=0,
    ).passed


def test_degenerate_and_oversized_triples_skipped():
    space = ModelSpace(1.0)
    p = space.point((0.0, 0.0))
    q = space.point((0.3, 0.0))
    assert thinness_defect(space, Kappa(1.0), (p, p, q), grid=4) is None
    # A spherical triangle's perimeter tops out at 2 pi, attained on a great
    # circle; the equally spaced equilateral sits exactly at the bound.
    big = (
        space.point((0.0, 0.0)),
        space.point((2.0 * math.pi / 3.0, 0.0)),
        space.point((-2.0 * math.pi / 3.0, 0.0)),
    )
    assert thinness_defect(space, Kappa(1.0), big, grid=4) is None


def flat_identity_grid(n):
    sp = EuclideanSpace(2)
    mesh = grid_mesh(n)
    return MappedGraph(mesh, sp, [np.array(c) for c in mesh.coords])


def test_induced_graph_space_flat_grid_distances():
    oracle = InducedGraphSpace(flat_identity_grid(4), steiner=4)
    # Corner indices of the 5x5 grid.
    d = oracle.distance(0, 24)
    assert abs(d - math.sqrt(2.0)) <= 2e-3
    assert oracle.distance(0, 0) == 0.0
    assert abs(oracle.distance(0, 4) - 1.0) <= 1e-9


def test_induced_geodesic_midpoint_additivity():
    oracle = InducedGraphSpace(flat_identity_grid(4), steiner=4)
    mid = oracle.geodesic(0, 24, 0.5)
    d_total = oracle.distance(0, 24)
    d1 = oracle.distance(0, mid)
    d2 = oracle.distance(mid, 24)
    assert abs(d1 + d2 - d_total) <= 2e-3
    oracle.clear_temp()


def test_induced_certification_flat_grid_near_zero_defect():
    mg = flat_identity_grid(4)
    report = certify_induced(mg, Kappa(0.0), triple_budget=10, grid=6, seed=2,
                             steiner=4, tolerance=5e-3)
    assert report.passed


def test_tree_target_edges_get_branch_point_nodes():
    tree = MetricTree([("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)])
    pa = tree.geodesic(tree.vertex_point("a"), tree.vertex_point("o"), 0.4)
    pb = tree.geodesic(tree.vertex_point("b"), tree.vertex_point("o"), 0.4)
    fracs = tree.geodesic_breakpoints(pa, pb)
    assert len(fracs) == 1
    assert abs(fracs[0] - 0.5) <= 1e-12
    # Same-edge geodesics have no interior vertex crossings.
    assert tree.geodesic_breakpoints(pa, tree.vertex_point("a")) == []

    # A two-triangle strip mapped across the branch point: the oracle places
    # a node exactly at the branch point, so the induced distance between the
    # two leg points equals the tree distance.
    mesh = grid_mesh(1)
    imgs = [pa, pb, pa, pb]
    mg = MappedGraph(mesh, tree, imgs)
    oracle = InducedGraphSpace(mg, steiner=2)
    assert abs(oracle.distance(0, 1) - tree.distance(pa, pb)) <= 1e-12


def test_certification_reports_bit_identical_across_reruns():
    mg = flat_identity_grid(3)
    r1 = certify_induced(mg, Kappa(0.0), triple_budget=6, grid=4, seed=9)
    r2 = certify_induced(mg, Kappa(0.0), triple_budget=6, grid=4, seed=9)
    assert r1.to_json() == r2.to_json()
    s1 = certify_cat(ModelSpace(-1.0), Kappa(-1.0), triple_budget=10, grid=6,
                     seed=5)
    s2 = certify_cat(ModelSpace(-1.0), Kappa(-1.0), triple_budget=10, grid=6,
                     seed=5)
    assert s1.to_json() == s2.to_json()


def test_certification_without_evaluated_triples_is_inconclusive():
    # Every triple breaks the kappa = 400 perimeter rule and is skipped.
    report = certify_cat(ModelSpace(1.0), Kappa(400.0), triple_budget=20)
    assert report.n_triples == 0 and report.n_samples == 0
    assert report.verdict == "inconclusive"
    assert not report.passed
    # Probes that snap to a repeated vertex are skipped the same way.
    report = certify_induced(
        flat_identity_grid(2), Kappa(0.0), steiner=1,
        probes=[[(0.0, 0.0), (0.01, 0.0), (1.0, 1.0)]],
    )
    assert (report.n_triples, report.n_skipped) == (0, 1)
    assert report.verdict == "inconclusive"


def brute_force_locate(oracle, pts):
    """Barycentrics of every point in every triangle; the first triangle with
    the largest smallest coordinate wins."""
    inv, p0 = oracle._inv_stack, oracle._p0_stack
    d0 = pts[:, None, 0] - p0[None, :, 0]
    d1 = pts[:, None, 1] - p0[None, :, 1]
    s = inv[None, :, 0, 0] * d0 + inv[None, :, 0, 1] * d1
    t = inv[None, :, 1, 0] * d0 + inv[None, :, 1, 1] * d1
    bary = np.stack([1.0 - (s + t), s, t], axis=2)
    best = np.argmax(bary.min(axis=2), axis=1)
    return best, bary[np.arange(len(pts)), best]


def table_locator(oracle):
    """The point locator as it was before per-cell solver stacks: a (cell ->
    candidates) table filed triangle by triangle, and every candidate's
    solver gathered separately, (points x kmax)."""
    coords = np.asarray(oracle.mg.mesh.coords, dtype=float)[:, :2]
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    cs = max(math.sqrt(float(np.prod(hi - lo)) / len(oracle._tris)), 1e-12)
    nx = max(1, int(np.ceil((hi[0] - lo[0]) / cs)))
    ny = max(1, int(np.ceil((hi[1] - lo[1]) / cs)))
    cells = {}
    for ti, tri in enumerate(oracle._tris):
        pts = coords[list(tri)]
        i0, j0 = np.floor((pts.min(axis=0) - lo) / cs).astype(int)
        i1, j1 = np.floor((pts.max(axis=0) - lo) / cs).astype(int)
        for ci in range(max(i0, 0), min(i1, nx - 1) + 1):
            for cj in range(max(j0, 0), min(j1, ny - 1) + 1):
                cells.setdefault((ci, cj), []).append(ti)
    kmax = max(len(v) for v in cells.values())
    table = np.full((nx, ny, kmax), -1, dtype=int)
    for (ci, cj), tris in cells.items():
        table[ci, cj, : len(tris)] = tris

    def locate(pts):
        pts = np.asarray(pts, dtype=float)
        ij = np.floor((pts - lo) / cs).astype(int)
        cand = table[np.clip(ij[:, 0], 0, nx - 1), np.clip(ij[:, 1], 0, ny - 1)]
        valid = cand >= 0
        safe = np.where(valid, cand, 0)
        diff = pts[:, None, :] - oracle._p0_stack[safe]
        st = np.einsum("nkij,nkj->nki", oracle._inv_stack[safe], diff)
        bary = np.concatenate([1.0 - st.sum(axis=2, keepdims=True), st], axis=2)
        low = np.minimum(np.minimum(bary[:, :, 0], bary[:, :, 1]), bary[:, :, 2])
        best = np.argmax(np.where(valid, low, -np.inf), axis=1)
        rows = np.arange(len(pts))
        return cand[rows, best], bary[rows, best]

    return locate


@pytest.mark.parametrize("mesh", [grid_mesh(6), grid_mesh(16), triangle_fan(7)],
                         ids=["grid6", "grid16", "fan7"])
def test_point_locator_matches_brute_force(mesh):
    oracle = InducedGraphSpace(
        MappedGraph(mesh, EuclideanSpace(2), [np.array(c) for c in mesh.coords]),
        steiner=1,
    )
    rng = np.random.default_rng(11)
    xy = mesh.coords
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    pts = np.vstack([
        rng.uniform(lo, hi, size=(5000, 2)),
        xy,
        0.5 * (xy[mesh.edges[:, 0]] + xy[mesh.edges[:, 1]]),
        xy + 1e-10 * rng.normal(size=xy.shape),
        # Outside the disc, also beyond the locator's cells.
        rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), size=(2000, 2)),
    ])
    want_tri, want_bary = brute_force_locate(oracle, pts)
    got_tri, got_bary = oracle._locate_many(pts)
    inside = want_bary.min(axis=1) >= -1e-9
    assert 0.5 * len(pts) < inside.sum() < len(pts) - 1000
    np.testing.assert_array_equal(got_tri[inside], want_tri[inside])
    np.testing.assert_array_equal(got_bary[inside], want_bary[inside])
    # Outside points too: the per-cell solver stacks give every point the
    # same candidate, in the same order, as a gather per candidate.
    table_tri, table_bary = table_locator(oracle)(pts)
    np.testing.assert_array_equal(got_tri, table_tri)
    np.testing.assert_array_equal(got_bary, table_bary)


def per_triangle_segment_weights(oracle, S, E, m):
    """Segment weights by one interpolation call per triangle, with the
    triangle's corners broadcast over its points."""
    k = 0.0 if isinstance(oracle.space, EuclideanSpace) else oracle.space.kappa.value
    lam = np.linspace(0.0, 1.0, m + 1)
    XY = (1.0 - lam)[None, :, None] * S[:, None, :] + lam[None, :, None] * E[:, None, :]
    tri_idx, bary_sel = oracle._locate_many(XY.reshape(-1, 2))
    pts = None
    for ti in np.unique(tri_idx):
        mask = tri_idx == ti
        bary = np.clip(bary_sel[mask], 0.0, None)
        bary /= bary.sum(axis=1, keepdims=True)
        imgs = [oracle.mg.images[v] for v in oracle._tris[ti]]
        corners = np.array([getattr(p, "coords", p) for p in imgs], dtype=float)
        X, Y, Z = (np.broadcast_to(c, (len(bary), len(c))) for c in corners)
        b0, b1, b2 = bary[:, 0], bary[:, 1], bary[:, 2]
        M = _batch_geodesic(k, X, Y, b1 / np.maximum(b0 + b1, 1e-15))
        group = _batch_geodesic(k, M, Z, b2)
        if pts is None:
            pts = np.empty((len(tri_idx), group.shape[1]))
        pts[mask] = group
    pts = pts.reshape(len(S), m + 1, -1)
    d = pts.shape[2]
    segs = _batch_distance(
        k, pts[:, :-1].reshape(-1, d), pts[:, 1:].reshape(-1, d)
    ).reshape(len(S), m)
    return segs.sum(axis=1)


def _model_ruled_map(k, n, span, lat):
    sp = ModelSpace(k)
    eta0 = tuple(sp.point((span * (i / 8 - 0.5), -lat)) for i in range(9))
    eta1 = tuple(sp.point((span * (i / 8 - 0.5), lat)) for i in range(9))
    return ruled_disc_map(RuledDiscSpec(eta0=eta0, eta1=eta1, grid=(n, n), space=sp))


@pytest.mark.parametrize("target", ["skew", "sphere", "hyperbolic"])
def test_segment_weights_equal_the_per_triangle_loop(target):
    if target == "skew":
        mg = ruled_disc_map(RuledDiscSpec(
            eta0=(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
            eta1=(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.2])),
            grid=(6, 6), space=EuclideanSpace(3),
        ))
    elif target == "sphere":
        mg = _model_ruled_map(1.0, 6, 0.6 * math.pi, 0.75)
    else:
        mg = _model_ruled_map(-1.0, 6, 1.0, 0.5)
    oracle = InducedGraphSpace(mg, steiner=2)
    rng = np.random.default_rng(4)
    S = rng.uniform(0.0, 1.0, size=(60, 2))
    E = rng.uniform(0.0, 1.0, size=(60, 2))
    want = per_triangle_segment_weights(oracle, S, E, CHORD_SAMPLES)
    assert np.array_equal(oracle._xy_segment_weights(S, E), want)


def edge_scan_rows(tree, corners, W):
    """Frechet means by minimizing the piecewise-quadratic energy on every
    tree edge, vectorized over weight rows (the reference interpolant)."""
    best_val = np.full(len(W), np.inf)
    best_edge = np.zeros(len(W), dtype=int)
    best_t = np.zeros(len(W))
    for ei, (u, v, w_e) in enumerate(tree.edges):
        breaks, pieces = tree._edge_pieces(u, v, w_e, corners)
        knots = sorted({0.0, w_e, *(tb for tb in breaks if 0.0 < tb < w_e)})
        for lo, hi in zip(knots, knots[1:]):
            mid = 0.5 * (lo + hi)
            sc = np.array([p[:2] if mid <= tb else p[2:] for tb, p in zip(breaks, pieces)])
            s, c = sc[:, 0], sc[:, 1]
            a, b, c0 = W @ (s * s), 2.0 * (W @ (s * c)), W @ (c * c)
            t = np.where(a > 0.0, -b / (2.0 * np.maximum(a, 1e-300)), mid)
            t = np.clip(t, lo, hi)
            val = (a * t + b) * t + c0
            upd = val < best_val
            best_val[upd], best_edge[upd], best_t[upd] = val[upd], ei, t[upd]
    return [TreePoint(*tree.edges[e][:2], float(t)) for e, t in zip(best_edge, best_t)]


def edge_scan_segment_weights(oracle, S, E, m):
    """Segment weights through the edge scan, one triangle at a time, and
    the scalar polyline length."""
    tree = oracle.space
    lam = np.linspace(0.0, 1.0, m + 1)
    XY = (1.0 - lam)[None, :, None] * S[:, None, :] + lam[None, :, None] * E[:, None, :]
    tri_idx, bary = oracle._locate_many(XY.reshape(-1, 2))
    bary = np.clip(bary, 0.0, None)
    bary /= bary.sum(axis=1, keepdims=True)
    pts = [None] * len(bary)
    for ti in np.unique(tri_idx):
        idxs = np.flatnonzero(tri_idx == ti)
        corners = [oracle.mg.images[v] for v in oracle._tris[ti]]
        for i, p in zip(idxs, edge_scan_rows(tree, corners, bary[idxs])):
            pts[i] = p
    return np.array([
        tree.curve_length(pts[c * (m + 1):(c + 1) * (m + 1)]) for c in range(len(S))
    ])


def harmonic_tripod_map(n):
    tree = MetricTree([("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)])
    mesh = grid_mesh(n)
    ca, cb, cc, co = (tree.vertex_point(leg) for leg in ("a", "b", "c", "o"))
    trace = {}
    for v in np.flatnonzero(mesh.boundary):
        a, t = mesh.coords[v]
        if t == 0.0:
            trace[int(v)] = tree.geodesic(ca, cb, a)
        elif t == 1.0:
            trace[int(v)] = tree.geodesic(co, cc, a)
        elif a == 0.0:
            trace[int(v)] = tree.geodesic(ca, co, t)
        else:
            trace[int(v)] = tree.geodesic(cb, cc, t)
    return harmonic_relax(HarmonicSpec(mesh, trace, tree)).graph


def test_tree_segment_weights_match_the_edge_scan_path():
    oracle = InducedGraphSpace(harmonic_tripod_map(6), steiner=2)
    rng = np.random.default_rng(8)
    S = rng.uniform(0.0, 1.0, size=(60, 2))
    E = rng.uniform(0.0, 1.0, size=(60, 2))
    # Segments along mesh edges and through vertices, where weights vanish.
    S[:10] = oracle.node_xy[rng.integers(oracle.n_vertices, size=10)]
    E[:5] = np.clip(S[:5] + np.array([1.0 / 6.0, 0.0]), 0.0, 1.0)
    got = oracle._xy_segment_weights(S, E)
    want = edge_scan_segment_weights(oracle, S, E, CHORD_SAMPLES)
    assert np.abs(got - want).max() <= 1e-12


def reference_segment_weights(oracle, locate, S, E):
    """`_xy_segment_weights` as it was: consecutive runs of located points,
    every segment located and interpolated on its own."""
    m = CHORD_SAMPLES
    lam = np.linspace(0.0, 1.0, m + 1)
    XY = (1.0 - lam)[None, :, None] * S[:, None, :] + lam[None, :, None] * E[:, None, :]
    tri_idx, bary = locate(XY.reshape(-1, 2))
    bary = np.clip(bary, 0.0, None)
    bary /= bary.sum(axis=1, keepdims=True)
    pts = oracle._images_at(tri_idx, bary)
    n_chains = len(bary) // (m + 1)
    space = oracle.space
    if isinstance(space, FlatCone):
        return np.array([
            space.curve_length(pts[ci * (m + 1):(ci + 1) * (m + 1)])
            for ci in range(n_chains)
        ])
    P = pts.reshape(n_chains, m + 1, -1)
    X, Y = P[:, :-1].reshape(-1, P.shape[2]), P[:, 1:].reshape(-1, P.shape[2])
    if isinstance(space, MetricTree):
        return space.distance_arrays(X, Y).reshape(n_chains, m).sum(axis=1)
    k = 0.0 if isinstance(space, EuclideanSpace) else space.kappa.value
    return _batch_distance(k, X, Y).reshape(n_chains, m).sum(axis=1)


def reference_relax_batch(oracle, locate, pts, step0):
    """`_relax_batch` as it was: each half-sweep locates the candidates, then
    measures the 10m probe segments through `reference_segment_weights`."""
    n_curves, n_pts, _ = pts.shape
    n_seg = n_pts - 1
    rel_offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    step = step0
    idle_levels = 0
    all_idxs = np.arange(1, n_seg)
    for _ in range(RELAX_LEVELS):
        moved = False
        for _pass in range(RELAX_PASSES):
            for parity in (1, 0):
                idxs = all_idxs[all_idxs % 2 == parity]
                prev = pts[:, idxs - 1].reshape(-1, 2)
                nxt = pts[:, idxs + 1].reshape(-1, 2)
                chord = nxt - prev
                norms = np.linalg.norm(chord, axis=1, keepdims=True)
                nrm = np.column_stack([-chord[:, 1], chord[:, 0]])
                nrm /= np.maximum(norms, 1e-15)
                base = pts[:, idxs].reshape(-1, 2)
                m = len(base)
                cands = (
                    base[None, :, :]
                    + (rel_offsets * step)[:, None, None] * nrm[None, :, :]
                ).reshape(-1, 2)
                _, bb = locate(cands)
                inside = bb.min(axis=1) >= -1e-9
                w = reference_segment_weights(
                    oracle, locate,
                    np.vstack([np.tile(prev, (len(rel_offsets), 1)), cands]),
                    np.vstack([cands, np.tile(nxt, (len(rel_offsets), 1))]),
                )
                half = len(cands)
                vals = (w[:half] + w[half:]).reshape(len(rel_offsets), m)
                vals[~inside.reshape(len(rel_offsets), m)] = np.inf
                best = np.argmin(vals, axis=0)
                ar = np.arange(m)
                off = rel_offsets[best] * step
                inner = (best >= 1) & (best <= len(rel_offsets) - 2)
                bi = np.where(inner, best, 2)
                vm = np.nan_to_num(vals[bi - 1, ar], posinf=0.0)
                vb = vals[bi, ar]
                vp = np.nan_to_num(vals[bi + 1, ar], posinf=0.0)
                finite = np.isfinite(vals[bi - 1, ar]) & np.isfinite(vals[bi + 1, ar])
                denom = vm - 2.0 * vb + vp
                ok = inner & finite & (denom > 1e-18)
                shift = np.where(ok, 0.5 * (vm - vp) / np.where(ok, denom, 1.0), 0.0)
                probe = 0.5 * step
                off = off + np.clip(shift * probe, -probe, probe)
                off = np.where(np.isfinite(vals[best, ar]), off, 0.0)
                sor = np.clip(1.8 * off, -step, step)
                _, sb = locate(base + sor[:, None] * nrm)
                off = np.where(sb.min(axis=1) >= -1e-9, sor, off)
                if np.max(np.abs(off)) > 1e-4 * oracle._disc_h:
                    moved = True
                pts[:, idxs] = (base + off[:, None] * nrm).reshape(n_curves, len(idxs), 2)
        idle_levels = 0 if moved else idle_levels + 1
        if idle_levels >= 2 and step < 0.05 * oracle._disc_h:
            break
        step *= RELAX_SHRINK
    return pts


def cone_fan_map(k, theta):
    cone = FlatCone(theta)
    imgs = [cone.point(0.0, 0.0)] + [cone.point(1.0, i * theta / k) for i in range(k)]
    return MappedGraph(triangle_fan(k), cone, imgs)


@pytest.mark.parametrize("target", ["skew", "sphere", "hyperbolic", "tripod", "cone"])
def test_relaxation_is_bit_identical_to_the_per_segment_sweep(target):
    n_curves = 6
    if target == "skew":
        mg = ruled_disc_map(RuledDiscSpec(
            eta0=(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
            eta1=(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.2])),
            grid=(6, 6), space=EuclideanSpace(3),
        ))
    elif target == "sphere":
        mg = _model_ruled_map(1.0, 6, 0.6 * math.pi, 0.75)
    elif target == "hyperbolic":
        mg = _model_ruled_map(-1.0, 6, 1.0, 0.5)
    elif target == "tripod":
        mg = harmonic_tripod_map(6)
    else:  # per-point interpolant and curve length
        mg, n_curves = cone_fan_map(6, 1.5 * math.pi), 2
    oracle = InducedGraphSpace(mg, steiner=2)
    locate = table_locator(oracle)
    rng = np.random.default_rng(5)
    # Straight starts between mesh vertices: points on triangle corners and
    # edges, and probes that leave the disc at the boundary.
    ends = oracle.node_xy[rng.integers(oracle.n_vertices, size=(n_curves, 2))]
    lam = np.linspace(0.0, 1.0, 9)
    start = (1.0 - lam)[None, :, None] * ends[:, None, 0] + lam[None, :, None] * ends[:, None, 1]
    got, want = start.copy(), start.copy()
    for n_seg, step in ((8, 0.5), (16, 0.25)):
        got = oracle._relax_batch([(_resample(got, n_seg), step * oracle._disc_h, n_seg)])[0]
        want = reference_relax_batch(oracle, locate, _resample(want, n_seg), step * oracle._disc_h)
        assert np.array_equal(got, want)
    assert not np.array_equal(got, _resample(start, 16))
    S, E = got[:, :-1].reshape(-1, 2), got[:, 1:].reshape(-1, 2)
    assert np.array_equal(
        oracle._xy_segment_weights(S, E), reference_segment_weights(oracle, locate, S, E)
    )


class PerCallOracle(InducedGraphSpace):
    """The oracle as it was before lockstep relaxation: a block of one
    source is one `distances_from` call, any other one `distance_rows` call;
    each vertex-pair curve relaxes alone, and each relaxation stage runs
    `reference_relax_batch`, one idle rule for its whole batch.
    `relaxations` records (n_target, levels of each stage) per relaxation."""

    def __init__(self, mg, steiner):
        super().__init__(mg, steiner)
        self.relaxations = []

    def distance_blocks(self, blocks):
        return [
            [self.ref_distances_from(s[0], t)] if len(s) == 1 else self.ref_distance_rows(s, t)
            for s, t in blocks
        ]

    def ref_distances_from(self, p, targets):
        p, targets = int(p), [int(q) for q in targets]
        if p >= self.n_vertices or any(q >= self.n_vertices for q in targets):
            return self.ref_distance_rows([p], targets)[0]
        dist, _ = self._solve(p)
        out = [
            0.0 if q == p else min(float(dist[q]), float(self._shorten_curve(p, q)[1][-1]))
            for q in targets
        ]
        return self._fiber_post([p], targets, [out])[0]

    def ref_distance_rows(self, sources, targets):
        sources = [int(s) for s in sources]
        targets = [int(q) for q in targets]
        graph_rows = []
        for s in sources:
            dist, _ = self._solve(s)
            graph_rows.append([float(dist[q]) for q in targets])
        S = np.repeat(np.array([self._node_pos(s) for s in sources]), len(targets), axis=0)
        E = np.tile(np.array([self._node_pos(q) for q in targets]), (len(sources), 1))
        same = (np.linalg.norm(E - S, axis=1) < 1e-14).reshape(len(sources), -1)
        span = np.linalg.norm(E - S, axis=1).max()
        n_target = int(np.clip(np.ceil(span / (0.75 * self._disc_h)), 8, 96))
        lam = np.linspace(0.0, 1.0, min(8, n_target) + 1)
        pts = (1.0 - lam)[None, :, None] * S[:, None, :] + lam[None, :, None] * E[:, None, :]
        pts = self.ref_relax(pts, n_target)
        w = self._xy_segment_weights(pts[:, :-1].reshape(-1, 2), pts[:, 1:].reshape(-1, 2))
        lens = w.reshape(len(pts), -1).sum(axis=1).reshape(len(sources), len(targets))
        out = [
            [0.0 if same[i][j] else min(graph_rows[i][j], float(lens[i][j]))
             for j in range(len(targets))]
            for i in range(len(sources))
        ]
        return self._fiber_post(sources, targets, out)

    def _shorten_curve(self, p, q):
        key, flip = ((p, q), False) if p <= q else ((q, p), True)
        if key not in self._curves:
            self._curves[key] = self.ref_curve(*key)
            self._curve_order.append(key)
            if len(self._curve_order) > 16:
                del self._curves[self._curve_order.pop(0)]
        xy, arcs = self._curves[key]
        if flip:
            xy, arcs = xy[::-1], arcs[-1] - arcs[::-1]
        return xy, arcs

    def ref_curve(self, a, b):
        dist, pred = self._solve(a, base=True)
        path = [int(b)]
        while path[-1] != int(a):
            path.append(int(pred[path[-1]]))
        path.reverse()
        n_target = int(np.clip(np.ceil(float(dist[b]) / (0.5 * self._disc_h)), 8, 128))
        pts = _resample(self.node_xy[path][None], min(8, n_target))
        pts = self.ref_relax(pts, n_target)[0]
        seg = self._xy_segment_weights(pts[:-1], pts[1:])
        return pts, np.concatenate([[0.0], np.cumsum(seg)])

    def ref_relax(self, pts, n_target):
        """Coarse to fine, one `reference_relax_batch` call per stage; its
        levels are counted by its locator calls, 12 a level."""
        calls = []

        def locate(xy):
            calls.append(1)
            return self._locate_many(xy)

        levels = []
        n_seg, step0 = pts.shape[1] - 1, 0.5 * self._disc_h
        while True:
            before = len(calls)
            pts = reference_relax_batch(self, locate, pts, step0)
            levels.append((len(calls) - before) // 12)
            if n_seg >= n_target:
                self.relaxations.append((n_target, levels))
                return pts
            n_seg = min(2 * n_seg, n_target)
            pts = _resample(pts, n_seg)
            step0 = 0.25 * self._disc_h


def thinness_arrays(oracle, kappa, triples, grid):
    """Every sample field of every triple, as in `certify_induced`."""
    rows = []
    for triple in triples:
        samples = thinness_defect(oracle, kappa, triple, grid)
        oracle.clear_temp()
        assert samples is not None
        rows.extend((s.s, s.t, *s.sides, s.measured, s.compared) for s in samples)
    return np.array(rows)


def skew_ruled_map(n):
    return ruled_disc_map(RuledDiscSpec(
        eta0=(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
        eta1=(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.2])),
        grid=(n, n), space=EuclideanSpace(3),
    ))


@pytest.mark.parametrize("target", ["skew", "sphere", "hyperbolic", "tripod", "cone"])
def test_lockstep_relaxation_is_bit_identical_to_per_call_relaxation(target):
    kappa, triples, grid = Kappa(0.0), [(2, 40, 30), (45, 8, 24)], 4
    if target == "skew":
        mg = skew_ruled_map(6)
    elif target == "sphere":
        mg, kappa = _model_ruled_map(1.0, 6, 0.6 * math.pi, 0.75), Kappa(1.0)
    elif target == "hyperbolic":
        mg, kappa = _model_ruled_map(-1.0, 6, 1.0, 0.5), Kappa(-1.0)
    elif target == "tripod":
        mg = harmonic_tripod_map(6)
    else:  # per-point interpolant and curve length
        mg, triples, grid = cone_fan_map(6, 1.5 * math.pi), [(0, 2, 5)], 2
    got = thinness_arrays(InducedGraphSpace(mg, steiner=2), kappa, triples, grid)
    want = thinness_arrays(PerCallOracle(mg, steiner=2), kappa, triples, grid)
    assert np.array_equal(got, want)


def test_lockstep_groups_keep_their_own_schedules(monkeypatch):
    """On the 12 x 12 skew disc one triple's curves refine to different
    segment counts and stop after different numbers of levels; a merged
    batch under one idle rule moves the samples."""
    mg, triples = skew_ruled_map(12), [(14, 150, 88)]
    ref = PerCallOracle(mg, steiner=2)
    want = thinness_arrays(ref, Kappa(0.0), triples, 3)
    n_targets = {n for n, _ in ref.relaxations}
    stops = {n for _, levels in ref.relaxations for n in levels}
    assert len(n_targets) >= 3 and len(stops) >= 2
    oracle = InducedGraphSpace(mg, steiner=2)
    assert np.array_equal(thinness_arrays(oracle, Kappa(0.0), triples, 3), want)

    real_plan = verify._sweep_plan

    def one_idle_rule(shapes):
        return [(rows, group, starts[:1], chains)
                for rows, group, starts, chains in real_plan(shapes)]

    monkeypatch.setattr(verify, "_sweep_plan", one_idle_rule)
    merged = InducedGraphSpace(mg, steiner=2)
    assert not np.array_equal(thinness_arrays(merged, Kappa(0.0), triples, 3), want)


def test_thinness_relaxes_each_phase_in_one_batch(monkeypatch):
    batches = []
    relax = InducedGraphSpace._relax_batch

    def counted(self, groups):
        batches.append(len(groups))
        return relax(self, groups)

    monkeypatch.setattr(InducedGraphSpace, "_relax_batch", counted)
    oracle = InducedGraphSpace(flat_identity_grid(4), steiner=2)
    for triple in [(0, 12, 22), (3, 20, 9), (24, 5, 13)]:
        batches.clear()
        assert thinness_defect(oracle, Kappa(0.0), triple, grid=3) is not None
        oracle.clear_temp()
        # The three side curves, then the two arc rows and the grid block.
        assert batches == [3, 3]


def test_distances_beyond_the_curve_cache_equal_single_distances():
    oracle = InducedGraphSpace(flat_identity_grid(4), steiner=2)
    targets = list(range(1, 21))
    row = oracle.distances_from(0, targets)
    assert len(oracle._curves) == 16
    fresh = InducedGraphSpace(flat_identity_grid(4), steiner=2)
    assert row == [fresh.distance(0, q) for q in targets]
    assert row == [oracle.distance(0, q) for q in targets]


def test_geodesic_endpoints_are_mesh_vertices():
    oracle = InducedGraphSpace(flat_identity_grid(3), steiner=2)
    x = oracle.geodesic(0, 15, 0.5)
    assert x >= oracle.n_nodes
    with pytest.raises(ValueError, match=f"geodesic endpoint {x} is not a mesh vertex"):
        oracle.geodesic(x, 3, 0.5)
    with pytest.raises(ValueError, match=f"geodesic endpoint {x} is not a mesh vertex"):
        oracle.geodesic(3, x, 0.25)
    assert (oracle.geodesic(x, 3, 0.0), oracle.geodesic(x, 3, 1.0)) == (x, 3)


def test_dijkstra_cache_stays_within_its_cap():
    oracle = InducedGraphSpace(flat_identity_grid(3), steiner=2)
    oracle.geodesic(0, 15, 0.5)  # one temporary node
    assert oracle.n_nodes > 70
    for s in range(70):
        for base in (True, False):
            dist, _ = oracle._solve(s, base=base)
            graph = oracle.graph if base else oracle._matrix()
            assert np.array_equal(dist, dijkstra(graph, directed=False, indices=s))
            assert len(oracle._cache) <= 64
    assert len(oracle._cache) == len(oracle._cache_order) == 64

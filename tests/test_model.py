"""Model-surface kernel: trigonometry, geodesics, comparison triangles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catdisc.errors import (
    DegenerateTriangleError,
    InvalidPointError,
    NonUniqueGeodesicError,
    TooLargeTriangleError,
    TriangleInequalityError,
)
from catdisc.model import (
    Kappa,
    ModelPoint,
    angle_from_sides,
    base_point,
    build_comparison_triangle,
    exp_map,
    from_tangent,
    geodesic_point,
    geodesic_points,
    log_map,
    make_point,
    model_distance,
    model_distances,
    side_from_angle,
)

KAPPAS = [-1.0, 0.0, 1.0]


def random_points(kappa, rng, count):
    # Keep tangent radii below R_kappa/2 so all pairs stay uniquely joined.
    lim = 0.45 * Kappa(kappa).r_kappa if kappa > 0 else 2.0
    pts = []
    for _ in range(count):
        r = lim * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        pts.append(
            from_tangent(Kappa(kappa), (r * math.cos(phi), r * math.sin(phi)))
        )
    return pts


@pytest.mark.parametrize("kappa", KAPPAS)
def test_law_of_cosines_round_trip(kappa):
    kap = Kappa(kappa)
    rng = np.random.default_rng(7)
    lim = 0.45 * kap.r_kappa if kappa > 0 else 2.0
    for _ in range(500):
        a, b = rng.uniform(0.05, lim, size=2)
        gamma = rng.uniform(0.05, math.pi - 0.05)
        c = side_from_angle(kap, a, b, gamma)
        assert abs(angle_from_sides(kap, a, b, c) - gamma) <= 1e-8


@pytest.mark.parametrize("kappa", KAPPAS)
def test_geodesic_additivity(kappa):
    kap = Kappa(kappa)
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, q = random_points(kappa, rng, 2)
        d = model_distance(kap, p, q)
        s, t = sorted(rng.uniform(0.0, 1.0, size=2))
        x = geodesic_point(kap, p, q, s)
        y = geodesic_point(kap, p, q, t)
        assert abs(model_distance(kap, p, x) - s * d) <= 1e-8
        assert abs(model_distance(kap, x, y) - (t - s) * d) <= 1e-8
        assert abs(model_distance(kap, y, q) - (1.0 - t) * d) <= 1e-8


@pytest.mark.parametrize("kappa", KAPPAS)
def test_comparison_triangle_realizes_sides(kappa):
    kap = Kappa(kappa)
    rng = np.random.default_rng(13)
    for _ in range(200):
        pts = random_points(kappa, rng, 3)
        a = model_distance(kap, pts[1], pts[2])
        b = model_distance(kap, pts[2], pts[0])
        c = model_distance(kap, pts[0], pts[1])
        tri = build_comparison_triangle(kap, a, b, c)
        A, B, C = tri.vertices
        assert abs(model_distance(kap, B, C) - a) <= 1e-8
        assert abs(model_distance(kap, C, A) - b) <= 1e-8
        assert abs(model_distance(kap, A, B) - c) <= 1e-8
        # Angle sum: at least pi for kappa >= 0, at most pi for kappa <= 0.
        total = sum(tri.angles)
        if kappa > 0:
            assert total >= math.pi - 1e-9
        elif kappa < 0:
            assert total <= math.pi + 1e-9
        else:
            assert abs(total - math.pi) <= 1e-9


@pytest.mark.parametrize("kappa", KAPPAS)
def test_exp_log_round_trip(kappa):
    kap = Kappa(kappa)
    rng = np.random.default_rng(17)
    for _ in range(100):
        p, q = random_points(kappa, rng, 2)
        v = log_map(kap, p, q)
        q2 = exp_map(kap, p, v)
        assert model_distance(kap, q, q2) <= 1e-9


def test_kappa_near_zero_snaps_to_flat():
    assert Kappa(5e-15).value == 0.0
    assert Kappa(-5e-15).value == 0.0
    assert math.isinf(Kappa(0.0).r_kappa)
    assert abs(Kappa(1.0).r_kappa - math.pi) <= 1e-15
    assert abs(Kappa(4.0).r_kappa - math.pi / 2.0) <= 1e-15


def test_invalid_point_rejected():
    with pytest.raises(InvalidPointError):
        make_point(Kappa(1.0), (2.0, 0.0, 0.0))
    with pytest.raises(InvalidPointError):
        make_point(Kappa(0.0), (0.0, 0.0, 1.0))


def test_antipodal_geodesic_not_unique():
    kap = Kappa(1.0)
    p = make_point(kap, (0.0, 0.0, 1.0))
    q = make_point(kap, (0.0, 0.0, -1.0))
    with pytest.raises(NonUniqueGeodesicError):
        log_map(kap, p, q)


def test_triangle_side_validation():
    with pytest.raises(TriangleInequalityError):
        build_comparison_triangle(Kappa(0.0), 3.0, 1.0, 1.0)
    with pytest.raises(TooLargeTriangleError):
        build_comparison_triangle(Kappa(1.0), 2.5, 2.5, 1.5)
    with pytest.raises(DegenerateTriangleError):
        angle_from_sides(Kappa(0.0), 0.0, 1.0, 1.0)


def test_degenerate_comparison_triangles():
    point = build_comparison_triangle(Kappa(0.0), 0.0, 0.0, 0.0)
    assert point.degeneracy == "point"
    seg = build_comparison_triangle(Kappa(0.0), 1.0, 1.0, 0.0)
    assert seg.degeneracy == "segment"
    good = build_comparison_triangle(Kappa(0.0), 3.0, 4.0, 5.0)
    assert good.degeneracy is None
    assert abs(good.angles[2] - math.pi / 2.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    kappa=st.sampled_from(KAPPAS),
    seeds=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_distance_metric_axioms(kappa, seeds):
    kap = Kappa(kappa)
    rng = np.random.default_rng(seeds)
    p, q, r = random_points(kappa, rng, 3)
    dpq = model_distance(kap, p, q)
    assert dpq >= 0.0
    assert abs(dpq - model_distance(kap, q, p)) <= 1e-12
    assert model_distance(kap, p, p) <= 1e-12
    assert dpq <= model_distance(kap, p, r) + model_distance(kap, r, q) + 1e-9


@settings(max_examples=100, deadline=None)
@given(
    kappa=st.sampled_from(KAPPAS),
    x=st.floats(-1.5, 1.5),
    y=st.floats(-1.5, 1.5),
)
def test_from_tangent_preserves_radius(kappa, x, y):
    kap = Kappa(kappa)
    r = math.hypot(x, y)
    if kappa > 0 and r >= kap.r_kappa:
        return
    p = from_tangent(kap, (x, y))
    assert abs(model_distance(kap, base_point(kap), p) - r) <= 1e-9


def coords(points):
    return np.array([p.coords for p in points])


@pytest.mark.parametrize("kappa", KAPPAS)
def test_array_forms_equal_the_scalar_kernel_bit_for_bit(kappa):
    """`model_distances` is `model_distance` per pair and `geodesic_points`
    is `geodesic_point` per fraction, byte for byte, on random pairs and on
    coincident, nearly coincident and far pairs, with fractions whose step
    t |v| falls below SIDE_FLOOR (the row is p itself)."""
    kap = Kappa(kappa)
    rng = np.random.default_rng(23)
    pts = random_points(kappa, rng, 120)
    near = from_tangent(kap, np.array([pts[1].x, pts[1].y]) + 1e-9)
    P = pts[:60] + [pts[0], pts[1], pts[2]]
    Q = pts[60:] + [pts[0], near, from_tangent(kap, (-pts[2].x, -pts[2].y))]
    got = model_distances(kap, coords(P), coords(Q))
    want = np.array([model_distance(kap, p, q) for p, q in zip(P, Q)])
    assert got.tobytes() == want.tobytes()
    T = np.array([0.0, 1e-13, 0.1, 1.0 / 3.0, 0.5, 0.9, 1.0 - 1e-16, 1.0, 1.0 + 1e-13])
    for p, q in zip(P, Q):
        want = coords([geodesic_point(kap, p, q, t) for t in T.tolist()])
        assert geodesic_points(kap, p, q, T).tobytes() == want.tobytes()


def test_array_forms_keep_the_scalar_checks():
    """Near-antipodal sphere pairs raise in `log_map`, rows off the quadric
    fail its 1e-9 check, and fractions outside [0, 1] are refused."""
    kap = Kappa(1.0)
    p = make_point(kap, (0.0, 0.0, 1.0))
    q = make_point(kap, (math.sin(1e-10), 0.0, -math.cos(1e-10)))
    with pytest.raises(NonUniqueGeodesicError):
        geodesic_point(kap, p, q, 0.5)
    with pytest.raises(NonUniqueGeodesicError):
        geodesic_points(kap, p, q, np.array([0.0, 0.5]))
    for k, off in ((1.0, (0.0, 0.0, 1.0 + 2e-9)), (0.0, (0.1, 0.2, 2e-9)), (-1.0, (0.0, 0.0, -1.0))):
        kap = Kappa(k)
        good, bad = base_point(kap), ModelPoint(np.array(off))
        with pytest.raises(InvalidPointError):
            model_distance(kap, good, bad)
        with pytest.raises(InvalidPointError):
            model_distances(kap, coords([good, good]), coords([good, bad]))
    o = base_point(Kappa(0.0))
    with pytest.raises(ValueError, match="outside"):
        geodesic_points(Kappa(0.0), o, o, np.array([0.5, 1.1]))

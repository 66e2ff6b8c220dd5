"""Exact trigonometry and geodesics on the constant-curvature model surfaces.

All three curvature signs share one 3-vector embedding: the sphere of radius
1/sqrt(kappa) for kappa > 0, the plane z = 0 for kappa = 0, and the upper
hyperboloid sheet scaled by 1/sqrt(-kappa) for kappa < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DegenerateTriangleError,
    InvalidPointError,
    NonUniqueGeodesicError,
    TooLargeTriangleError,
    TriangleInequalityError,
)

# Curvature values within this tolerance of zero are treated as exactly zero
# to avoid catastrophic cancellation in the kappa -> 0 limit.
KAPPA_ZERO_TOL = 1e-14

# Side lengths below this floor are treated as exactly zero.
SIDE_FLOOR = 1e-12

QUADRIC_TOL = 1e-12

_TRI_INEQ_TOL = 1e-9


@dataclass(frozen=True)
class Kappa:
    """Curvature parameter together with the diameter bound of M_kappa."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if abs(v) < KAPPA_ZERO_TOL:
            v = 0.0
        object.__setattr__(self, "value", v)

    @property
    def r_kappa(self) -> float:
        """Diameter of the model surface: pi/sqrt(kappa) if kappa > 0."""
        if self.value > 0:
            return math.pi / math.sqrt(self.value)
        return math.inf

    @cached_property
    def scale(self) -> float:
        """sqrt(|kappa|), the metric scaling of the unit model."""
        return math.sqrt(abs(self.value))


@dataclass(frozen=True, eq=False)
class ModelPoint:
    """Point on M_kappa in the shared 3-vector embedding.

    The coordinates are read-only, so a point remembers (outside its
    fields) the last curvature whose quadric check in `model_distance` it
    passed, and is not checked again for that curvature.
    """

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (3,):
            raise InvalidPointError(f"expected 3-vector, got shape {c.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def x(self) -> float:
        return float(self.coords[0])

    @property
    def y(self) -> float:
        return float(self.coords[1])

    def __repr__(self):
        return f"ModelPoint({self.coords[0]!r}, {self.coords[1]!r}, {self.coords[2]!r})"


def _norm(c: np.ndarray) -> float:
    """Euclidean norm of a float vector; the value np.linalg.norm returns."""
    return math.sqrt(float(c.dot(c)))


def _minkowski_sq(c) -> float:
    """Minkowski square <c, c> = x^2 + y^2 - z^2 of a 3-vector."""
    x, y, z = np.asarray(c, dtype=float).tolist()
    return x * x + y * y - z * z


def quadric_residual(kappa: Kappa, coords) -> float:
    """Deviation of coordinates from the model's quadric constraint."""
    c = np.asarray(coords, dtype=float)
    k = kappa.value
    if k > 0:
        return abs(k * float(c.dot(c)) - 1.0)
    if k == 0:
        return abs(float(c[2]))
    res = abs(-k * _minkowski_sq(c) + 1.0)
    if c[2] <= 0:
        res = max(res, 1.0)
    return res


def make_point(kappa: Kappa, coords) -> ModelPoint:
    """Validate coordinates against the quadric constraint of M_kappa."""
    res = quadric_residual(kappa, coords)
    if res > QUADRIC_TOL:
        raise InvalidPointError(
            f"quadric residual {res:.3e} exceeds {QUADRIC_TOL:.0e} for kappa={kappa.value}"
        )
    return ModelPoint(np.asarray(coords, dtype=float))


def _project(kappa: Kappa, x: float, y: float, z: float) -> ModelPoint:
    """Snap nearly-valid coordinates exactly onto the quadric."""
    k = kappa.value
    if k > 0:
        c = np.array([x, y, z])
        c *= 1.0 / (kappa.scale * _norm(c))
    elif k == 0:
        c = np.array([x, y, 0.0])
    else:
        f = 1.0 / math.sqrt(-(x * x + y * y - z * z) * (-k))
        c = np.array([x * f, y * f, z * f])
    # The fresh array becomes the point's own coordinates, without the copy
    # that ModelPoint() makes.
    c.setflags(write=False)
    pt = object.__new__(ModelPoint)
    object.__setattr__(pt, "coords", c)
    return pt


@lru_cache(maxsize=16)
def base_point(kappa: Kappa) -> ModelPoint:
    """Reference point of M_kappa with tangent frame e1=(1,0,0), e2=(0,1,0)."""
    k = kappa.value
    if k > 0:
        return ModelPoint(np.array([0.0, 0.0, 1.0 / math.sqrt(k)]))
    if k == 0:
        return ModelPoint(np.zeros(3))
    return ModelPoint(np.array([0.0, 0.0, 1.0 / math.sqrt(-k)]))


def exp_map(kappa: Kappa, p: ModelPoint, v: np.ndarray) -> ModelPoint:
    """Geodesic exponential: travel |v| from p in tangent direction v."""
    # Componentwise float arithmetic: the same IEEE operations as the
    # array expressions c = f(sd) p + (g(sd) / s) (v / d), without their
    # per-call overhead on 3-vectors.
    va = np.asarray(v, dtype=float)
    v0, v1, v2 = va.tolist()
    k = kappa.value
    if k < 0:
        d = math.sqrt(max(v0 * v0 + v1 * v1 - v2 * v2, 0.0))
    else:
        d = _norm(va)
    if d < SIDE_FLOOR:
        return p
    p0, p1, p2 = p.coords.tolist()
    if k == 0:
        return _project(kappa, p0 + v0, p1 + v1, p2 + v2)
    s = kappa.scale
    if k > 0:
        f, g = math.cos(s * d), math.sin(s * d) / s
    else:
        f, g = math.cosh(s * d), math.sinh(s * d) / s
    return _project(
        kappa, f * p0 + g * (v0 / d), f * p1 + g * (v1 / d), f * p2 + g * (v2 / d)
    )


def log_map(kappa: Kappa, p: ModelPoint, q: ModelPoint) -> np.ndarray:
    """Tangent vector at p pointing to q, with norm = distance(p, q)."""
    d = model_distance(kappa, p, q)
    if d < SIDE_FLOOR:
        return np.zeros(3)
    p0, p1, p2 = p.coords.tolist()
    q0, q1, q2 = q.coords.tolist()
    k = kappa.value
    if k == 0:
        return np.array(
            [d * ((q0 - p0) / d), d * ((q1 - p1) / d), d * ((q2 - p2) / d)]
        )
    s = kappa.scale
    if k > 0:
        if d > kappa.r_kappa - 1e-9:
            raise NonUniqueGeodesicError("antipodal points on the sphere")
        f, g = math.cos(s * d), s / math.sin(s * d)
    else:
        f, g = math.cosh(s * d), s / math.sinh(s * d)
    return np.array(
        [d * ((q0 - f * p0) * g), d * ((q1 - f * p1) * g), d * ((q2 - f * p2) * g)]
    )


def from_tangent(kappa: Kappa, xy) -> ModelPoint:
    """Point reached from the base point along tangent coordinates (x, y)."""
    x, y = float(xy[0]), float(xy[1])
    return exp_map(kappa, base_point(kappa), np.array([x, y, 0.0]))


def _check_on_model(kappa: Kappa, pt: ModelPoint):
    """Reject a point off the quadric of M_kappa; remember one that passed."""
    k = kappa.value
    res = quadric_residual(kappa, pt.coords)
    if res > 1e-9:
        raise InvalidPointError(
            f"point off the kappa={k} quadric (residual {res:.3e})"
        )
    object.__setattr__(pt, "_on_model", k)


def model_distance(kappa: Kappa, p: ModelPoint, q: ModelPoint) -> float:
    """Geodesic distance on M_kappa."""
    k = kappa.value
    if p.__dict__.get("_on_model") != k:
        _check_on_model(kappa, p)
    if q.__dict__.get("_on_model") != k:
        _check_on_model(kappa, q)
    if k == 0:
        return _norm(p.coords - q.coords)
    s = kappa.scale
    if k > 0:
        # Stable arc length via the chord, exact at small and large angles.
        chord = _norm(p.coords - q.coords)
        half = min(1.0, 0.5 * chord * s)
        return 2.0 * math.asin(half) / s
    # Stable half-chord form: 4 sinh^2(s d / 2) = <p-q, p-q>_M * (-k),
    # computed from the coordinate difference to avoid cancellation near 0.
    msq = max(_minkowski_sq(p.coords - q.coords) * (-k), 0.0)
    return 2.0 * math.asinh(0.5 * math.sqrt(msq)) / s


def geodesic_point(kappa: Kappa, p: ModelPoint, q: ModelPoint, t: float) -> ModelPoint:
    """Point at parameter t on the geodesic from p to q (proportional to arclength)."""
    if not -1e-12 <= t <= 1.0 + 1e-12:
        raise ValueError(f"t={t} outside [0, 1]")
    t = min(max(t, 0.0), 1.0)
    v = log_map(kappa, p, q)
    if t == 0.0:
        return p
    if t == 1.0:
        return q
    return exp_map(kappa, p, t * v)


def _check_triangle_sides(kappa: Kappa, a: float, b: float, c: float):
    if min(a, b, c) < 0:
        raise TriangleInequalityError(f"negative side in ({a}, {b}, {c})")
    per = a + b + c
    tol = _TRI_INEQ_TOL * max(1.0, per)
    if a > b + c + tol or b > c + a + tol or c > a + b + tol:
        for s0, s1, s2 in ((a, b, c), (b, c, a), (c, a, b)):
            if s0 > s1 + s2 + tol:
                raise TriangleInequalityError(
                    f"side {s0} exceeds the sum of the others ({s1} + {s2})"
                )
    if kappa.value > 0 and per >= 2.0 * kappa.r_kappa:
        raise TooLargeTriangleError(
            f"perimeter {per} >= 2*R_kappa = {2.0 * kappa.r_kappa}"
        )


def angle_from_sides(kappa: Kappa, a: float, b: float, c: float) -> float:
    """Corner angle opposite side c in the M_kappa triangle with sides (a, b, c).

    Uses half-angle forms of the kappa-law of cosines, stable for thin
    triangles.
    """
    if a < SIDE_FLOOR or b < SIDE_FLOOR:
        raise DegenerateTriangleError(
            f"angle undefined with adjacent sides a={a}, b={b}"
        )
    _check_triangle_sides(kappa, a, b, c)
    per = a + b + c
    if c <= SIDE_FLOOR and abs(a - b) <= _TRI_INEQ_TOL * max(1.0, per):
        return 0.0
    # Clamp tiny triangle-inequality violations.
    c = min(c, a + b)
    c = max(c, abs(a - b))
    s = 0.5 * (a + b + c)
    k = kappa.value
    if k == 0:
        num = (c - a + b) * (c + a - b)
        den = (a + b + c) * (a + b - c)
    else:
        sc = kappa.scale
        if k > 0:
            f = math.sin
        else:
            f = math.sinh
        num = f(sc * (s - a)) * f(sc * (s - b))
        den = f(sc * s) * f(sc * (s - c))
    num = max(num, 0.0)
    den = max(den, 0.0)
    return 2.0 * math.atan2(math.sqrt(num), math.sqrt(den))


def side_from_angle(kappa: Kappa, a: float, b: float, gamma: float) -> float:
    """Third side c of the M_kappa triangle with sides a, b and included angle gamma."""
    if a < 0 or b < 0:
        raise TriangleInequalityError(f"negative side in ({a}, {b})")
    if not 0.0 <= gamma <= math.pi + 1e-12:
        raise ValueError(f"angle {gamma} outside [0, pi]")
    k = kappa.value
    if k == 0:
        c2 = a * a + b * b - 2.0 * a * b * math.cos(gamma)
        return math.sqrt(max(c2, 0.0))
    s = kappa.scale
    if k > 0:
        cosc = math.cos(s * a) * math.cos(s * b) + math.sin(s * a) * math.sin(
            s * b
        ) * math.cos(gamma)
        return math.acos(min(max(cosc, -1.0), 1.0)) / s
    coshc = math.cosh(s * a) * math.cosh(s * b) - math.sinh(s * a) * math.sinh(
        s * b
    ) * math.cos(gamma)
    return math.acosh(max(coshc, 1.0)) / s


@dataclass(frozen=True)
class ComparisonTriangle:
    """Triangle in M_kappa realizing prescribed side lengths.

    Vertices (A, B, C) satisfy |BC| = a, |CA| = b, |AB| = c; angles[i] is the
    corner angle at vertex i (0 by convention at collapsed corners).
    Degeneracy is None, "segment" or "point".
    """

    kappa: Kappa
    sides: tuple[float, float, float]
    angles: tuple[float, float, float]
    vertices: tuple[ModelPoint, ModelPoint, ModelPoint]
    degeneracy: str | None = None


def _corner_angle(kappa: Kappa, adj1: float, adj2: float, opp: float) -> float:
    if adj1 < SIDE_FLOOR or adj2 < SIDE_FLOOR:
        return 0.0
    return angle_from_sides(kappa, adj1, adj2, opp)


def build_comparison_triangle(
    kappa: Kappa, a: float, b: float, c: float
) -> ComparisonTriangle:
    """Realize the triangle with sides (a, b, c) in M_kappa, degenerate sides allowed."""
    a = 0.0 if a < SIDE_FLOOR else float(a)
    b = 0.0 if b < SIDE_FLOOR else float(b)
    c = 0.0 if c < SIDE_FLOOR else float(c)
    _check_triangle_sides(kappa, a, b, c)

    alpha = _corner_angle(kappa, b, c, a)
    beta = _corner_angle(kappa, a, c, b)
    gamma = _corner_angle(kappa, a, b, c)

    A = base_point(kappa)
    B = exp_map(kappa, A, np.array([c, 0.0, 0.0]))
    C = exp_map(
        kappa, A, np.array([b * math.cos(alpha), b * math.sin(alpha), 0.0])
    )

    if max(a, b, c) == 0.0:
        degeneracy = "point"
    elif (
        min(a, b, c) == 0.0
        or a + b - c < SIDE_FLOOR
        or b + c - a < SIDE_FLOOR
        or c + a - b < SIDE_FLOOR
    ):
        degeneracy = "segment"
    else:
        degeneracy = None

    return ComparisonTriangle(
        kappa=kappa,
        sides=(a, b, c),
        angles=(alpha, beta, gamma),
        vertices=(A, B, C),
        degeneracy=degeneracy,
    )

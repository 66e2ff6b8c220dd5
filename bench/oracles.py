"""Reference computations the benchmark checks catdisc against.

Each oracle works from the inputs alone, with NumPy, SciPy and closed
forms, and calls no catdisc code, so a fault in the library cannot make its
own check pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize


def cone_distance(theta: float, p, q) -> float:
    """Distance on the flat cone of total angle theta by unfolding.

    Points are (r, phi); the distance is the shorter of the developed chord
    and the route through the apex.
    """
    r1, phi1 = p
    r2, phi2 = q
    dphi = abs(phi1 - phi2) % theta
    dphi = min(dphi, theta - dphi)
    through_apex = r1 + r2
    if dphi >= math.pi:
        return through_apex
    direct = math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(dphi))
    return min(direct, through_apex)


def cone_midpoint_defect(theta: float) -> float:
    """Thinness defect at the side midpoints of the control triple.

    The triple sits at radius 1 on three equally spaced rays around the
    apex.  Its sides unfold to chords of angle theta/3, the flat comparison
    midpoints are half a side apart, and the measured midpoints lie at the
    chord midpoints on either side of the first ray.
    """
    side = cone_distance(theta, (1.0, 0.0), (1.0, theta / 3.0))
    half_angle = theta / 6.0
    r_mid = math.cos(half_angle)
    measured = cone_distance(theta, (r_mid, half_angle), (r_mid, -half_angle))
    return measured - side / 2.0


# -- the tripod: three legs of length 1 glued at "o" --------------------------


def tripod_coords(point) -> tuple:
    """(leg, distance from o) of a point given as (u, v, offset from u)."""
    u, v, offset = point
    if u == "o":
        return (v, offset) if offset > 0.0 else ("o", 0.0)
    return (u, 1.0 - offset) if offset < 1.0 else ("o", 0.0)


def tripod_distance(p, q) -> float:
    (leg_p, rp), (leg_q, rq) = p, q
    return abs(rp - rq) if leg_p == leg_q else rp + rq


def tripod_energy_minimizer(neighbours) -> tuple:
    """Point of the tripod minimizing the sum of squared distances.

    A dense scan of every leg, refined by golden-section search on the leg
    of the best scan point, where the energy is convex in the offset.
    """
    def energy(pt):
        return sum(tripod_distance(pt, nb) ** 2 for nb in neighbours)

    best, best_val = ("o", 0.0), energy(("o", 0.0))
    for leg in ("a", "b", "c"):
        for r in np.linspace(0.0, 1.0, 2001)[1:]:
            val = energy((leg, float(r)))
            if val < best_val:
                best, best_val = (leg, float(r)), val
    leg = best[0] if best[0] != "o" else "a"
    lo, hi = max(best[1] - 1e-3, 0.0), min(best[1] + 1e-3, 1.0)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-12:
        m1, m2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
        if energy((leg, m1)) <= energy((leg, m2)):
            hi = m2
        else:
            lo = m1
    r = 0.5 * (lo + hi)
    return (leg, r) if r > 0.0 else ("o", 0.0)


# -- planar graphs --------------------------------------------------------------


def min_total_length(edges, images, fixed) -> float:
    """Least total edge length over the free vertex positions, by L-BFGS-B.

    `images` are the start positions; vertices in `fixed` stay put.  The
    gradient of each edge term is its unit vector, guarded at zero length.
    """
    pos = np.array(images, dtype=float)
    free = [v for v in range(len(pos)) if v not in fixed]
    E = np.asarray(edges, dtype=int)
    dim = pos.shape[1]

    def total(x):
        p = pos.copy()
        p[free] = x.reshape(-1, dim)
        d = p[E[:, 0]] - p[E[:, 1]]
        n = np.linalg.norm(d, axis=1)
        unit = d / np.maximum(n, 1e-15)[:, None]
        grad = np.zeros_like(p)
        np.add.at(grad, E[:, 0], unit)
        np.add.at(grad, E[:, 1], -unit)
        return float(n.sum()), grad[free].ravel()

    res = minimize(
        total, pos[free].ravel(), jac=True, method="L-BFGS-B",
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000},
    )
    return float(res.fun)


def ruled_image(p0, p1, q0, q1, a: float, t: float) -> np.ndarray:
    """Point (a, t) of the ruled surface between segments p0p1 and q0q1."""
    return (1.0 - t) * ((1.0 - a) * p0 + a * p1) + t * ((1.0 - a) * q0 + a * q1)

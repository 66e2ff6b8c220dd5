"""Geodesic metric-space oracles: model surfaces, Euclidean space, metric trees
and flat cones.

Every backend provides distance, geodesic interpolation (proportional to
arclength), curve length, a weighted squared-distance barycenter, a Fermat
point (weighted sum-of-distances minimizer) and seeded point sampling.
Backends are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import BackendMismatchError, OutOfConvexityError
from .model import Kappa, ModelPoint


class TargetSpace:
    """Common interface of the geodesic-space backends."""

    curvature_bound: float

    def distance(self, p, q) -> float:
        raise NotImplementedError

    def geodesic(self, p, q, t: float):
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator):
        raise NotImplementedError

    def barycenter(self, points, weights):
        raise NotImplementedError

    def fermat_point(self, points, weights=None):
        raise NotImplementedError

    @property
    def r_kappa(self) -> float:
        return Kappa(self.curvature_bound).r_kappa

    def curve_length(self, polyline) -> float:
        """Length of a polyline: sum of consecutive distances."""
        pts = list(polyline)
        if len(pts) < 2:
            raise ValueError("curve_length needs at least 2 points")
        return sum(self.distance(a, b) for a, b in zip(pts, pts[1:]))

    def spread(self, points) -> float:
        """Max pairwise distance of a point collection."""
        pts = list(points)
        return max(
            (self.distance(pts[i], pts[j]) for i in range(len(pts)) for j in range(i)),
            default=0.0,
        )

    def _check_barycenter_spread(self, points):
        if self.spread(points) >= self.r_kappa / 2.0:
            raise OutOfConvexityError(
                "points spread over a ball of radius >= R_kappa/2"
            )

    def _normalized_weights(self, points, weights):
        pts = list(points)
        if weights is None:
            w = np.ones(len(pts))
        else:
            w = np.asarray(weights, dtype=float)
        if len(w) != len(pts) or np.any(w <= 0):
            raise ValueError("weights must be positive, one per point")
        return pts, w / w.sum()


class EuclideanSpace(TargetSpace):
    """R^n with the Euclidean metric; points are n-vectors."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = int(n)
        self.curvature_bound = 0.0

    def _coerce(self, p) -> np.ndarray:
        q = np.asarray(p, dtype=float)
        if q.shape != (self.n,):
            raise BackendMismatchError(
                f"expected {self.n}-vector, got shape {q.shape}"
            )
        return q

    def distance(self, p, q) -> float:
        return float(np.linalg.norm(self._coerce(p) - self._coerce(q)))

    def geodesic(self, p, q, t: float):
        return (1.0 - t) * self._coerce(p) + t * self._coerce(q)

    def random_point(self, rng):
        return rng.uniform(-1.0, 1.0, size=self.n)

    def barycenter(self, points, weights=None):
        pts, w = self._normalized_weights(points, weights)
        arr = np.array([self._coerce(p) for p in pts])
        return w @ arr

    def fermat_point(self, points, weights=None):
        pts, w = self._normalized_weights(points, weights)
        arr = np.array([self._coerce(p) for p in pts])
        x = w @ arr
        for it in range(10000):
            d = np.linalg.norm(arr - x, axis=1)
            hit = np.flatnonzero(d < 1e-14)
            if hit.size:
                # Anchor is optimal iff the pull of the others fits its weight.
                i = int(hit[0])
                mask = d >= 1e-14
                pull = np.sum(
                    (w[mask, None] / d[mask, None]) * (arr[mask] - x), axis=0
                )
                if np.linalg.norm(pull) <= w[i] + 1e-15:
                    return arr[i]
                x = x + 1e-9 * pull / max(np.linalg.norm(pull), 1e-300)
                continue
            coef = w / d
            x_new = (coef @ arr) / coef.sum()
            if it >= 200:
                # Near an anchor whose pull barely exceeds its weight,
                # Weiszfeld contracts at a rate close to 1; finish with
                # Newton steps while they lower the objective.
                x_new = _newton_fermat_step(arr, w, x, d, x_new)
            if np.linalg.norm(x_new - x) < 1e-14:
                return x_new
            x = x_new
        return x


def _newton_fermat_step(arr, w, x, d, fallback):
    """Newton step on sum_i w_i |x - a_i|, or `fallback` unless it lowers it.

    The Hessian is sum_i w_i (I - u_i u_i^T) / d_i with u_i = (x - a_i) / d_i;
    it is singular when all anchors are collinear with x.
    """
    U = (x - arr) / d[:, None]
    grad = w @ U
    hess = np.eye(len(x)) * np.sum(w / d) - (U.T * (w / d)) @ U
    try:
        x_newton = x - np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        return fallback
    if w @ np.linalg.norm(arr - x_newton, axis=1) < w @ d:
        return x_newton
    return fallback


class ModelSpace(TargetSpace):
    """The model surface M_kappa itself, as a target backend."""

    def __init__(self, kappa: float):
        self.kappa = Kappa(kappa)
        self.curvature_bound = self.kappa.value

    def _coerce(self, p) -> ModelPoint:
        if not isinstance(p, ModelPoint):
            raise BackendMismatchError(f"expected ModelPoint, got {type(p).__name__}")
        return p

    def point(self, xy) -> ModelPoint:
        """Point from tangent coordinates at the base point."""
        return model.from_tangent(self.kappa, xy)

    def distance(self, p, q) -> float:
        return model.model_distance(self.kappa, self._coerce(p), self._coerce(q))

    def geodesic(self, p, q, t: float):
        return model.geodesic_point(self.kappa, self._coerce(p), self._coerce(q), t)

    def random_point(self, rng):
        if self.kappa.value > 0:
            v = rng.normal(size=3)
            v /= np.linalg.norm(v) * math.sqrt(self.kappa.value)
            return ModelPoint(v)
        return model.from_tangent(self.kappa, rng.uniform(-1.0, 1.0, size=2))

    def barycenter(self, points, weights=None):
        pts, w = self._normalized_weights(points, weights)
        pts = [self._coerce(p) for p in pts]
        self._check_barycenter_spread(pts)
        x = pts[int(np.argmax(w))]
        for _ in range(200):
            v = np.zeros(3)
            for wi, p in zip(w, pts):
                v += wi * model.log_map(self.kappa, x, p)
            x_new = model.exp_map(self.kappa, x, v)
            if model.model_distance(self.kappa, x, x_new) < 1e-14:
                return x_new
            x = x_new
        return x

    def fermat_point(self, points, weights=None):
        pts, w = self._normalized_weights(points, weights)
        pts = [self._coerce(p) for p in pts]
        x = self.barycenter(pts, w)
        for _ in range(2000):
            logs = [model.log_map(self.kappa, x, p) for p in pts]
            d = np.array([np.linalg.norm(v) for v in logs])
            hit = np.flatnonzero(d < 1e-13)
            if hit.size:
                i = int(hit[0])
                pull = np.zeros(3)
                for j, v in enumerate(logs):
                    if d[j] >= 1e-13:
                        pull += (w[j] / d[j]) * v
                if np.linalg.norm(pull) <= w[i] + 1e-15:
                    return pts[i]
                x = model.exp_map(self.kappa, x, 1e-9 * pull / np.linalg.norm(pull))
                continue
            coef = w / d
            step = np.zeros(3)
            for cj, v in zip(coef, logs):
                step += cj * v
            step /= coef.sum()
            x_new = model.exp_map(self.kappa, x, step)
            if model.model_distance(self.kappa, x, x_new) < 1e-14:
                return x_new
            x = x_new
        return x


@dataclass(frozen=True)
class TreePoint:
    """Point on an edge of a metric tree, `offset` measured from vertex `u`."""

    u: object
    v: object
    offset: float


class MetricTree(TargetSpace):
    """Weighted tree graph with its path metric; CAT(kappa) for every kappa."""

    def __init__(self, edges):
        self.edges = [(u, v, float(w)) for u, v, w in edges]
        if any(w <= 0 for _, _, w in self.edges):
            raise ValueError("edge weights must be positive")
        self.adj: dict = {}
        for u, v, w in self.edges:
            self.adj.setdefault(u, {})
            self.adj.setdefault(v, {})
            if v in self.adj[u]:
                raise ValueError(f"duplicate edge {u}-{v}")
            self.adj[u][v] = w
            self.adj[v][u] = w
        n = len(self.adj)
        if len(self.edges) != n - 1:
            raise ValueError("graph is not a tree (wrong edge count)")
        self._vdist: dict = {}
        self._parent: dict = {}
        for root in self.adj:
            dist, parent = {root: 0.0}, {root: None}
            stack = [root]
            while stack:
                u = stack.pop()
                for v, w in self.adj[u].items():
                    if v not in dist:
                        dist[v] = dist[u] + w
                        parent[v] = u
                        stack.append(v)
            if len(dist) != n:
                raise ValueError("graph is not connected")
            self._vdist[root] = dist
            self._parent[root] = parent
        self.curvature_bound = 0.0

    def vertex_point(self, u) -> TreePoint:
        v = next(iter(self.adj[u]))
        return TreePoint(u, v, 0.0)

    def _coerce(self, p) -> TreePoint:
        if not isinstance(p, TreePoint):
            raise BackendMismatchError(f"expected TreePoint, got {type(p).__name__}")
        if p.v not in self.adj.get(p.u, {}):
            raise BackendMismatchError(f"no edge {p.u}-{p.v} in this tree")
        w = self.adj[p.u][p.v]
        if not -1e-12 <= p.offset <= w + 1e-12:
            raise BackendMismatchError(f"offset {p.offset} outside edge of length {w}")
        return p

    def _vertex_distance_to(self, x, p: TreePoint) -> float:
        """Distance from tree vertex x to point p."""
        d = self._vdist[x]
        return min(d[p.u] + p.offset, d[p.v] + (self.adj[p.u][p.v] - p.offset))

    @staticmethod
    def _same_edge(p: TreePoint, q: TreePoint) -> bool:
        return {p.u, p.v} == {q.u, q.v}

    def _offset_from(self, p: TreePoint, x) -> float:
        """Offset of p measured from endpoint x of its edge."""
        if x == p.u:
            return p.offset
        return self.adj[p.u][p.v] - p.offset

    def distance(self, p, q) -> float:
        p, q = self._coerce(p), self._coerce(q)
        if self._same_edge(p, q):
            return abs(self._offset_from(p, p.u) - self._offset_from(q, p.u))
        return min(
            self._offset_from(p, x) + self._vdist[x][y] + self._offset_from(q, y)
            for x in (p.u, p.v)
            for y in (q.u, q.v)
        )

    def _vertex_path(self, x, y):
        parent = self._parent[x]
        path = [y]
        while path[-1] != x:
            path.append(parent[path[-1]])
        return path[::-1]

    def geodesic(self, p, q, t: float):
        p, q = self._coerce(p), self._coerce(q)
        d = self.distance(p, q)
        if d < 1e-15:
            return p
        s = t * d
        if self._same_edge(p, q):
            op, oq = self._offset_from(p, p.u), self._offset_from(q, p.u)
            return TreePoint(p.u, p.v, op + t * (oq - op))
        best = min(
            ((x, y) for x in (p.u, p.v) for y in (q.u, q.v)),
            key=lambda xy: self._offset_from(p, xy[0])
            + self._vdist[xy[0]][xy[1]]
            + self._offset_from(q, xy[1]),
        )
        x, y = best
        o1 = self._offset_from(p, x)
        if s <= o1:
            # Still on p's edge, moving toward x.
            frac = (o1 - s) / self.adj[p.u][p.v]
            off = frac * self.adj[p.u][p.v]
            return TreePoint(x, p.v if x == p.u else p.u, off)
        s -= o1
        path = self._vertex_path(x, y)
        for a, b in zip(path, path[1:]):
            w = self.adj[a][b]
            if s <= w + 1e-15:
                return TreePoint(a, b, min(s, w))
            s -= w
        return TreePoint(y, q.v if y == q.u else q.u, min(s, self.adj[q.u][q.v]))

    def geodesic_breakpoints(self, p, q):
        """Arclength fractions in (0, 1) where the p-q geodesic meets vertices.

        Useful for samplers that want nodes exactly at branch points, where
        the geodesic changes edge and pullback metrics develop creases.
        """
        p, q = self._coerce(p), self._coerce(q)
        d = self.distance(p, q)
        if d < 1e-15 or self._same_edge(p, q):
            return []
        x, y = min(
            ((a, b) for a in (p.u, p.v) for b in (q.u, q.v)),
            key=lambda xy: self._offset_from(p, xy[0])
            + self._vdist[xy[0]][xy[1]]
            + self._offset_from(q, xy[1]),
        )
        acc = self._offset_from(p, x)
        fracs = [acc / d]
        path = self._vertex_path(x, y)
        for a, b in zip(path, path[1:]):
            acc += self.adj[a][b]
            fracs.append(acc / d)
        return [f for f in fracs if 1e-9 < f < 1.0 - 1e-9]

    def random_point(self, rng):
        weights = np.array([w for _, _, w in self.edges])
        i = int(rng.choice(len(self.edges), p=weights / weights.sum()))
        u, v, w = self.edges[i]
        return TreePoint(u, v, float(rng.uniform(0.0, w)))

    def _edge_pieces(self, u, v, w_e, pts):
        """Per anchor: distance along edge (u, v) as a 2-piece linear function.

        Returns (breakpoints, pieces) where pieces[i] = (slope_lo, const_lo,
        slope_hi, const_hi) so that d(t, p_i) = slope*t + const on each side of
        breakpoints[i].
        """
        breaks, pieces = [], []
        for p in pts:
            if {p.u, p.v} == {u, v}:
                o = self._offset_from(p, u)
                breaks.append(o)
                pieces.append((-1.0, o, 1.0, -o))
            else:
                du = min(
                    self._vdist[u][p.u] + p.offset,
                    self._vdist[u][p.v] + (self.adj[p.u][p.v] - p.offset),
                )
                dv = min(
                    self._vdist[v][p.u] + p.offset,
                    self._vdist[v][p.v] + (self.adj[p.u][p.v] - p.offset),
                )
                tb = min(max(0.5 * (w_e + dv - du), 0.0), w_e)
                breaks.append(tb)
                pieces.append((1.0, du, -1.0, w_e + dv))
        return breaks, pieces

    def _minimize_on_edges(self, pts, w, squared: bool):
        """Exact convex minimization of sum w_i d(x, p_i)^(1 or 2) over the tree.

        Edge restrictions are piecewise linear (Fermat) or piecewise quadratic
        (barycenter); both are minimized in closed form per linear piece.
        """
        best_pt, best_val = None, math.inf

        def value(t, breaks, pieces):
            total = 0.0
            for wi, tb, (slo, clo, shi, chi) in zip(w, breaks, pieces):
                d = slo * t + clo if t <= tb else shi * t + chi
                total += wi * d * d if squared else wi * d
            return total

        for u, v, w_e in self.edges:
            breaks, pieces = self._edge_pieces(u, v, w_e, pts)
            knots = sorted({0.0, w_e, *(tb for tb in breaks if 0.0 < tb < w_e)})
            candidates = list(knots)
            if squared:
                for lo, hi in zip(knots, knots[1:]):
                    mid = 0.5 * (lo + hi)
                    a_coef = b_coef = 0.0
                    for wi, tb, (slo, clo, shi, chi) in zip(w, breaks, pieces):
                        s, c = (slo, clo) if mid <= tb else (shi, chi)
                        a_coef += wi * s * s
                        b_coef += 2.0 * wi * s * c
                    if a_coef > 0:
                        t_star = -b_coef / (2.0 * a_coef)
                        if lo < t_star < hi:
                            candidates.append(t_star)
            for t in candidates:
                val = value(t, breaks, pieces)
                if val < best_val:
                    best_pt, best_val = TreePoint(u, v, t), val
        return best_pt

    def barycenter(self, points, weights=None):
        pts, w = self._normalized_weights(points, weights)
        pts = [self._coerce(p) for p in pts]
        return self._minimize_on_edges(pts, w, squared=True)

    def barycenter_rows(self, points, weight_rows):
        """Frechet means of fixed anchors under many weight vectors at once.

        Same minimization as `barycenter` (edge restrictions are piecewise
        quadratic in the offset), vectorized over the rows of `weight_rows`;
        rows may contain zeros but must not be all-zero.
        """
        pts = [self._coerce(p) for p in points]
        W = np.asarray(weight_rows, dtype=float)
        if W.ndim != 2 or W.shape[1] != len(pts):
            raise ValueError("one weight per anchor in every row required")
        if np.any(W < 0) or np.any(W.sum(axis=1) <= 0):
            raise ValueError("rows must be nonnegative with positive sum")
        n = W.shape[0]
        best_val = np.full(n, np.inf)
        best_edge = np.zeros(n, dtype=int)
        best_t = np.zeros(n)
        for ei, (u, v, w_e) in enumerate(self.edges):
            breaks, pieces = self._edge_pieces(u, v, w_e, pts)
            knots = sorted({0.0, w_e, *(tb for tb in breaks if 0.0 < tb < w_e)})
            for lo, hi in zip(knots, knots[1:]):
                mid = 0.5 * (lo + hi)
                s = np.array(
                    [p[0] if mid <= tb else p[2] for tb, p in zip(breaks, pieces)]
                )
                c = np.array(
                    [p[1] if mid <= tb else p[3] for tb, p in zip(breaks, pieces)]
                )
                a_coef = W @ (s * s)
                b_coef = 2.0 * (W @ (s * c))
                c_coef = W @ (c * c)
                t = np.where(
                    a_coef > 0.0,
                    -b_coef / (2.0 * np.maximum(a_coef, 1e-300)),
                    mid,
                )
                t = np.clip(t, lo, hi)
                val = (a_coef * t + b_coef) * t + c_coef
                upd = val < best_val
                best_val[upd] = val[upd]
                best_edge[upd] = ei
                best_t[upd] = t[upd]
        return [
            TreePoint(self.edges[e][0], self.edges[e][1], float(t))
            for e, t in zip(best_edge, best_t)
        ]

    def fermat_point(self, points, weights=None):
        pts, w = self._normalized_weights(points, weights)
        pts = [self._coerce(p) for p in pts]
        return self._minimize_on_edges(pts, w, squared=False)


@dataclass(frozen=True)
class ConePoint:
    """Point (radius, angle mod total cone angle) on a flat cone."""

    r: float
    phi: float
    nonunique: bool = field(default=False, compare=False)


class FlatCone(TargetSpace):
    """Euclidean cone of total apex angle theta; CAT(0) iff theta >= 2*pi."""

    def __init__(self, total_angle: float):
        if total_angle <= 0:
            raise ValueError("total angle must be positive")
        self.theta = float(total_angle)
        self.curvature_bound = 0.0 if self.theta >= 2.0 * math.pi else math.inf

    @property
    def r_kappa(self) -> float:
        # Geodesics on a cone are defined at all scales regardless of the
        # (possibly absent) curvature bound.
        return math.inf

    def point(self, r: float, phi: float) -> ConePoint:
        if r < 0:
            raise ValueError("radius must be nonnegative")
        if r == 0:
            return ConePoint(0.0, 0.0)
        return ConePoint(float(r), float(phi) % self.theta)

    def _coerce(self, p) -> ConePoint:
        if not isinstance(p, ConePoint):
            raise BackendMismatchError(f"expected ConePoint, got {type(p).__name__}")
        if p.r < 0 or not 0.0 <= p.phi < self.theta + 1e-12:
            raise BackendMismatchError(f"invalid cone coordinates {p}")
        return p

    def _gap(self, p: ConePoint, q: ConePoint):
        """Angular gap and the sign of the shorter angular route from p to q."""
        delta = (q.phi - p.phi) % self.theta
        if delta <= self.theta - delta:
            return delta, 1.0
        return self.theta - delta, -1.0

    def distance(self, p, q) -> float:
        p, q = self._coerce(p), self._coerce(q)
        if p.r == 0.0 or q.r == 0.0:
            return p.r + q.r
        gap, _ = self._gap(p, q)
        if gap >= math.pi:
            return p.r + q.r
        return math.sqrt(
            max(p.r * p.r + q.r * q.r - 2.0 * p.r * q.r * math.cos(gap), 0.0)
        )

    def geodesic(self, p, q, t: float):
        p, q = self._coerce(p), self._coerce(q)
        d = self.distance(p, q)
        if d < 1e-15:
            return p
        gap, sign = self._gap(p, q)
        nonunique = p.r > 0 and q.r > 0 and abs(gap - math.pi) < 1e-12
        through_apex = (p.r == 0.0 or q.r == 0.0) or gap >= math.pi
        if through_apex:
            s = t * d
            if s <= p.r:
                return ConePoint(p.r - s, p.phi if p.r > 0 else q.phi, nonunique)
            return ConePoint(s - p.r, q.phi, nonunique)
        # Unfold the sector spanned by the two radii into the plane.
        a = np.array([p.r, 0.0])
        b = np.array([q.r * math.cos(gap), q.r * math.sin(gap)])
        z = (1.0 - t) * a + t * b
        r = float(np.linalg.norm(z))
        if r < 1e-15:
            return ConePoint(0.0, 0.0, nonunique)
        psi = math.atan2(z[1], z[0])
        return ConePoint(r, (p.phi + sign * psi) % self.theta, nonunique)

    def random_point(self, rng):
        return ConePoint(
            float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, self.theta))
        )

    def _geodesic_descent(self, anchors, cost):
        """Coordinate descent along geodesics toward the anchors."""
        x = min(anchors + [ConePoint(0.0, 0.0)], key=cost)
        for _ in range(300):
            moved = 0.0
            for p in anchors:
                if self.distance(x, p) < 1e-15:
                    continue
                lo, hi = 0.0, 1.0
                for _ in range(80):
                    m1 = lo + (hi - lo) / 3.0
                    m2 = hi - (hi - lo) / 3.0
                    if cost(self.geodesic(x, p, m1)) <= cost(self.geodesic(x, p, m2)):
                        hi = m2
                    else:
                        lo = m1
                x_new = self.geodesic(x, p, 0.5 * (lo + hi))
                moved = max(moved, self.distance(x, x_new))
                x = x_new
            if moved < 1e-13:
                break
        return x

    def barycenter(self, points, weights=None):
        pts, w = self._normalized_weights(points, weights)
        pts = [self._coerce(p) for p in pts]
        if self.curvature_bound == 0.0:
            self._check_barycenter_spread(pts)
        cost = lambda x: sum(wi * self.distance(x, p) ** 2 for wi, p in zip(w, pts))
        return self._geodesic_descent(pts, cost)

    def fermat_point(self, points, weights=None):
        pts, w = self._normalized_weights(points, weights)
        pts = [self._coerce(p) for p in pts]
        cost = lambda x: sum(wi * self.distance(x, p) for wi, p in zip(w, pts))
        return self._geodesic_descent(pts, cost)


def space_from_config(cfg: dict) -> TargetSpace:
    """Build a backend from its scenario-config description."""
    backend = cfg.get("backend")
    if backend == "euclidean":
        return EuclideanSpace(int(cfg["dim"]))
    if backend == "model":
        return ModelSpace(float(cfg["kappa"]))
    if backend == "tree":
        return MetricTree([(str(u), str(v), float(w)) for u, v, w in cfg["edges"]])
    if backend == "cone":
        return FlatCone(float(cfg["total_angle"]))
    raise ValueError(f"unknown backend {backend!r}")


def point_from_config(space: TargetSpace, spec):
    """Parse a point description matching the backend of `space`."""
    if isinstance(space, EuclideanSpace):
        return np.asarray(spec, dtype=float)
    if isinstance(space, ModelSpace):
        return space.point(spec)
    if isinstance(space, MetricTree):
        u, v, off = spec
        return TreePoint(str(u), str(v), float(off))
    if isinstance(space, FlatCone):
        r, phi = spec
        return space.point(float(r), float(phi))
    raise ValueError(f"unsupported space {type(space).__name__}")

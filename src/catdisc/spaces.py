"""Geodesic metric-space oracles: model surfaces, Euclidean space, metric trees
and flat cones.

Every backend provides distance, geodesic interpolation (proportional to
arclength), curve length, a weighted squared-distance barycenter, a Fermat
point (weighted sum-of-distances minimizer) and seeded point sampling.
Backends are immutable after construction.

The array interface (`distance_arrays`, `triangle_tables`, `triangle_means`)
runs on the `steiner` kernels for Euclidean and model-surface coordinates, on
(edge index, offset) rows for trees, and by default point by point on object
arrays of the backend's own points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import BackendMismatchError, OutOfConvexityError
from .model import Kappa, ModelPoint
from .steiner import _batch_bary_interp, _batch_distance, tri_point


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

    def distance_arrays(self, X, Y) -> np.ndarray:
        """Distances between row-aligned array points."""
        return np.array([self.distance(x, y) for x, y in zip(X, Y)])

    def triangle_tables(self, corners):
        """Per-triangle tables of `triangle_means` for (p0, p1, p2) triples."""
        return list(corners)

    def triangle_means(self, tables, tri_idx, weight_rows) -> np.ndarray:
        """The triangle interpolant, as array points, in the triangles
        `tri_idx` of `tables` at rows of barycentric weights."""
        out = np.empty(len(tri_idx), dtype=object)
        for i, (t, w) in enumerate(zip(tri_idx, weight_rows)):
            out[i] = tri_point(self, tables[t], w)
        return out

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

    def distance_arrays(self, X, Y) -> np.ndarray:
        return _batch_distance(0.0, X, Y)

    def triangle_tables(self, corners):
        return np.array([[self._coerce(p) for p in tri] for tri in corners])

    def triangle_means(self, tables, tri_idx, weight_rows) -> np.ndarray:
        return _batch_bary_interp(0.0, tables[tri_idx], weight_rows)

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

    def distance_arrays(self, X, Y) -> np.ndarray:
        return _batch_distance(self.kappa.value, X, Y)

    def triangle_tables(self, corners):
        return np.array([[self._coerce(p).coords for p in tri] for tri in corners])

    def triangle_means(self, tables, tri_idx, weight_rows) -> np.ndarray:
        return _batch_bary_interp(self.kappa.value, tables[tri_idx], weight_rows)

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
    """Weighted tree graph with its path metric; CAT(kappa) for every kappa.

    The array kernel (`as_array`, `distance_arrays`, `triangle_means`) takes
    points as (N, 2) arrays of edge index into `edges` and offset from that
    edge's first vertex.
    """

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
        names = list(self.adj)
        self._vmat = np.array([[self._vdist[x][y] for y in names] for x in names])
        index = {x: i for i, x in enumerate(names)}
        self._ends = np.array([[index[u], index[v]] for u, v, _ in self.edges])
        self._lengths = np.array([w for _, _, w in self.edges])
        self._edge_index = {(u, v): e for e, (u, v, _) in enumerate(self.edges)}
        self._edge_index.update({(v, u): e for (u, v), e in self._edge_index.items()})
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

    def _offset_from(self, p: TreePoint, x) -> float:
        """Offset of p measured from endpoint x of its edge."""
        if x == p.u:
            return p.offset
        return self.adj[p.u][p.v] - p.offset

    def distance(self, p, q) -> float:
        p, q = self._coerce(p), self._coerce(q)
        if {p.u, p.v} == {q.u, q.v}:
            return abs(self._offset_from(p, p.u) - self._offset_from(q, p.u))
        return min(
            self._offset_from(p, x) + self._vdist[x][y] + self._offset_from(q, y)
            for x in (p.u, p.v)
            for y in (q.u, q.v)
        )

    def _pieces(self, p: TreePoint, q: TreePoint):
        """The p-q geodesic as pieces (a, b, start, sign, length): along edge
        a-b from offset `start` (measured from a) in direction `sign`."""
        if {p.u, p.v} == {q.u, q.v}:
            op, oq = p.offset, self._offset_from(q, p.u)
            return [(p.u, p.v, op, 1.0 if oq >= op else -1.0, abs(oq - op))]
        x, y = min(
            ((a, b) for a in (p.u, p.v) for b in (q.u, q.v)),
            key=lambda xy: self._offset_from(p, xy[0])
            + self._vdist[xy[0]][xy[1]]
            + self._offset_from(q, xy[1]),
        )
        path = [y]
        while path[-1] != x:
            path.append(self._parent[x][path[-1]])
        path.reverse()
        o1 = self._offset_from(p, x)
        return (
            [(x, p.v if x == p.u else p.u, o1, -1.0, o1)]
            + [(a, b, 0.0, 1.0, self.adj[a][b]) for a, b in zip(path, path[1:])]
            + [(y, q.v if y == q.u else q.u, 0.0, 1.0, self._offset_from(q, y))]
        )

    def geodesic(self, p, q, t: float):
        p, q = self._coerce(p), self._coerce(q)
        d = self.distance(p, q)
        if d < 1e-15:
            return p
        s = t * d
        pieces = self._pieces(p, q)
        k = 0
        while k < len(pieces) - 1 and s > pieces[k][4] + 1e-15:
            s -= pieces[k][4]
            k += 1
        a, b, start, sign, length = pieces[k]
        return TreePoint(a, b, start + sign * min(s, length))

    def geodesic_breakpoints(self, p, q):
        """Arclength fractions in (0, 1) where the p-q geodesic meets vertices.

        Useful for samplers that want nodes exactly at branch points, where
        the geodesic changes edge and pullback metrics develop creases.
        """
        p, q = self._coerce(p), self._coerce(q)
        d = self.distance(p, q)
        if d < 1e-15:
            return []
        fracs = np.cumsum([piece[4] for piece in self._pieces(p, q)[:-1]]) / d
        return [float(f) for f in fracs if 1e-9 < f < 1.0 - 1e-9]

    def as_array(self, points) -> np.ndarray:
        """Tree points as an (N, 2) array of edge index and offset."""
        out = np.empty((len(points), 2))
        for i, p in enumerate(points):
            p = self._coerce(p)
            e = self._edge_index[p.u, p.v]
            u, _, w = self.edges[e]
            out[i] = e, p.offset if p.u == u else w - p.offset
        return out

    def distance_arrays(self, X, Y) -> np.ndarray:
        """Distances between row-aligned (N, 2) array points: |offset
        difference| on a shared edge, else the shortest of the four routes
        through the edges' endpoints."""
        ex, ey = X[:, 0].astype(np.intp), Y[:, 0].astype(np.intp)
        ox, oy = X[:, 1], Y[:, 1]
        rx, ry = self._lengths[ex] - ox, self._lengths[ey] - oy
        (ax, bx), (ay, by) = self._ends[ex].T, self._ends[ey].T
        D = self._vmat
        d = np.minimum(
            np.minimum(ox + D[ax, ay] + oy, ox + D[ax, by] + ry),
            np.minimum(rx + D[bx, ay] + oy, rx + D[bx, by] + ry),
        )
        return np.where(ex == ey, np.abs(ox - oy), d)

    def triangle_tables(self, corners):
        """Per-triangle tables of `triangle_means` for (p0, p1, p2) triples.

        Three tree points span a tripod with median c and legs of length
        L_i = d(p_i, c) = (d_ij + d_ik - d_jk) / 2.  Leg i is stored as the
        pieces of the geodesic from p_i to the other corner farther from c,
        which passes through c: the arclength where each piece starts
        (padded with inf), its edge index, its offset there and direction.
        """
        P = self.as_array([p for tri in corners for p in tri]).reshape(-1, 3, 2)
        sides = ((1, 2), (2, 0), (0, 1))
        d = np.column_stack([self.distance_arrays(P[:, j], P[:, k]) for j, k in sides])
        legs = np.maximum(0.5 * (d.sum(axis=1, keepdims=True) - 2.0 * d), 0.0)
        paths = [
            self._pieces(tri[i], tri[j] if L[j] >= L[k] else tri[k])
            for tri, L in zip(corners, legs)
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        ]
        shape = (len(paths), max(map(len, paths)))
        starts, offs, signs = np.full(shape, np.inf), np.zeros(shape), np.zeros(shape)
        edges = np.zeros(shape, dtype=np.intp)
        for r, path in enumerate(paths):
            acc = 0.0
            for c, (a, b, start, sign, length) in enumerate(path):
                e = self._edge_index[a, b]
                forward = a == self.edges[e][0]
                starts[r, c], edges[r, c] = acc, e
                offs[r, c] = start if forward else self.edges[e][2] - start
                signs[r, c] = sign if forward else -sign
                acc += length
        shape = (len(legs), 3, shape[1])
        return legs, *(a.reshape(shape) for a in (starts, edges, offs, signs))

    def triangle_means(self, tables, tri_idx, weight_rows) -> np.ndarray:
        """Frechet means, as (N, 2) array points, of the triangles `tri_idx`
        of `tables` under rows of barycentric weights.

        On leg i at distance x from c, sum_j w_j d(., p_j)^2 is least at
        x_i = 2 w_i L_i - sum_j w_j L_j (rows normalised to sum 1).  At most
        one x_i is positive, and x_i <= w_i L_i; the mean is c when none is.
        Barycentres in CAT(0) spaces are unique (Sturm, "Probability measures
        on metric spaces of nonpositive curvature", 2003), so this is the
        minimizer of `barycenter`.
        """
        legs, starts, edges, offs, signs = tables
        W = np.asarray(weight_rows, dtype=float)
        W = W / W.sum(axis=1, keepdims=True)
        L = legs[tri_idx]
        x = 2.0 * W * L - (W * L).sum(axis=1, keepdims=True)
        rows = np.arange(len(W))
        leg = np.argmax(x, axis=1)
        s = L[rows, leg] - np.maximum(x[rows, leg], 0.0)
        at = starts[tri_idx, leg]
        k = np.maximum((at <= s[:, None]).sum(axis=1) - 1, 0)
        e = edges[tri_idx, leg, k]
        o = offs[tri_idx, leg, k] + signs[tri_idx, leg, k] * (s - at[rows, k])
        return np.column_stack([e, np.clip(o, 0.0, self._lengths[e])])

    def random_point(self, rng):
        i = int(rng.choice(len(self.edges), p=self._lengths / self._lengths.sum()))
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
                du, dv = self._vertex_distance_to(u, p), self._vertex_distance_to(v, p)
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
        """Frechet means of three anchors under many weight rows at once.

        The closed form of `triangle_means`; rows may contain zeros but must
        not be all-zero.
        """
        W = np.asarray(weight_rows, dtype=float)
        if len(points) != 3 or W.ndim != 2 or W.shape[1] != 3:
            raise ValueError("three anchors and three weights per row required")
        if np.any(W < 0) or np.any(W.sum(axis=1) <= 0):
            raise ValueError("rows must be nonnegative with positive sum")
        tables = self.triangle_tables([points])
        X = self.triangle_means(tables, np.zeros(len(W), dtype=np.intp), W)
        return [TreePoint(*self.edges[int(e)][:2], float(o)) for e, o in X]

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

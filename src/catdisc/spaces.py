"""Geodesic metric-space oracles: model surfaces, Euclidean space, metric trees
and flat cones.

Every backend provides distance, geodesic interpolation (proportional to
arclength), curve length, a weighted squared-distance barycenter, a Fermat
point (weighted sum-of-distances minimizer) and seeded point sampling.
Backends are immutable after construction.

The induced oracle's array interface (`distance_arrays`, `triangle_tables`,
`triangle_means`, `polyline_lengths`) runs on the `steiner` kernels for
Euclidean and model-surface coordinates, on (edge index, offset) rows for
trees, and on object arrays of ConePoints for cones.  `distance_blocks`,
`geodesics` and `chains` give what `distance` and `geodesic` give, bit for
bit; by default they call them once per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub, truediv

import numpy as np

from . import model
from .errors import BackendMismatchError, ConfigError, OutOfConvexityError
from .model import Kappa, ModelPoint, _mapped, _row_dots
from .steiner import _batch_bary_interp, _batch_distance, _row_sums, tri_point


def _block_matrices(blocks, rows, pair_distances):
    """Distance matrices of (sources, targets) blocks from one array pass
    over all their pairs: `rows` turns each side into an array of point
    rows, and `pair_distances` measures row-aligned pairs of them."""
    sides = [(rows(sources), rows(targets)) for sources, targets in blocks]
    d = pair_distances(
        np.concatenate([np.repeat(S, len(T), axis=0) for S, T in sides]),
        np.concatenate([T for S, T in sides for _ in range(len(S))]),
    )
    ends = np.cumsum([len(S) * len(T) for S, T in sides])
    return [d[e - len(S) * len(T):e].reshape(len(S), len(T)) for e, (S, T) in zip(ends.tolist(), sides)]


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
        """Distances between row-aligned array points, for the induced
        oracle's interpolant; may round differently from `distance`."""
        raise NotImplementedError

    def distance_blocks(self, blocks):
        """Distance matrices of (sources, targets) blocks, each entry as
        `distance` gives it; by default one call per pair."""
        return [[[self.distance(s, t) for t in targets] for s in sources]
                for sources, targets in blocks]

    def geodesics(self, p, q, T):
        """The points `geodesic(p, q, t)` for each fraction t of the array T,
        in a form `distance_blocks` takes; by default one call per fraction."""
        return [self.geodesic(p, q, t) for t in T.tolist()]

    def chains(self, ends, fracs):
        """Chain points and chain step lengths of geodesics: for each
        (p, q) of `ends`, the points `geodesic(p, q, f)` at the fractions f
        of its row of `fracs`, and the `distance` of each step of the chain
        p, points..., q.  Returns the points of all chains in one list, and
        one row of step lengths per chain; by default one call per point
        and per step."""
        points, steps = [], []
        for (p, q), kept in zip(ends, fracs):
            chain = [p, *(self.geodesic(p, q, f) for f in kept), q]
            points.extend(chain[1:-1])
            steps.append([self.distance(a, b) for a, b in zip(chain, chain[1:])])
        return points, steps

    def triangle_tables(self, corners):
        """Per-triangle tables of `triangle_means` for (p0, p1, p2) triples."""
        return list(corners)

    def polyline_lengths(self, points, chains) -> np.ndarray:
        """Lengths of polylines through array points, by `distance_arrays`:
        row c of `chains` indexes the points of polyline c."""
        shape = (-1, *points.shape[1:])
        d = self.distance_arrays(
            points.take(chains[:, :-1], axis=0).reshape(shape),
            points.take(chains[:, 1:], axis=0).reshape(shape),
        )
        return _row_sums(d.reshape(len(chains), -1))

    def triangle_means(self, tables, tri_idx, weight_rows) -> np.ndarray:
        """The triangle interpolant, as array points, in the triangles
        `tri_idx` of `tables` at rows of barycentric weights."""
        out = np.empty(len(tri_idx), dtype=object)
        for i, (t, w) in enumerate(zip(tri_idx, weight_rows)):
            out[i] = tri_point(self, tables[t], w)
        return out

    def _check_barycenter_spread(self, points):
        """Refuse points whose spread reaches R_kappa/2; never with an
        infinite R_kappa, so the O(k^2) spread is skipped there."""
        if self.r_kappa < math.inf and self.spread(points) >= self.r_kappa / 2.0:
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


# Newton steps of one `EuclideanSpace.length_minimum` call, at most.
NEWTON_MAX_STEPS = 100


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
        # What np.linalg.norm computes for a real vector, bit for bit.
        d = self._coerce(p) - self._coerce(q)
        return math.sqrt(d.dot(d))

    def geodesic(self, p, q, t: float):
        return (1.0 - t) * self._coerce(p) + t * self._coerce(q)

    def random_point(self, rng):
        return rng.uniform(-1.0, 1.0, size=self.n)

    def distance_arrays(self, X, Y) -> np.ndarray:
        return _batch_distance(0.0, X, Y)

    def chains(self, ends, fracs):
        """`TargetSpace.chains` in one array pass over chains with rows of
        `fracs` of one length: (1 - f) p + f q, and the square roots of the
        steps' dot products, as `geodesic` and `distance` compute them."""
        P = np.array([[self._coerce(p), self._coerce(q)] for p, q in ends]).reshape(-1, 2, self.n)
        F = np.array(fracs, dtype=float).reshape(len(P), -1, 1)
        X = (1.0 - F) * P[:, :1] + F * P[:, 1:]
        C = np.concatenate([P[:, :1], X, P[:, 1:]], axis=1)
        D = C[:, :-1] - C[:, 1:]
        steps = np.sqrt(_row_dots(D.reshape(-1, self.n))).reshape(len(P), -1)
        return list(X.reshape(-1, self.n)), steps

    def triangle_tables(self, corners):
        """Corner coordinates as a (3, n, triangles) table, coordinate-major."""
        return np.ascontiguousarray(
            np.array([[self._coerce(p) for p in tri] for tri in corners]).reshape(-1, 3, self.n).transpose(1, 2, 0)
        )

    def triangle_means(self, tables, tri_idx, weight_rows) -> np.ndarray:
        """The interpolant on an (N, 3, n) view of (3, n, N) corners: every
        elementwise pass loops over N points per coordinate, and the means
        come as an (N, n) view of (n, N) rows."""
        corners = tables.take(tri_idx, axis=2).transpose(2, 0, 1)
        return _batch_bary_interp(0.0, corners, weight_rows)

    def polyline_lengths(self, points, chains) -> np.ndarray:
        """`TargetSpace.polyline_lengths`, gathering coordinate-major means
        by coordinate rows.  The row sums of distances with 8 or more
        coordinates would round differently on that layout, so those points
        are gathered row by row."""
        if self.n >= 8:
            return super().polyline_lengths(points, chains)
        P = points.T
        d = self.distance_arrays(P.take(chains[:, :-1].ravel(), axis=1).T,
                                 P.take(chains[:, 1:].ravel(), axis=1).T)
        return _row_sums(d.reshape(len(chains), -1))

    def barycenter(self, points, weights=None):
        pts, w = self._normalized_weights(points, weights)
        arr = np.array([self._coerce(p) for p in pts])
        return w @ arr

    def fermat_point(self, points, weights=None):
        """Minimizer of sum_i w_i |x - a_i|, from the weighted mean.

        Each iteration takes the Newton step on that sum when it lowers the
        sum (Newton converges in a few steps where Weiszfeld contracts at a
        rate close to 1, next to an anchor whose pull barely exceeds its
        weight), else the Weiszfeld point.  The loop runs on Python floats:
        a NumPy call per iteration costs more than the arithmetic.
        """
        pts, w = self._normalized_weights(points, weights)
        arr = np.array([self._coerce(p) for p in pts])
        anchors, cols, ws = arr.tolist(), arr.T.tolist(), w.tolist()
        x = (w @ arr).tolist()
        # Set once a step is below 1e-14; the point it reached still takes
        # the anchor test, so an optimal anchor is returned exactly.
        done = False
        for _ in range(10000):
            d = list(map(math.dist, anchors, repeat(x)))
            if min(d) < 1e-14:
                # Anchor is optimal iff the pull of the others fits its weight.
                hit = next(i for i, di in enumerate(d) if di < 1e-14)
                pull = [
                    sum(wi / di * (ak - xk) for ak, wi, di in zip(col, ws, d) if di >= 1e-14)
                    for col, xk in zip(cols, x)
                ]
                size = math.hypot(*pull)
                if size <= ws[hit] + 1e-15:
                    return arr[hit]
                x = [xk + 1e-9 * pk / max(size, 1e-300) for xk, pk in zip(x, pull)]
                done = False
                continue
            if done:
                return np.array(x)
            coef = list(map(truediv, ws, d))
            total = sum(coef)
            x_new = [sum(map(mul, coef, col)) / total for col in cols]
            # Gradient sum_i w_i u_i and Hessian sum_i (w_i/d_i)(I - u_i u_i^T)
            # of the sum at x, with u_i = (x - a_i)/d_i, by coordinate; the
            # Hessian is singular when x and the anchors are collinear.
            U = [[(xk - ak) / di for ak, di in zip(col, d)] for col, xk in zip(cols, x)]
            cU = [list(map(mul, coef, u)) for u in U]
            hess = [
                [(total if j == k else 0.0) - sum(map(mul, cu, v)) for k, v in enumerate(U)]
                for j, cu in enumerate(cU)
            ]
            step = _solve(hess, [sum(map(mul, ws, u)) for u in U])
            if step is not None:
                newton = list(map(sub, x, step))
                value = sum(map(mul, ws, map(math.dist, anchors, repeat(newton))))
                if value < sum(map(mul, ws, d)):
                    x_new = newton
            done = math.dist(x_new, x) < 1e-14
            x = x_new
        return np.array(x)

    def length_minimum(self, pairs, X, movable) -> list:
        """Minimize L = sum of |X[i] - X[j]| over the rows (i, j) of `pairs`
        by moving the points X[movable] of the (points, n) array X, in place.
        Returns one (L, largest point move) row per Newton step.

        L is convex, and smooth where no row has length zero, so damped
        Newton converges quadratically there (Overton, Math. Prog. 1983).
        The gradient sums the rows' unit vectors u and the Hessian their
        blocks (I - u u^T)/d, d the row's length; a Cholesky factor gives
        the step, which is halved until L, measured by its change along the
        step, does not rise.  The loop stops once a step would move no point
        by more than rounding.  It gives up, keeping the best X, when a row
        at a movable point is shorter than 1e-14, when the Hessian is not
        positive definite (one-dimensional targets, collinear stars), when
        no halving lowers L, or after NEWTON_MAX_STEPS steps.
        """
        pairs = np.asarray(pairs)
        pi, pj = pairs.T
        a, b = pairs[movable[pairs].any(axis=1)].T
        if not len(a):
            return []
        F, k = np.flatnonzero(movable), self.n
        # Coordinate indices: nk in all, cf of the movable points, ca and cb
        # of each row's ends.  A row adds its block to Hessian blocks (a, a)
        # and (b, b) and subtracts it from (a, b) and (b, a), and adds its
        # unit vector to the gradient at a and subtracts it at b; the rows
        # and columns of fixed points are then dropped.
        kk, nk = np.arange(k), len(X) * k
        cf = (F[:, None] * k + kk).ravel()
        ca, cb = a[:, None] * k + kk, b[:, None] * k + kk
        hr, hc = np.concatenate([ca, cb, ca, cb]), np.concatenate([ca, cb, cb, ca])
        h_idx = (hr[:, :, None] * nk + hc[:, None, :]).ravel()
        h_sign = np.repeat([1.0, 1.0, -1.0, -1.0], len(a))[:, None, None]
        g_idx = np.concatenate([ca, cb]).ravel()
        pick = np.ix_(cf, cf)
        tiny = 16.0 * np.finfo(float).eps * max(1.0, float(np.abs(X).max()))
        out = []
        for _ in range(NEWTON_MAX_STEPS):
            D = X[a] - X[b]
            d = np.sqrt(np.einsum("ij,ij->i", D, D))
            if d.min() < 1e-14:
                break
            U = D / d[:, None]
            B = (np.eye(k) - U[:, :, None] * U[:, None, :]) / d[:, None, None]
            H = np.bincount(h_idx, (h_sign * np.concatenate([B] * 4)).ravel(), nk * nk)
            H = H.reshape(nk, nk)[pick]
            g = np.bincount(g_idx, np.concatenate([U, -U]).ravel(), nk)[cf]
            x = _cholesky_solve(H, g)
            if x is None:
                break
            P = np.zeros_like(X)
            P[F] = -x.reshape(-1, k)
            move = float(np.sqrt(np.einsum("ij,ij->i", P, P)).max())
            if move <= tiny:
                break
            # The change of L along t * P, summed from the exact per-row
            # differences |D + s|^2 - |D|^2 = s.(2D + s), so that it stays
            # accurate where rounding swamps L itself.
            dP, t = P[a] - P[b], 1.0
            while True:
                s = t * dP
                E = D + s
                e = np.sqrt(np.einsum("ij,ij->i", E, E))
                if (np.einsum("ij,ij->i", s, D + E) / (e + d)).sum() <= 0.0:
                    break
                t *= 0.5
                if t * move <= tiny:
                    return out
            X[F] += t * P[F]
            out.append((float(self.distance_arrays(X[pi], X[pj]).sum()), t * move))
        return out


def _cholesky_solve(H, g):
    """Solution x of H x = g from the Cholesky factor of the symmetric H, or
    None when a pivot is not positive, that is when H is not positive
    definite.

    Column by column with elementwise NumPy products: LAPACK, or a BLAS
    product, would page in OpenBLAS kernels that nothing else of a
    relaxation uses, 0.3-0.6 MB of peak RSS.  g rides along as a last row
    of H, so the factor's last row is the forward solution.
    """
    n = len(g)
    A, L = np.vstack([H, g]), np.zeros((n + 1, n))
    for j in range(n):
        v = A[j:, j] - (L[j:, :j] * L[j, :j]).sum(axis=1)
        if not v[0] > 0.0:
            return None
        L[j:, j] = v / math.sqrt(v[0])
    y, x = L[n], np.empty(n)
    for j in reversed(range(n)):
        x[j] = (y[j] - (L[j + 1 : n, j] * x[j + 1 :]).sum()) / L[j, j]
    return x


def _solve(a, b):
    """Solution of the small symmetric system a y = b (lists of floats) by
    Gaussian elimination, or None unless every pivot is positive.

    Without pivoting this is stable for a positive definite `a`; a pivot
    that is not positive shows that `a` is singular or indefinite.
    """
    n = len(b)
    m = [row + [bi] for row, bi in zip(a, b)]
    for c in range(n):
        if not m[c][c] > 0.0:
            return None
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    y = [0.0] * n
    for c in reversed(range(n)):
        y[c] = (m[c][n] - sum(m[c][k] * y[k] for k in range(c + 1, n))) / m[c][c]
    return y


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
        """The interpolant's kernel on coordinate rows (`steiner`); the
        array form of `distance` itself is `model.model_distances`."""
        return _batch_distance(self.kappa.value, X, Y)

    def _coords(self, points) -> np.ndarray:
        """Coordinate rows of ModelPoints; rows from `geodesics` pass as
        they are."""
        if isinstance(points, np.ndarray):
            return points
        return np.array([self._coerce(p).coords for p in points]).reshape(-1, 3)

    def distance_blocks(self, blocks):
        return _block_matrices(
            blocks, self._coords, lambda X, Y: model.model_distances(self.kappa, X, Y)
        )

    def geodesics(self, p, q, T):
        """Coordinate rows of `geodesic(p, q, t)` for each t of T."""
        return model.geodesic_points(self.kappa, self._coerce(p), self._coerce(q), T)

    def chains(self, ends, fracs):
        """`TargetSpace.chains` with each chain's points in one
        `geodesics` call and all steps in one `model.model_distances` call,
        for rows of `fracs` of one length."""
        C = np.array([
            [p.coords, *self.geodesics(p, q, np.asarray(f, dtype=float)), q.coords]
            for (p, q), f in zip(ends, fracs)
        ]).reshape(len(ends), -1, 3)
        steps = model.model_distances(
            self.kappa, C[:, :-1].reshape(-1, 3), C[:, 1:].reshape(-1, 3)
        )
        return list(map(ModelPoint, C[:, 1:-1].reshape(-1, 3))), steps.reshape(len(C), -1)

    def triangle_tables(self, corners):
        return np.array([[self._coerce(p).coords for p in tri] for tri in corners])

    def triangle_means(self, tables, tri_idx, weight_rows) -> np.ndarray:
        return _batch_bary_interp(self.kappa.value, tables.take(tri_idx, axis=0), weight_rows)

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


# Linear solves of one `MetricTree.pair_energy_minimum` call, at most.
ACTIVE_SET_MAX_SOLVES = 10_000


def _ranges(ptr, keys):
    """(index in `keys`, position) for the positions ptr[k] .. ptr[k + 1] - 1
    of each key k in `keys`, all concatenated."""
    counts = ptr[keys + 1] - ptr[keys]
    row = np.repeat(np.arange(len(keys)), counts)
    pos = np.arange(counts.sum()) + np.repeat(ptr[keys] - np.cumsum(counts) + counts, counts)
    return row, pos


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
        self.diameter = float(self._vmat.max())
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

    def offset_terms(self, ex, ey):
        """Row-aligned (alpha, beta, gamma) with d((ex, s), (ey, t)) =
        |alpha s + beta t + gamma| for every pair of offsets on the two
        closed edges.

        On a shared edge that is |s - t|.  Otherwise the geodesic leaves each
        edge through its end nearer the other edge, which in a tree does not
        depend on the offsets, so the distance is each offset measured to
        that end plus the distance between the two ends.
        """
        (ax, bx), (ay, by) = self._ends[ex].T, self._ends[ey].T
        D = self._vmat
        x_first, y_first = D[ax, ay] < D[bx, ay], D[ay, ax] < D[by, ax]
        x, y = np.where(x_first, ax, bx), np.where(y_first, ay, by)
        gamma = (
            np.where(x_first, 0.0, self._lengths[ex])
            + D[x, y]
            + np.where(y_first, 0.0, self._lengths[ey])
        )
        same = ex == ey
        return (
            np.where(x_first | same, 1.0, -1.0),
            np.where(y_first & ~same, 1.0, -1.0),
            np.where(same, 0.0, gamma),
        )

    def pair_energy_minimum(self, pairs, X, movable) -> list:
        """Minimize E = sum of d(X[i], X[j])^2 over the rows (i, j) of
        `pairs` by moving the array points X[movable], in place.  Returns one
        (E, largest offset move) row per linear solve.

        With each movable point's edge fixed, E = |A t + c|^2 in the offsets
        t (`offset_terms`), on the box 0 <= t <= w_e.  A primal active set
        minimizes it: solve the normal equations (dense, assembled entry by
        entry) for the offsets not held at a bound, then hold every offset
        that leaves the box at the bound it crosses if that lowers E, else
        step to the first bound and hold the offsets that reach it.  When a
        solve stays in the box, each movable point at a tree vertex takes the
        incident edge along which E has the most negative one-sided
        derivative, if any: its own edge releases the held offset, another
        edge moves the point onto it.  With no such edge the first-order
        conditions hold, and E is convex on the product of CAT(0) trees, so
        X is the global minimizer (Korevaar and Schoen, Comm. Anal. Geom.
        1993; Bacak, Convex Analysis and Optimization in Hadamard Spaces,
        2014).  Every movable point needs a path in `pairs` to a
        fixed one, so that each solve has a unique answer.
        """
        ends, lengths = self._ends, self._lengths
        pairs = np.asarray(pairs)
        pi, pj = pairs.T
        a, b = pairs[movable[pairs].any(axis=1)].T
        m, n = len(a), len(X)
        # Both ends of every row, stacked, and the other end of each.
        rows, at_row = np.tile(np.arange(m), 2), np.concatenate([a, b])
        other = np.concatenate([b, a])
        nbr_ptr = np.concatenate([[0], np.cumsum(np.bincount(at_row, minlength=n))])
        nbr = other[np.argsort(at_row, kind="stable")]
        inc_ptr = np.concatenate([[0], np.cumsum(np.bincount(ends.ravel()))])
        inc = np.argsort(ends.ravel(), kind="stable") // 2
        E = X[:, 0].astype(np.intp)
        T = np.clip(X[:, 1], 0.0, lengths[E])
        free = movable & (T > 0.0) & (T < lengths[E])
        # A derivative is negative when it is below -16 ulps of the sum of
        # its terms' sizes, so that rounding moves no point.
        tiny = 16.0 * np.finfo(float).eps
        out = []
        for _ in range(ACTIVE_SET_MAX_SOLVES):
            F = np.flatnonzero(free)
            if F.size:
                # Rows alpha t_a + beta t_b + gamma of A t + c; H = A_F^T A_F
                # summed entry by entry over the free offsets F.
                alpha, beta, gamma = self.offset_terms(E[a], E[b])
                coef, nf = np.concatenate([alpha, beta]), F.size
                loc = np.full(n, -1)
                loc[F] = np.arange(nf)
                li, lj = loc[at_row], loc[other]
                own, both = li >= 0, (li >= 0) & (lj >= 0)
                H = np.bincount(li[own] * (nf + 1), coef[own] ** 2, nf * nf) + np.bincount(
                    li[both] * nf + lj[both], alpha[rows[both]] * beta[rows[both]], nf * nf
                )
                fixed = np.where(free, 0.0, T)
                held = alpha * fixed[a] + beta * fixed[b] + gamma

                def residual(offsets):
                    return held + np.bincount(rows[own], coef[own] * offsets[li[own]], m)

                x = np.linalg.solve(
                    H.reshape(nf, nf), -np.bincount(li[own], coef[own] * held[rows[own]], nf)
                )
                t, w = T[F], lengths[E[F]]
                d = x - t
                with np.errstate(divide="ignore", invalid="ignore"):
                    room = np.where(d < 0.0, -t / d, np.where(d > 0.0, (w - t) / d, np.inf))
                step, new = min(1.0, room.min()), x
                if step < 1.0:
                    new, hit = np.clip(x, 0.0, w), room < 1.0
                    r, r0 = residual(new), residual(t)
                    if r @ r >= r0 @ r0:
                        hit = room <= step
                        new = np.where(hit, np.where(d < 0.0, 0.0, w), t + step * d)
                    free[F[hit]] = False
                T[F] = np.clip(new, 0.0, w)
                X[:, 0], X[:, 1] = E, T
                dist = self.distance_arrays(X[pi], X[pj])
                out.append((float((dist * dist).sum()), float(np.abs(T[F] - t).max())))
                if step < 1.0:
                    continue
            # One-sided derivatives of E at each movable point on a tree
            # vertex x, into every edge at x: d/ds of sum r^2 is 2 sum alpha r.
            at = np.flatnonzero(movable & ((T == 0.0) | (T == lengths[E])))
            x_at = np.where(T[at] == 0.0, ends[E[at], 0], ends[E[at], 1])
            k, pos = _ranges(inc_ptr, x_at)
            cv, cf = at[k], inc[pos]
            cx = np.where(ends[cf, 0] == x_at[k], 0.0, lengths[cf])
            j, pos = _ranges(nbr_ptr, cv)
            u = nbr[pos]
            alpha, beta, gamma = self.offset_terms(cf[j], E[u])
            s, o = alpha * cx[j], beta * T[u]
            slope = np.bincount(j, alpha * (s + o + gamma), len(cv))
            scale = np.bincount(j, np.abs(s) + np.abs(o) + np.abs(gamma), len(cv))
            slope = np.where(cx == 0.0, slope, -slope)
            order = np.lexsort((slope, cv))
            best = order[np.diff(cv[order], prepend=-1) != 0]
            best = best[slope[best] < -tiny * scale[best]]
            if not best.size:
                break
            v = cv[best]
            E[v], T[v], free[v] = cf[best], cx[best], True
        return out

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

    def _minimize_on_edges(self, pts, w, squared: bool):
        """Exact minimizer of sum_i w_i d(x, p_i)^2 (`squared`) or sum_i w_i
        d(x, p_i) over the tree.

        On edge e the distance to p_i is |alpha_i s + c_i| in the offset s,
        with c_i = beta_i t_i + gamma_i (`offset_terms`).  The squared sum is
        one quadratic there, least at clip(-sum_i w_i alpha_i c_i / sum_i
        w_i, 0, L_e) as alpha_i^2 = 1; the plain sum is convex and piecewise
        linear, least at 0, L_e or an anchor's offset clip(-alpha_i c_i, 0,
        L_e).  Both sums are convex on a tree, so the least value over every
        edge's candidates is the global minimum; the first such (edge, s) is
        returned.
        """
        P = self.as_array(pts)
        m, k = len(self.edges), len(pts)
        alpha, beta, gamma = self.offset_terms(
            np.repeat(np.arange(m), k), np.tile(P[:, 0].astype(np.intp), m)
        )
        alpha = alpha.reshape(m, k)
        c = (beta * np.tile(P[:, 1], m) + gamma).reshape(m, k)
        L = self._lengths[:, None]
        if squared:
            S = np.clip(-(alpha * c) @ w / w.sum(), 0.0, self._lengths)[:, None]
        else:
            S = np.hstack([np.zeros_like(L), L, np.clip(-alpha * c, 0.0, L)])
        r = alpha[:, None, :] * S[:, :, None] + c[:, None, :]
        best = int(np.argmin((r * r if squared else np.abs(r)) @ w))
        e, s = divmod(best, S.shape[1])
        return TreePoint(*self.edges[e][:2], float(S[e, s]))

    def barycenter(self, points, weights=None):
        return self._minimize_on_edges(*self._normalized_weights(points, weights), squared=True)

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
        return self._minimize_on_edges(*self._normalized_weights(points, weights), squared=False)


@dataclass(frozen=True)
class ConePoint:
    """Point (radius, angle mod total cone angle) on a flat cone."""

    r: float
    phi: float


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

    def _polar(self, points) -> np.ndarray:
        """(r, phi) rows of ConePoints, each checked by `_coerce`; float
        rows from `geodesics` pass as they are."""
        if isinstance(points, np.ndarray) and points.dtype == float:
            return points
        return np.array(
            [(c.r, c.phi) for c in map(self._coerce, points)], dtype=float
        ).reshape(-1, 2)

    def _polar_distances(self, X, Y) -> np.ndarray:
        """`distance` of row-aligned pairs of (r, phi) rows, bit for bit:
        Python's float % is np.remainder, and the cosine is math.cos."""
        r1, r2 = X[:, 0], Y[:, 0]
        delta = np.remainder(Y[:, 1] - X[:, 1], self.theta)
        gap = np.minimum(delta, self.theta - delta)
        chord = np.sqrt(np.maximum(
            r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * _mapped(math.cos, gap), 0.0
        ))
        # Radii are not negative, so the smaller is 0 where either is.
        return np.where((np.minimum(r1, r2) == 0.0) | (gap >= math.pi), r1 + r2, chord)

    def distance_arrays(self, X, Y) -> np.ndarray:
        """`distance` of row-aligned ConePoints, bit for bit."""
        return self._polar_distances(self._polar(X), self._polar(Y))

    def distance_blocks(self, blocks):
        return _block_matrices(blocks, self._polar, self._polar_distances)

    def geodesic(self, p, q, t: float):
        p, q = self._coerce(p), self._coerce(q)
        d = self.distance(p, q)
        if d < 1e-15:
            return p
        gap, sign = self._gap(p, q)
        through_apex = (p.r == 0.0 or q.r == 0.0) or gap >= math.pi
        if through_apex:
            s = t * d
            if s <= p.r:
                return ConePoint(p.r - s, p.phi if p.r > 0 else q.phi)
            return ConePoint(s - p.r, q.phi)
        # Unfold the sector spanned by the two radii into the plane.
        a = np.array([p.r, 0.0])
        b = np.array([q.r * math.cos(gap), q.r * math.sin(gap)])
        z = (1.0 - t) * a + t * b
        r = float(np.linalg.norm(z))
        if r < 1e-15:
            return ConePoint(0.0, 0.0)
        psi = math.atan2(z[1], z[0])
        return ConePoint(r, (p.phi + sign * psi) % self.theta)

    def geodesics(self, p, q, T):
        """(r, phi) rows of `geodesic(p, q, t)` for each fraction t of T, bit
        for bit, from array passes in the scalar code's order of
        operations."""
        p, q = self._coerce(p), self._coerce(q)
        d = self.distance(p, q)
        if d < 1e-15:
            return np.tile([p.r, p.phi], (len(T), 1))
        gap, sign = self._gap(p, q)
        if (p.r == 0.0 or q.r == 0.0) or gap >= math.pi:
            s = T * d
            first = s <= p.r
            r = np.where(first, p.r - s, s - p.r)
            phi = np.where(first, p.phi if p.r > 0 else q.phi, q.phi)
        else:
            b0, b1 = q.r * math.cos(gap), q.r * math.sin(gap)
            Z = np.empty((len(T), 2))
            Z[:, 0] = (1.0 - T) * p.r + T * b0
            Z[:, 1] = (1.0 - T) * 0.0 + T * b1
            r = np.sqrt(_row_dots(Z))
            psi = np.array(list(map(math.atan2, Z[:, 1].tolist(), Z[:, 0].tolist())))
            apex = r < 1e-15
            r = np.where(apex, 0.0, r)
            phi = np.where(apex, 0.0, np.remainder(p.phi + sign * psi, self.theta))
        return np.column_stack([r, phi])

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
        cost = lambda x: sum(wi * self.distance(x, p) ** 2 for wi, p in zip(w, pts))
        return self._geodesic_descent(pts, cost)

    def fermat_point(self, points, weights=None):
        pts, w = self._normalized_weights(points, weights)
        pts = [self._coerce(p) for p in pts]
        cost = lambda x: sum(wi * self.distance(x, p) for wi, p in zip(w, pts))
        return self._geodesic_descent(pts, cost)


def space_from_config(cfg: dict) -> TargetSpace:
    """Build a backend from its scenario-config description.

    A boolean where a number belongs raises ConfigError naming the field:
    `int` and `float` would read it as 0 or 1.
    """

    def number(name, value):
        if isinstance(value, bool):
            raise ConfigError(name, f"expected a number, got {value!r}")
        return value

    backend = cfg.get("backend")
    if backend == "euclidean":
        return EuclideanSpace(int(number("dim", cfg["dim"])))
    if backend == "model":
        return ModelSpace(float(number("kappa", cfg["kappa"])))
    if backend == "tree":
        return MetricTree([
            (str(u), str(v), float(number(f"edges[{i}]", w)))
            for i, (u, v, w) in enumerate(cfg["edges"])
        ])
    if backend == "cone":
        return FlatCone(float(number("total_angle", cfg["total_angle"])))
    raise ValueError(f"unknown backend {backend!r}")


def point_from_config(space: TargetSpace, spec):
    """Parse a point description matching the backend of `space`.

    A boolean coordinate raises ConfigError naming its index, `[i]`, as
    `space_from_config` does for the target's numbers.
    """

    def numbers(values, first=0):
        for i, value in enumerate(values, first):
            if isinstance(value, bool):
                raise ConfigError(f"[{i}]", f"expected a number, got {value!r}")
        return values

    if isinstance(space, EuclideanSpace):
        return space._coerce(numbers(spec))
    if isinstance(space, ModelSpace):
        return space.point(numbers(spec))
    if isinstance(space, MetricTree):
        u, v, off = spec
        (off,) = numbers([off], first=2)
        return TreePoint(str(u), str(v), float(off))
    if isinstance(space, FlatCone):
        r, phi = numbers(spec)
        return space.point(float(r), float(phi))
    raise ValueError(f"unsupported space {type(space).__name__}")

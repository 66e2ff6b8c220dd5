"""The Steiner-point graph of both shortest-path oracles, and the one
barycentric interpolant that fills their triangles.

`verify.InducedGraphSpace` (the induced metric of a mapped disc) and
`polyhedral.SteinerComplexGraph` (the glued comparison complex) both measure
a length metric on a triangulated disc by shortest paths on one kind of graph
(Lanthier, Maheshwari and Sack, Algorithmica 2001): the mesh vertices, a chain
of Steiner nodes along every mesh edge, and a chord between every two boundary
nodes of a triangle that do not share a side.  The caller says where the chain
nodes sit, what each chain step weighs and how long a straight segment inside
a triangle is.

The interpolant fills a triangle with corners p0, p1, p2 at barycentrics
(b0, b1, b2): take the point at fraction b1 / (b0 + b1) of the geodesic from
p0 to p1, then the point at fraction b2 of the geodesic from there to p2.
`_batch_bary_interp` is its array form on Euclidean coordinates and on the
model surfaces (3-vector embedding, see `model`), `tri_point` its per-point
form on any backend; `triangle_means` of every backend but the tree is one
of them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix

# Chords per call of a caller's segment-length function.
CHORD_BLOCK = 1024


def _batch_geodesic(k: float, X, Y, T):
    """Vectorized constant-curvature geodesic points; X, Y (N,3), T (N,)."""
    T = np.asarray(T, dtype=float)[:, None]
    if k == 0.0:
        return X + T * (Y - X)
    if k > 0:
        s = math.sqrt(k)
        chord = np.linalg.norm(X - Y, axis=1)
        phi = 2.0 * np.arcsin(np.clip(0.5 * chord * s, 0.0, 1.0))[:, None]
        sl = np.sin(phi)
        safe = sl > 1e-12
        P = np.where(
            safe,
            (np.sin((1.0 - T) * phi) * X + np.sin(T * phi) * Y)
            / np.where(safe, sl, 1.0),
            X,
        )
        # Renormalize onto the radius 1/sqrt(k) sphere.
        return P / (s * np.linalg.norm(P, axis=1))[:, None]
    s = math.sqrt(-k)
    mink = X[:, 0] * Y[:, 0] + X[:, 1] * Y[:, 1] - X[:, 2] * Y[:, 2]
    psi = np.arccosh(np.maximum(-mink * (-k), 1.0))[:, None]
    sh = np.sinh(psi)
    safe = sh > 1e-12
    P = np.where(
        safe,
        (np.sinh((1.0 - T) * psi) * X + np.sinh(T * psi) * Y)
        / np.where(safe, sh, 1.0),
        X,
    )
    q = -(P[:, 0] ** 2 + P[:, 1] ** 2 - P[:, 2] ** 2)
    return P / np.sqrt(q * (-k))[:, None]


def _batch_distance(k: float, X, Y):
    """Vectorized constant-curvature distances between row-aligned points."""
    if k == 0.0:
        D = X - Y
        return np.sqrt(_row_sums(D * D))
    if k > 0:
        s = math.sqrt(k)
        chord = np.linalg.norm(X - Y, axis=1)
        return 2.0 * np.arcsin(np.clip(0.5 * chord * s, 0.0, 1.0)) / s
    s = math.sqrt(-k)
    # Stable half-chord form, matching model.model_distance.
    D = X - Y
    msq = np.maximum(
        (D[:, 0] ** 2 + D[:, 1] ** 2 - D[:, 2] ** 2) * (-k), 0.0
    )
    return 2.0 * np.arcsinh(0.5 * np.sqrt(msq)) / s


def _row_sums(a):
    """What a.sum(axis=1) computes, bit for bit.  NumPy adds fewer than 8
    columns in order, and then a sum column by column is the faster."""
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def _batch_bary_interp(k: float, corners, B):
    """The interpolant, vectorized over rows of B; `corners` (N, 3, d) holds
    each row's triangle corners."""
    b0, b1, b2 = B[:, 0], B[:, 1], B[:, 2]
    denom = np.maximum(b0 + b1, 1e-15)
    M = _batch_geodesic(k, corners[:, 0], corners[:, 1], b1 / denom)
    return _batch_geodesic(k, M, corners[:, 2], b2)


def tri_point(space, corners, bary):
    """The interpolant at one point, through the backend's own geodesics."""
    b0, b1, b2 = bary
    if b0 + b1 < 1e-15:
        return corners[2]
    m = space.geodesic(corners[0], corners[1], b1 / (b0 + b1))
    return space.geodesic(m, corners[2], b2)


class SteinerGraph:
    """Node numbering and triangle boundaries of a Steiner graph.

    Nodes 0 .. n_vertices - 1 are the mesh vertices.  The chain nodes of each
    edge (u, v), u < v, follow in the order of `edges`, at the ascending
    interior fractions `fracs[i]` measured from u: `counts[i]` nodes from
    `first[i]` on.  Triangle t's boundary
    nodes are rows `ptr[t]:ptr[t + 1]` of `nodes`, `bary` and `sides`: its
    three sides in turn from corner 0, each without its end corner.  Bit k of
    `sides` is set on the nodes of side (corner k, corner k + 1).

    Every table is filled by array passes over all edges and triangle sides.
    """

    def __init__(self, n_vertices: int, edges, fracs, tris):
        self.edges = np.asarray(edges, dtype=int).reshape(-1, 2)
        tris = np.asarray(tris, dtype=int).reshape(-1, 3)
        self.counts = np.array([len(f) for f in fracs], dtype=int)
        off = np.cumsum(self.counts) - self.counts
        self.first = n_vertices + off
        self.n_nodes = int(n_vertices) + int(self.counts.sum())
        # Each edge's interior fractions, after a 0.0 that stands for the
        # side's first corner.
        fr = np.concatenate([[0.0], *(np.asarray(f, dtype=float).ravel() for f in fracs)])
        # Sides (corner k, corner k + 1) of every triangle, t-major, and the
        # edge of each.
        a, b = tris.ravel(), np.roll(tris, -1, axis=1).ravel()
        n = int(n_vertices)
        keys = self.edges[:, 0] * n + self.edges[:, 1]
        side_keys = np.minimum(a, b) * n + np.maximum(a, b)
        by_key = np.argsort(keys)
        side_edge = by_key[np.searchsorted(keys, side_keys, sorter=by_key).clip(0, len(keys) - 1)]
        if not np.array_equal(keys[side_edge], side_keys):
            raise ValueError("a triangle side is not among the edges")
        # Each side's rows: its first corner, then its chain nodes from there.
        n_rows = 1 + self.counts[side_edge]
        side = np.repeat(np.arange(len(a)), n_rows)
        j = np.arange(len(side)) - np.repeat(np.cumsum(n_rows) - n_rows, n_rows)
        e, k = side_edge[side], side % 3
        fwd = (a < b)[side]
        i = np.where(fwd, j - 1, self.counts[e] - j)
        self.nodes = np.where(j == 0, a[side], self.first[e] + i)
        f = fr[np.where(j == 0, 0, off[e] + i + 1)]
        f = np.where(fwd | (j == 0), f, 1.0 - f)
        self.ptr = np.r_[0, np.cumsum(n_rows.reshape(-1, 3).sum(axis=1))]
        # 1 - f and f on the side's corners, as eye[k] + f * (eye[k + 1] -
        # eye[k]) gives them.
        rows = np.arange(len(side))
        self.bary = np.zeros((len(side), 3))
        self.bary[rows, k] = 1.0 - f
        self.bary[rows, (k + 1) % 3] = f
        self.sides = (1 << k) | np.where(j == 0, 1 << ((k - 1) % 3), 0)

    def boundary(self, t):
        """Boundary nodes, barycentrics and side bits of triangle t."""
        lo, hi = self.ptr[t], self.ptr[t + 1]
        return self.nodes[lo:hi], self.bary[lo:hi], self.sides[lo:hi]

    def gather(self, tri_idx):
        """Boundary rows of the triangles `tri_idx`, concatenated: the index
        into `tri_idx` of each row and its row in `nodes` and `bary`."""
        counts = np.diff(self.ptr)[tri_idx]
        owner = np.repeat(np.arange(len(tri_idx)), counts)
        first = np.repeat(self.ptr[tri_idx] - np.cumsum(counts) + counts, counts)
        return owner, first + np.arange(len(owner))

    def csr(self, steps, segment_lengths, extra=None):
        """The graph's symmetric CSR matrix.

        `steps[i]` weighs the chain steps of `edges[i]`;
        `segment_lengths(tri_idx, starts, ends)` returns the lengths of the
        straight segments between barycentric rows of the triangles
        `tri_idx`, and weighs every chord from the later boundary node to the
        earlier one.  `extra` holds more (rows, cols, weights) entries.
        """
        # Every pair of a triangle's boundary rows, later row first, in the
        # order of np.tril_indices, triangle after triangle.
        m = np.diff(self.ptr)
        tri = np.repeat(np.arange(len(m)), m - 1)
        later = np.arange(len(tri)) - np.repeat(np.cumsum(m - 1) - (m - 1), m - 1) + 1
        tri = np.repeat(tri, later)
        earlier = np.arange(len(tri)) - np.repeat(np.cumsum(later) - later, later)
        starts = self.ptr[tri] + np.repeat(later, later)
        ends = self.ptr[tri] + earlier
        cross = (self.sides[starts] & self.sides[ends]) == 0
        tri_idx, starts, ends = tri[cross], starts[cross], ends[cross]
        # Chain steps: edge i walks u, its chain nodes, v.
        n_steps = self.counts + 1
        edge = np.repeat(np.arange(len(n_steps)), n_steps)
        s = np.arange(len(edge)) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
        ids = self.first[edge] + s
        rows = [np.where(s == 0, self.edges[edge, 0], ids - 1), self.nodes[starts]]
        cols = [np.where(s == self.counts[edge], self.edges[edge, 1], ids), self.nodes[ends]]
        # In blocks, so the callers' sample arrays stay a few MB.
        blocks = [slice(i, i + CHORD_BLOCK) for i in range(0, len(tri_idx), CHORD_BLOCK)]
        weights = [*steps, *(
            segment_lengths(tri_idx[b], self.bary[starts[b]], self.bary[ends[b]]) for b in blocks
        )]
        for acc, more in zip((rows, cols, weights), extra or ()):
            acc.append(more)
        return min_csr(self.n_nodes, *map(np.concatenate, (rows, cols, weights)))


def min_csr(n: int, rows, cols, weights):
    """Symmetric n x n CSR matrix of the entries; duplicate entries (in either
    orientation) would sum in CSR, so the least weight is kept instead, the
    first given of equal ones."""
    weights = np.asarray(weights, dtype=float)
    key = np.minimum(rows, cols) * np.int64(n) + np.maximum(rows, cols)
    order = np.argsort(key)
    first = np.r_[True, key[order[1:]] != key[order[:-1]]]
    if not first.all():
        # Order each repeated pair's entries by weight, then as given.
        rep = np.flatnonzero(~first | np.r_[~first[1:], False])
        sub = np.sort(order[rep])
        order[rep] = sub[np.lexsort((weights[sub], key[sub]))]
    order = order[first]
    lo, hi = np.divmod(key[order], n)
    w = weights[order]
    # Freed before the CSR conversion, whose arrays set the peak memory.
    del key, order, first
    return coo_matrix(
        (np.r_[w, w], (np.r_[lo, hi], np.r_[hi, lo])), shape=(n, n)
    ).tocsr()


def append_nodes(base, n_new: int, rows, cols, weights):
    """`base` grown by n_new temporary nodes; entry i joins node rows[i] and
    node cols[i] (numbered in the grown graph) both ways."""
    total = base.shape[0] + n_new
    b = base.tocoo()
    w = np.asarray(weights, dtype=float)
    return coo_matrix(
        (np.r_[b.data, w, w], (np.r_[b.row, rows, cols], np.r_[b.col, cols, rows])),
        shape=(total, total),
    ).tocsr()

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
        return np.linalg.norm(X - Y, axis=1)
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
    interior fractions `fracs[i]` measured from u.  Triangle t's boundary
    nodes are rows `ptr[t]:ptr[t + 1]` of `nodes`, `bary` and `sides`: its
    three sides in turn from corner 0, each without its end corner.  Bit k of
    `sides` is set on the nodes of side (corner k, corner k + 1).
    """

    def __init__(self, n_vertices: int, edges, fracs, tris):
        self.chains = {}
        nxt = int(n_vertices)
        for (u, v), fr in zip(edges, fracs):
            ids = list(range(nxt, nxt + len(fr)))
            nxt += len(fr)
            self.chains[(int(u), int(v))] = ([int(u), *ids, int(v)], np.r_[0.0, fr, 1.0])
        self.n_nodes = nxt
        eye = np.eye(3)
        nodes, bary, sides, ptr = [], [], [], [0]
        for tri in tris:
            for k in range(3):
                chain, fr = self._side(tri[k], tri[(k + 1) % 3])
                mask = np.full(len(fr) - 1, 1 << k)
                mask[0] |= 1 << ((k - 1) % 3)
                nodes.extend(chain[:-1])
                bary.append(eye[k] + fr[:-1, None] * (eye[(k + 1) % 3] - eye[k]))
                sides.append(mask)
            ptr.append(len(nodes))
        self.ptr = np.array(ptr)
        self.nodes = np.array(nodes, dtype=int)
        self.bary = np.concatenate(bary)
        self.sides = np.concatenate(sides)

    def _side(self, a, b):
        """Chain nodes and fractions of side a -> b."""
        if a < b:
            return self.chains[(a, b)]
        chain, fr = self.chains[(b, a)]
        return chain[::-1], 1.0 - fr[::-1]

    def boundary(self, t):
        """Boundary nodes, barycentrics and side bits of triangle t."""
        lo, hi = self.ptr[t], self.ptr[t + 1]
        return self.nodes[lo:hi], self.bary[lo:hi], self.sides[lo:hi]

    def gather(self, tri_idx):
        """Boundary rows of the triangles `tri_idx`, concatenated: the index
        into `tri_idx` of each row and its row in `nodes` and `bary`."""
        owner = np.repeat(np.arange(len(tri_idx)), np.diff(self.ptr)[tri_idx])
        rows = [np.arange(self.ptr[t], self.ptr[t + 1]) for t in tri_idx]
        return owner, np.concatenate(rows)

    def csr(self, steps, segment_lengths, extra=None):
        """The graph's symmetric CSR matrix.

        `steps[i]` weighs the chain steps of `edges[i]`;
        `segment_lengths(tri_idx, starts, ends)` returns the lengths of the
        straight segments between barycentric rows of the triangles
        `tri_idx`, and weighs every chord from the later boundary node to the
        earlier one.  `extra` holds more (rows, cols, weights) entries.
        """
        tri_idx, starts, ends = [], [], []
        for t, lo in enumerate(self.ptr[:-1]):
            i, j = np.tril_indices(self.ptr[t + 1] - lo, -1)
            cross = (self.sides[lo + i] & self.sides[lo + j]) == 0
            tri_idx.append(np.full(int(cross.sum()), t))
            starts.append(lo + i[cross])
            ends.append(lo + j[cross])
        tri_idx = np.concatenate(tri_idx)
        starts, ends = np.concatenate(starts), np.concatenate(ends)
        chains = [chain for chain, _ in self.chains.values()]
        rows = [*(c[:-1] for c in chains), self.nodes[starts]]
        cols = [*(c[1:] for c in chains), self.nodes[ends]]
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
    orientation) would sum in CSR, so the least weight is kept instead."""
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    order = np.lexsort((weights, hi, lo))
    lo, hi, w = lo[order], hi[order], np.asarray(weights)[order]
    first = np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
    lo, hi, w = lo[first], hi[first], w[first]
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

"""Length and connecting pseudometrics induced by a vertex-mapped graph.

The length pseudometric of a map restricted to graph curves is computed
exactly as all-pairs shortest paths with edge weights given by image
distances; zero-distance vertex classes are merged into a quotient metric.
The connecting pseudometric minimizes the image diameter over connected
vertex sets containing the two endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import NotLengthConnectedError
from .mesh import MappedGraph

# Vertices at shortest-path image distance below this are one quotient class.
ZERO_CLASS_TOL = 1e-12

EXACT_CONNECTING_LIMIT = 20


def _edge_weight_matrix(mg: MappedGraph):
    edges = mg.mesh.edges
    w = mg.edge_lengths()
    n = mg.mesh.n_vertices
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return coo_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n)).tocsr()


def vertex_distance_table(mg: MappedGraph) -> np.ndarray:
    """All-pairs shortest-path distances with image-distance edge weights."""
    dist = dijkstra(_edge_weight_matrix(mg), directed=False)
    if np.isinf(dist).any():
        raise NotLengthConnectedError("graph is disconnected")
    return dist


@dataclass(frozen=True, eq=False)
class QuotientMetric:
    """Length metric space induced by a mapped graph, after zero-class merge."""

    vertex_class: np.ndarray
    class_dist: np.ndarray
    representatives: tuple

    @property
    def n_classes(self) -> int:
        return len(self.representatives)

    def distance(self, x: int, z: int) -> float:
        """Induced length distance between two original vertices."""
        return float(
            self.class_dist[self.vertex_class[x], self.vertex_class[z]]
        )


def induced_length_metric(mg: MappedGraph) -> QuotientMetric:
    """Quotient of the graph by the induced length pseudometric."""
    dist = vertex_distance_table(mg)
    n = dist.shape[0]
    # Merge zero-distance classes with a union-find over near-zero pairs.
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in np.flatnonzero(dist[i, :i] <= ZERO_CLASS_TOL):
            ri, rj = find(i), find(int(j))
            if ri != rj:
                parent[ri] = rj

    roots = sorted({find(i) for i in range(n)})
    class_of_root = {r: c for c, r in enumerate(roots)}
    vertex_class = np.array([class_of_root[find(i)] for i in range(n)])
    reps = tuple(roots)
    class_dist = dist[np.ix_(roots, roots)].copy()
    np.fill_diagonal(class_dist, 0.0)
    return QuotientMetric(vertex_class, class_dist, reps)


def quotient_is_monotone(mg: MappedGraph, qm: QuotientMetric) -> bool:
    """Each zero-distance class must induce a connected subgraph."""
    for c in range(qm.n_classes):
        members = set(np.flatnonzero(qm.vertex_class == c).tolist())
        start = next(iter(members))
        seen, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for w in mg.mesh.neighbors(u):
                if w in members and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != members:
            return False
    return True


def _image_distance_matrix(mg: MappedGraph) -> np.ndarray:
    n = mg.mesh.n_vertices
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            d[i, j] = d[j, i] = mg.space.distance(mg.images[i], mg.images[j])
    return d


def connecting_metric_pairs(mg: MappedGraph, pairs, mode: str = "exact") -> list[float]:
    """Connecting pseudometric for many vertex pairs in one pass.

    Exact mode (graphs up to 20 vertices) makes one array pass over all 2^n
    vertex subsets, in blocks by highest bit, with about 5.5 * 2^n bytes of
    tables: an int32 neighbour mask and a uint8 image-diameter rank per subset.
    Connected subsets are found by an array flood fill, and each pair takes
    the least diameter over connected subsets holding both endpoints; values
    are exact image distances.  anchor2approx grows image balls around anchor
    vertices and returns, per pair, the smallest connecting radius, which
    lies in [exact/2, exact].
    """
    n = mg.mesh.n_vertices
    pairs = [(int(x), int(z)) for x, z in pairs]
    if any(not (0 <= v < n) for pair in pairs for v in pair):
        raise ValueError(f"pair vertex outside [0, {n})")
    imgd = _image_distance_matrix(mg)

    if mode == "exact":
        if n > EXACT_CONNECTING_LIMIT:
            raise ValueError(
                f"exact mode limited to {EXACT_CONNECTING_LIMIT} vertices"
            )
        # Ranks into the sorted distinct distances (at most 191, so 255 is free
        # to mark a disconnected subset) stand in for diameters: the largest
        # rank is the rank of the largest distance.
        values, ranks = np.unique(imgd, return_inverse=True)
        ranks = ranks.reshape(n, n).astype(np.uint8)
        nb = np.zeros(1 << n, dtype=np.int32)
        diam = np.zeros(1 << n, dtype=np.uint8)
        for b in range(n):
            lo = 1 << b
            far = np.zeros(1, dtype=np.uint8)  # max rank from b into m < lo
            for c in range(b):
                far = np.concatenate([far, np.maximum(far, ranks[b, c])])
            nb[lo:2 * lo] = nb[:lo] | sum(1 << v for v in mg.mesh.neighbors(b))
            np.maximum(diam[:lo], far, out=diam[lo:2 * lo])
        for start in range(1, 1 << n, 4096):
            m = np.arange(start, min(start + 4096, 1 << n), dtype=np.int32)
            comp = m & -m
            while not np.array_equal(grown := (comp | nb[comp]) & m, comp):
                comp = grown
            diam[start:start + len(m)][comp != m] = 255  # not connected
        cube = diam.reshape((2,) * n)  # axis n - 1 - v holds bit v
        out = []
        for x, z in pairs:
            at = [slice(None)] * n
            at[n - 1 - x] = at[n - 1 - z] = 1
            r = int(cube[tuple(at)].min())
            out.append(0.0 if x == z else np.inf if r == 255 else float(values[r]))
        return out

    if mode == "anchor2approx":
        best = {pair: (0.0 if pair[0] == pair[1] else np.inf) for pair in pairs}
        open_pairs = [p for p in pairs if p[0] != p[1]]
        for anchor in range(n):
            radii = imgd[anchor]
            order = np.argsort(radii, kind="stable")
            parent = list(range(n))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            added = np.zeros(n, dtype=bool)
            unresolved = set(open_pairs)
            for v in order:
                v = int(v)
                added[v] = True
                for u in mg.mesh.neighbors(v):
                    if added[u]:
                        ru, rv = find(u), find(v)
                        if ru != rv:
                            parent[ru] = rv
                done = []
                for pair in unresolved:
                    x, z = pair
                    if added[x] and added[z] and find(x) == find(z):
                        best[pair] = min(best[pair], float(radii[v]))
                        done.append(pair)
                unresolved.difference_update(done)
                if not unresolved:
                    break
        return [best[pair] for pair in pairs]

    raise ValueError(f"unknown mode {mode!r}")


def connecting_metric(mg: MappedGraph, x: int, z: int, mode: str = "exact") -> float:
    """Connecting pseudometric of a single vertex pair; see connecting_metric_pairs."""
    return connecting_metric_pairs(mg, [(x, z)], mode=mode)[0]


@dataclass(frozen=True)
class MetricComparison:
    """Sampled check that connecting <= length pseudometric (tau is 1-Lipschitz).

    `mode` is the `connecting_metric_pairs` mode used.  An "anchor2approx"
    value lies in [exact/2, exact], so there `ok` is one-sided: False proves
    connecting > length, True does not rule it out; `two_sided` is True only
    where connecting <= length is proved.
    """

    pairs: tuple
    connecting: tuple
    length: tuple
    max_ratio: float
    strict_pairs: tuple
    mode: str = "exact"

    @property
    def ok(self) -> bool:
        return self.max_ratio <= 1.0 + 1e-9

    @property
    def two_sided(self) -> bool:
        # exact <= 2 * anchor2approx, so 2c <= l proves connecting <= length.
        if self.mode == "exact":
            return self.ok
        return all(2.0 * c <= l + 1e-9 for c, l in zip(self.connecting, self.length))


def compare_metrics(
    mg: MappedGraph, max_pairs: int = 50, seed: int = 0
) -> MetricComparison:
    """Compare |x-z|_f against <x-z>_f on sampled (or all) vertex pairs.

    In exact mode on one graph, connecting <= length holds by construction:
    the vertex set of a shortest path is connected, holds both endpoints, and
    its image diameter is at most the path's length.  So `ok` there is a
    sanity check of the code, not evidence about the map.
    """
    n = mg.mesh.n_vertices
    qm = induced_length_metric(mg)
    mode = "exact" if n <= EXACT_CONNECTING_LIMIT else "anchor2approx"
    all_pairs = [(i, j) for i in range(n) for j in range(i)]
    if len(all_pairs) > max_pairs:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(all_pairs), size=max_pairs, replace=False)
        pairs = [all_pairs[int(i)] for i in sorted(idx)]
    else:
        pairs = all_pairs
    conn = connecting_metric_pairs(mg, pairs, mode=mode)
    leng, ratios, strict = [], [], []
    for (x, z), c in zip(pairs, conn):
        l = qm.distance(x, z)
        leng.append(l)
        ratios.append(c / l if l > 1e-15 else (0.0 if c <= 1e-15 else np.inf))
        if c < l - 1e-12:
            strict.append((x, z))
    return MetricComparison(
        pairs=tuple(pairs),
        connecting=tuple(float(c) for c in conn),
        length=tuple(leng),
        max_ratio=float(max(ratios, default=0.0)),
        strict_pairs=tuple(strict),
        mode=mode,
    )

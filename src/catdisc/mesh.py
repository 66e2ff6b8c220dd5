"""Simplicial disc triangulations and vertex-mapped graphs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .spaces import TargetSpace


@dataclass(frozen=True, eq=False)
class DiscMesh:
    """Triangulated disc: vertex coordinates, triangles, derived adjacency.

    Validates the disc topology on construction: Euler characteristic
    V - E + F = 1, no edge in more than two triangles, and a single boundary
    cycle.  `edges` holds the sorted vertex pairs in ascending order;
    `tri_edges[t, k]` is the edge id of side (corner k, corner k + 1) of
    triangle t, and `edge_tris[e]` the triangles owning edge e in ascending
    order, with -1 in the second slot on boundary edges.
    """

    coords: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray = field(init=False)
    tri_edges: np.ndarray = field(init=False, repr=False)
    edge_tris: np.ndarray = field(init=False, repr=False)
    boundary: np.ndarray = field(init=False)
    _neighbors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        tris = np.asarray(self.triangles, dtype=int)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "triangles", tris)

        sides = np.stack([tris, np.roll(tris, -1, axis=1)], axis=2).reshape(-1, 2)
        edges, side_edge, count = np.unique(
            np.sort(sides, axis=1), axis=0, return_inverse=True, return_counts=True
        )
        side_edge = side_edge.ravel()
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "tri_edges", side_edge.reshape(-1, 3))

        nv, ne, nf = len(coords), len(edges), len(tris)
        if nv - ne + nf != 1:
            raise ValueError(f"not a disc: V-E+F = {nv}-{ne}+{nf} != 1")
        if (count > 2).any():
            raise ValueError("non-manifold edge (in more than 2 triangles)")
        # Sides sorted by edge, stably, so each edge's owners ascend.
        order = np.argsort(side_edge, kind="stable")
        slot = np.arange(len(order)) - (np.cumsum(count) - count)[side_edge[order]]
        edge_tris = np.full((ne, 2), -1)
        edge_tris[side_edge[order], slot] = order // 3
        object.__setattr__(self, "edge_tris", edge_tris)

        bnd = edges[edge_tris[:, 1] < 0]
        degree = np.bincount(bnd.ravel(), minlength=nv)
        boundary = degree > 0
        if (degree[boundary] != 2).any():
            raise ValueError("boundary is not a union of cycles")
        # Each interior vertex is a component of the boundary graph, and so
        # is each boundary cycle.
        n_comp, _ = connected_components(
            coo_matrix((np.ones(len(bnd)), bnd.T), shape=(nv, nv)), directed=False
        )
        if n_comp != nv - boundary.sum() + 1:
            raise ValueError("boundary is not a single cycle")
        object.__setattr__(self, "boundary", boundary)
        # The edges ascend, so each neighbor list does.
        nbrs: list[list[int]] = [[] for _ in coords]
        for a, b in edges.tolist():
            nbrs[a].append(b)
            nbrs[b].append(a)
        object.__setattr__(self, "_neighbors", tuple(map(tuple, nbrs)))

    @property
    def n_vertices(self) -> int:
        return len(self.coords)

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v in ascending order (a fresh list)."""
        return list(self._neighbors[v])

    def cyclic_neighbors(self, v: int) -> list[int]:
        """Neighbors of v sorted counterclockwise around its disc coordinates."""
        c = self.coords[v]
        return sorted(
            self.neighbors(v),
            key=lambda u: math.atan2(
                self.coords[u][1] - c[1], self.coords[u][0] - c[0]
            ),
        )

    def interior_vertices(self) -> list[int]:
        return [v for v in range(self.n_vertices) if not self.boundary[v]]


def grid_mesh(n_a: int, n_t: int | None = None) -> DiscMesh:
    """(n_a x n_t)-cell grid over [0,1]^2, cells split by alternating diagonals."""
    if n_t is None:
        n_t = n_a
    if n_a < 1 or n_t < 1:
        raise ValueError("grid needs at least one cell per side")
    nv_a, nv_t = n_a + 1, n_t + 1
    coords = np.array(
        [[i / n_a, j / n_t] for j in range(nv_t) for i in range(nv_a)]
    )
    idx = lambda i, j: j * nv_a + i
    tris = []
    for j in range(n_t):
        for i in range(n_a):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            if (i + j) % 2 == 0:
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
            else:
                tris.append((v00, v10, v01))
                tris.append((v10, v11, v01))
    return DiscMesh(coords, np.array(tris))


def grid_index(n_a: int, n_t: int, i: int, j: int) -> int:
    """Vertex index of grid node (i, j) in grid_mesh(n_a, n_t)."""
    return j * (n_a + 1) + i


def triangle_fan(k: int) -> DiscMesh:
    """k triangles around vertex 0 at the origin, the rim on the unit circle."""
    if k < 3:
        raise ValueError("fan needs at least 3 triangles")
    coords = [(0.0, 0.0)]
    for i in range(k):
        ang = 2.0 * math.pi * i / k
        coords.append((math.cos(ang), math.sin(ang)))
    tris = [(0, 1 + i, 1 + (i + 1) % k) for i in range(k)]
    return DiscMesh(np.array(coords), np.array(tris))


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Plain finite graph for metric experiments that need no disc structure."""

    n: int
    edge_list: tuple
    _neighbors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        nbrs: list[set] = [set() for _ in range(self.n)]
        for a, b in self.edge_list:
            nbrs[int(a)].add(int(b))
            nbrs[int(b)].add(int(a))
        object.__setattr__(self, "_neighbors", tuple(tuple(sorted(s)) for s in nbrs))

    @property
    def n_vertices(self) -> int:
        return self.n

    @property
    def edges(self) -> np.ndarray:
        return np.array(sorted(tuple(sorted(e)) for e in self.edge_list), dtype=int)

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v in ascending order (a fresh list)."""
        return list(self._neighbors[v])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)))


@dataclass(eq=False)
class MappedGraph:
    """Finite disc graph with vertex images in a target space.

    `fixed` is the vertex set Z that relaxation may not move; it defaults to
    the boundary and must be nonempty.
    """

    mesh: DiscMesh
    space: TargetSpace
    images: list
    fixed: frozenset = None

    def __post_init__(self):
        if len(self.images) != self.mesh.n_vertices:
            raise ValueError("one image per vertex required")
        if self.fixed is None:
            if not hasattr(self.mesh, "boundary"):
                raise ValueError("fixed set required for graphs without boundary")
            self.fixed = frozenset(np.flatnonzero(self.mesh.boundary).tolist())
        else:
            self.fixed = frozenset(int(v) for v in self.fixed)
        if not self.fixed:
            raise ValueError("fixed vertex set must be nonempty")

    def edge_length(self, u: int, v: int) -> float:
        return self.space.distance(self.images[u], self.images[v])

    def edge_lengths(self) -> np.ndarray:
        return np.array([self.edge_length(u, v) for u, v in self.mesh.edges])

    def total_length(self) -> float:
        return float(self.edge_lengths().sum())

    def with_images(self, images) -> "MappedGraph":
        return MappedGraph(self.mesh, self.space, list(images), self.fixed)

"""Simplicial disc triangulations and vertex-mapped graphs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import TargetSpace


@dataclass(frozen=True, eq=False)
class DiscMesh:
    """Triangulated disc: vertex coordinates, triangles, derived adjacency.

    Validates the disc topology on construction: Euler characteristic
    V - E + F = 1 and a single boundary cycle.
    """

    coords: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray = field(init=False)
    boundary: np.ndarray = field(init=False)
    _neighbors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        tris = np.asarray(self.triangles, dtype=int)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "triangles", tris)

        edge_count: dict[tuple[int, int], int] = {}
        for tri in tris:
            for i in range(3):
                e = tuple(sorted((int(tri[i]), int(tri[(i + 1) % 3]))))
                edge_count[e] = edge_count.get(e, 0) + 1
        edges = np.array(sorted(edge_count), dtype=int)
        object.__setattr__(self, "edges", edges)

        nv, ne, nf = len(coords), len(edges), len(tris)
        if nv - ne + nf != 1:
            raise ValueError(f"not a disc: V-E+F = {nv}-{ne}+{nf} != 1")
        if any(c > 2 for c in edge_count.values()):
            raise ValueError("non-manifold edge (in more than 2 triangles)")

        boundary_edges = [e for e, c in edge_count.items() if c == 1]
        boundary = np.zeros(nv, dtype=bool)
        bnd_adj: dict[int, list[int]] = {}
        for u, v in boundary_edges:
            boundary[u] = boundary[v] = True
            bnd_adj.setdefault(u, []).append(v)
            bnd_adj.setdefault(v, []).append(u)
        if any(len(nb) != 2 for nb in bnd_adj.values()):
            raise ValueError("boundary is not a union of cycles")
        # Walk the cycle from an arbitrary boundary vertex; it must close up
        # after visiting every boundary vertex exactly once.
        start = boundary_edges[0][0]
        seen, prev, cur = {start}, None, start
        while True:
            nxt = [v for v in bnd_adj[cur] if v != prev]
            prev, cur = cur, nxt[0]
            if cur == start:
                break
            if cur in seen:
                raise ValueError("boundary is not a single cycle")
            seen.add(cur)
        if len(seen) != int(boundary.sum()):
            raise ValueError("boundary is not a single cycle")
        object.__setattr__(self, "boundary", boundary)
        nbrs: list[list[int]] = [[] for _ in coords]
        for a, b in edges.tolist():
            nbrs[a].append(b)
            nbrs[b].append(a)
        object.__setattr__(
            self, "_neighbors", tuple(tuple(sorted(nb)) for nb in nbrs)
        )

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


def triangle_fan(k: int, radius: float = 1.0) -> DiscMesh:
    """k triangles around one interior vertex (vertex 0 = center)."""
    if k < 3:
        raise ValueError("fan needs at least 3 triangles")
    coords = [(0.0, 0.0)]
    for i in range(k):
        ang = 2.0 * math.pi * i / k
        coords.append((radius * math.cos(ang), radius * math.sin(ang)))
    tris = [(0, 1 + i, 1 + (i + 1) % k) for i in range(k)]
    return DiscMesh(np.array(coords), np.array(tris))


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Plain finite graph for metric experiments that need no disc structure."""

    n: int
    edge_list: tuple

    @property
    def n_vertices(self) -> int:
        return self.n

    @property
    def edges(self) -> np.ndarray:
        return np.array(sorted(tuple(sorted(e)) for e in self.edge_list), dtype=int)

    def neighbors(self, v: int) -> list[int]:
        out = set()
        for a, b in self.edge_list:
            if a == v:
                out.add(int(b))
            elif b == v:
                out.add(int(a))
        return sorted(out)


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

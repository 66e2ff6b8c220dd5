"""Glued constant-curvature triangle complexes built from mapped discs.

Every mesh triangle becomes a comparison triangle in M_kappa with sides
equal to the image distances of its vertices; the cells are glued along the
mesh adjacency.  The resulting complex W comes with a projection p from mesh
vertices and a sampled map q back to the target, checked to be 1-Lipschitz.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import EpsilonBoundError
from .mesh import MappedGraph
from .minimize import _comparison_angle
from .model import ComparisonTriangle, Kappa, build_comparison_triangle
from .steiner import (
    SteinerGraph,
    _batch_bary_interp,
    _batch_distance,
    append_nodes,
    tri_point,
)

GLUE_TOL = 1e-9


@dataclass(frozen=True)
class ComplexPoint:
    """Point of a PolyComplex: a cell index plus barycentric coordinates."""

    cell: int
    bary: tuple

    def __post_init__(self):
        b = tuple(float(x) for x in self.bary)
        if len(b) != 3 or any(x < -1e-12 for x in b) or abs(sum(b) - 1.0) > 1e-9:
            raise ValueError("barycentric coordinates must be a convex triple")
        object.__setattr__(self, "bary", b)


@dataclass(frozen=True, eq=False)
class TriangleCell:
    """One glued cell: its chart triangle and the mesh vertices it covers."""

    chart: ComparisonTriangle
    mesh_vertices: tuple

    @property
    def degeneracy(self):
        return self.chart.degeneracy


@dataclass(frozen=True, eq=False)
class PolyComplex:
    """Constant-curvature triangle complex glued along a disc mesh.

    Gluing mirrors the mesh combinatorics: cells sharing a mesh edge are
    identified along the corresponding sides, which have equal lengths by
    construction (asserted within 1e-9 anyway).
    """

    kappa: Kappa
    cells: tuple
    mesh: object

    def __post_init__(self):
        side_len: dict[tuple, float] = {}
        for cell in self.cells:
            vs = cell.mesh_vertices
            a, b, c = cell.chart.sides
            for edge, length in (
                ((vs[1], vs[2]), a),
                ((vs[2], vs[0]), b),
                ((vs[0], vs[1]), c),
            ):
                key = tuple(sorted(edge))
                if key in side_len and abs(side_len[key] - length) > GLUE_TOL:
                    raise ValueError(
                        f"glued side {key} has mismatched lengths "
                        f"{side_len[key]} vs {length}"
                    )
                side_len[key] = length
        object.__setattr__(self, "_side_len", side_len)

    def side_length(self, u: int, v: int) -> float:
        return self._side_len[tuple(sorted((int(u), int(v))))]

    def vertex_link(self, v: int) -> list[float]:
        """Corner angles around mesh vertex v in cyclic order; degenerate
        cells contribute nothing (their corners are identified away)."""
        incident = []
        for cell in self.cells:
            if v in cell.mesh_vertices and cell.degeneracy is None:
                corner = cell.mesh_vertices.index(v)
                incident.append((cell, corner))
        order = {
            u: k for k, u in enumerate(self.mesh.cyclic_neighbors(v))
        }
        incident.sort(
            key=lambda ic: min(
                order[u] for u in ic[0].mesh_vertices if u != v and u in order
            )
        )
        return [ic[0].chart.angles[ic[1]] for ic in incident]

    def to_json(self) -> str:
        payload = {
            "kappa": self.kappa.value,
            "cells": [
                {
                    "mesh_vertices": [int(v) for v in cell.mesh_vertices],
                    "sides": list(cell.chart.sides),
                    "angles": list(cell.chart.angles),
                    "degeneracy": cell.degeneracy,
                }
                for cell in self.cells
            ],
            "gluing": [
                {"side": [int(u), int(v)], "length": l}
                for (u, v), l in sorted(self._side_len.items())
            ],
        }
        return json.dumps(payload, sort_keys=True)

    def to_svg_net(self, scale: float = 100.0) -> str:
        """Unfold the cells into the plane along a dual spanning tree.

        Cell i is mesh triangle i, so the mesh's adjacency tables are the
        cells' gluing."""
        mesh = self.mesh
        placed: dict[int, dict[int, np.ndarray]] = {}
        # Place cell 0 with its first side on the x-axis, then unfold
        # neighbors across already-placed shared sides.
        stack = [0]
        placed[0] = self._plant_first_cell()
        while stack:
            ci = stack.pop()
            for e in mesh.tri_edges[ci].tolist():
                for cj in mesh.edge_tris[e].tolist():
                    if cj < 0 or cj in placed:
                        continue
                    placed[cj] = self._unfold_across(
                        cj, mesh.edges[e].tolist(), placed[ci]
                    )
                    stack.append(cj)
        pts = np.array([p for pos in placed.values() for p in pos.values()])
        lo = pts.min(axis=0) - 0.1
        span = max(float((pts.max(axis=0) - lo).max()), 1e-9)
        polys = []
        for ci, pos in sorted(placed.items()):
            vs = self.cells[ci].mesh_vertices
            corners = " ".join(
                f"{scale * (pos[v][0] - lo[0]) / span:.2f},"
                f"{scale * (pos[v][1] - lo[1]) / span:.2f}"
                for v in vs
            )
            polys.append(
                f'<polygon points="{corners}" fill="none" stroke="black" '
                f'stroke-width="0.5"/>'
            )
        body = "\n".join(polys)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {scale} '
            f'{scale}">\n{body}\n</svg>\n'
        )

    def _plant_first_cell(self) -> dict[int, np.ndarray]:
        cell = self.cells[0]
        vs = cell.mesh_vertices
        a, b, c = cell.chart.sides
        alpha = cell.chart.angles[0]
        return {
            vs[0]: np.array([0.0, 0.0]),
            vs[1]: np.array([c, 0.0]),
            vs[2]: np.array([b * math.cos(alpha), b * math.sin(alpha)]),
        }

    def _unfold_across(self, cj, shared, anchor_pos) -> dict[int, np.ndarray]:
        vs = self.cells[cj].mesh_vertices
        u, v = shared
        w = next(x for x in vs if x not in shared)
        pu, pv = anchor_pos[u], anchor_pos[v]
        du = self.side_length(u, w)
        dv = self.side_length(v, w)
        base = np.linalg.norm(pv - pu)
        if base < 1e-12:
            return {u: pu, v: pv, w: pu + np.array([du, 0.0])}
        # Planar two-circle intersection, mirrored away from the anchor cell.
        x = (base * base + du * du - dv * dv) / (2.0 * base)
        y = math.sqrt(max(du * du - x * x, 0.0))
        e1 = (pv - pu) / base
        e2 = np.array([-e1[1], e1[0]])
        return {u: pu, v: pv, w: pu + x * e1 - y * e2}


@dataclass(frozen=True, eq=False)
class DiscreteMapPair:
    """Projection p (mesh vertex -> complex point) and sampled map q back to
    the target, agreeing with the input map on the fixed set within 1e-9."""

    complex: PolyComplex
    mg: MappedGraph
    p: dict

    def __post_init__(self):
        for v in self.mg.fixed:
            img = self.q(self.p[v])
            if self.mg.space.distance(img, self.mg.images[v]) > 1e-9:
                raise ValueError(f"q(p(v)) != f(v) on fixed vertex {v}")

    def q(self, pt: ComplexPoint):
        """Comparison map of one cell: the interpolant of `steiner` through
        the target images of the cell's mesh vertices."""
        cell = self.complex.cells[pt.cell]
        imgs = [self.mg.images[v] for v in cell.mesh_vertices]
        return tri_point(self.mg.space, imgs, pt.bary)


def build_polyhedral_disc(
    mg: MappedGraph, epsilon: float, kappa: float | None = None
):
    """Glue one comparison triangle per mesh triangle (Key-Lemma construction).

    Requires every triangle's image diameter to be at most epsilon with
    epsilon < R_kappa/2, so all comparison triangles exist and are unique.
    """
    if kappa is None:
        kappa = (
            mg.space.curvature_bound
            if math.isfinite(mg.space.curvature_bound)
            else 0.0
        )
    kap = Kappa(kappa)
    if epsilon <= 0 or epsilon >= kap.r_kappa / 2.0:
        raise EpsilonBoundError(
            f"epsilon {epsilon} outside (0, R_kappa/2 = {kap.r_kappa / 2.0})"
        )
    cells = []
    for ti, tri in enumerate(mg.mesh.triangles):
        i, j, k = (int(v) for v in tri)
        a = mg.edge_length(j, k)
        b = mg.edge_length(k, i)
        c = mg.edge_length(i, j)
        if max(a, b, c) > epsilon:
            raise EpsilonBoundError(
                f"triangle {ti} has image diameter {max(a, b, c):.6g} > "
                f"epsilon {epsilon:.6g}"
            )
        cells.append(
            TriangleCell(build_comparison_triangle(kap, a, b, c), (i, j, k))
        )
    complex_ = PolyComplex(kap, tuple(cells), mg.mesh)
    vertex_cell = {}
    for ci, cell in enumerate(cells):
        for corner, v in enumerate(cell.mesh_vertices):
            if v not in vertex_cell:
                bary = [0.0, 0.0, 0.0]
                bary[corner] = 1.0
                vertex_cell[v] = ComplexPoint(ci, tuple(bary))
    pair = DiscreteMapPair(complex_, mg, vertex_cell)
    return complex_, pair


@dataclass(frozen=True)
class PolyAngleReport:
    # Rows (vertex, angle sum, flagged) for interior mesh vertices.
    entries: tuple
    tol: float = 1e-6

    @property
    def min_total(self) -> float:
        return min(
            (t for _, t, fl in self.entries if not fl), default=math.inf
        )

    @property
    def ok(self) -> bool:
        return all(t >= 2.0 * math.pi - self.tol for _, t, fl in self.entries if not fl)


def interior_angle_check(complex_: PolyComplex) -> PolyAngleReport:
    """Cyclic corner-angle sums at interior vertices; pass iff all >= 2pi."""
    entries = []
    for v in complex_.mesh.interior_vertices():
        link = complex_.vertex_link(v)
        entries.append((v, float(sum(link)), len(link) == 0))
    return PolyAngleReport(entries=tuple(entries))


def corner_angle_comparison(
    complex_: PolyComplex, mg: MappedGraph, probe_scale: float = 1e-3
) -> float:
    """Max shortfall of chart corner angles below the measured target angles.

    Comparison angles in M_kappa are at least the Alexandrov angles between
    the corresponding image geodesics; returns the worst violation (<= 0 when
    the comparison direction holds).
    """
    worst = -math.inf
    for cell in complex_.cells:
        if cell.degeneracy is not None:
            continue
        vs = cell.mesh_vertices
        for corner in range(3):
            p = mg.images[vs[corner]]
            q1 = mg.images[vs[(corner + 1) % 3]]
            q2 = mg.images[vs[(corner + 2) % 3]]
            measured = _comparison_angle(
                mg.space, complex_.kappa, p, q1, q2, probe_scale
            )
            worst = max(worst, measured - cell.chart.angles[corner])
    return worst if math.isfinite(worst) else 0.0


class SteinerComplexGraph:
    """Shortest-path oracle on a complex: the Steiner graph of its mesh
    (`steiner.SteinerGraph`) with `refinement` equally spaced nodes per side,
    every segment measured in its cell's own chart through the interpolant."""

    def __init__(self, complex_: PolyComplex, refinement: int = 8):
        if refinement < 0:
            raise ValueError("refinement must be >= 0")
        self.complex = complex_
        self.refinement = refinement
        self._k = complex_.kappa.value
        self._charts = np.array(
            [[p.coords for p in cell.chart.vertices] for cell in complex_.cells]
        )
        sides = list(complex_._side_len)
        fracs = [(m + 1) / (refinement + 1) for m in range(refinement)]
        self._core = SteinerGraph(
            complex_.mesh.n_vertices, sides, [fracs] * len(sides),
            [cell.mesh_vertices for cell in complex_.cells],
        )
        self.n_nodes = self._core.n_nodes
        steps = [
            np.full(refinement + 1, complex_._side_len[s] / (refinement + 1))
            for s in sides
        ]
        self.graph = self._core.csr(steps, self._chart_lengths)

    def _chart_points(self, cells, bary):
        return _batch_bary_interp(self._k, self._charts[cells], bary)

    def _chart_lengths(self, cells, starts, ends):
        return _batch_distance(
            self._k, self._chart_points(cells, starts), self._chart_points(cells, ends)
        )

    def distance_rows(self, sources, targets) -> np.ndarray:
        """Upper-bound intrinsic distances between complex points.

        Temporary nodes for every point are appended to the graph, wired to
        the boundary nodes of their cells and to the other points in their
        cells by in-chart distances.
        """
        pts = list(sources) + list(targets)
        n = self.n_nodes
        cells = np.array([pt.cell for pt in pts], dtype=int)
        P = self._chart_points(cells, np.array([pt.bary for pt in pts]))
        owner, rows = self._core.gather(cells)
        to_nodes = _batch_distance(
            self._k, P[owner], self._chart_points(cells[owner], self._core.bary[rows])
        )
        i, j = np.nonzero(np.tril(cells[:, None] == cells[None, :], -1))
        mat = append_nodes(
            self.graph, len(pts),
            np.r_[n + owner, n + i], np.r_[self._core.nodes[rows], n + j],
            np.r_[to_nodes, _batch_distance(self._k, P[i], P[j])],
        )
        dist = dijkstra(mat, directed=False, indices=np.arange(n, n + len(sources)))
        return dist[:, n + len(sources):]


@functools.lru_cache(maxsize=4)
def _complex_graph(complex_: PolyComplex, refinement: int) -> SteinerComplexGraph:
    """The Steiner graph of a complex, built once per (complex, refinement)
    among the last few used; complexes hash by identity, and `distance_rows`
    leaves a graph as it was."""
    return SteinerComplexGraph(complex_, refinement)


def intrinsic_distance(
    complex_: PolyComplex, a: ComplexPoint, b: ComplexPoint, refinement: int = 8
) -> float:
    """Steiner-graph upper bound on the intrinsic distance of two points."""
    return float(_complex_graph(complex_, refinement).distance_rows([a], [b])[0, 0])


@dataclass(frozen=True)
class LipschitzReport:
    n_pairs: int
    max_ratio: float
    max_edge_shortfall: float
    tol: float = 1e-3

    @property
    def ok(self) -> bool:
        return (
            self.max_ratio <= 1.0 + self.tol
            and self.max_edge_shortfall <= GLUE_TOL
        )


def _sample_points(complex_: PolyComplex, count: int, rng) -> list[ComplexPoint]:
    cells = rng.integers(0, len(complex_.cells), size=count)
    bary = rng.dirichlet(np.ones(3), size=count)
    return [
        ComplexPoint(int(ci), tuple(b)) for ci, b in zip(cells, bary)
    ]


def lipschitz_check(
    pair: DiscreteMapPair,
    complex_: PolyComplex,
    samples: int = 1000,
    refinement: int = 4,
    seed: int = 0,
) -> LipschitzReport:
    """q must be 1-Lipschitz: target distances of sampled point pairs never
    exceed the intrinsic upper bound (1e-3 slack for Steiner error); edge
    image lengths must not drop below the glued side lengths."""
    rng = np.random.default_rng(seed)
    pts_a = _sample_points(complex_, samples, rng)
    pts_b = _sample_points(complex_, samples, rng)
    graph = _complex_graph(complex_, refinement)
    max_ratio = 0.0
    chunk = 100
    for lo in range(0, samples, chunk):
        sa = pts_a[lo : lo + chunk]
        sb = pts_b[lo : lo + chunk]
        dw = graph.distance_rows(sa, sb)
        for i, (p1, p2) in enumerate(zip(sa, sb)):
            dy = pair.mg.space.distance(pair.q(p1), pair.q(p2))
            w = float(dw[i, i])
            if w > 1e-12:
                max_ratio = max(max_ratio, dy / w)
            elif dy > 1e-9:
                max_ratio = math.inf
    shortfall = 0.0
    for u, v in pair.mg.mesh.edges:
        side = complex_.side_length(int(u), int(v))
        img = pair.mg.edge_length(int(u), int(v))
        shortfall = max(shortfall, side - img)
    return LipschitzReport(
        n_pairs=samples, max_ratio=float(max_ratio), max_edge_shortfall=shortfall
    )


@dataclass(frozen=True)
class DensityReport:
    epsilon: float
    slack: float
    max_gap: float

    @property
    def ok(self) -> bool:
        return self.max_gap <= self.epsilon + self.slack


def epsilon_density_check(
    pair: DiscreteMapPair,
    complex_: PolyComplex,
    mg: MappedGraph,
    epsilon: float,
    samples: int = 200,
    refinement: int = 4,
    seed: int = 0,
) -> DensityReport:
    """p(mesh vertices) must be epsilon-dense in W (plus Steiner slack)."""
    rng = np.random.default_rng(seed)
    pts = _sample_points(complex_, samples, rng)
    anchors = [pair.p[v] for v in sorted(pair.p)]
    graph = _complex_graph(complex_, refinement)
    gaps = graph.distance_rows(pts, anchors).min(axis=1)
    max_side = max(complex_._side_len.values(), default=0.0)
    return DensityReport(
        epsilon=float(epsilon),
        slack=max_side / (refinement + 1),
        max_gap=float(gaps.max()) if len(gaps) else 0.0,
    )


@dataclass(frozen=True)
class LoopProbeReport:
    """Heuristic falsification probe, not a proof: shortest stabilized closed
    loop found by midpoint smoothing of random edge loops."""

    n_loops: int
    shortest_stable: float
    threshold: float

    @property
    def found_short_geodesic(self) -> bool:
        return self.shortest_stable < self.threshold


def short_loop_probe(
    complex_: PolyComplex,
    n_loops: int = 100,
    refinement: int = 2,
    seed: int = 0,
) -> LoopProbeReport:
    """For kappa > 0, search for closed geodesics shorter than 2 R_kappa by
    curve-shortening random vertex loops on the Steiner graph."""
    kap = complex_.kappa
    threshold = 2.0 * kap.r_kappa
    if not math.isfinite(threshold):
        return LoopProbeReport(0, math.inf, threshold)
    graph = _complex_graph(complex_, refinement)
    dist = dijkstra(graph.graph, directed=False)
    rng = np.random.default_rng(seed)
    n = complex_.mesh.n_vertices
    shortest = math.inf
    for _ in range(n_loops):
        loop = list(rng.choice(n, size=4, replace=False))
        length = sum(
            dist[loop[i], loop[(i + 1) % len(loop)]] for i in range(len(loop))
        )
        if length >= threshold:
            continue
        # Midpoint smoothing: move each loop node to the graph node
        # minimizing the sum of distances to its two loop neighbors.
        for _ in range(50):
            moved = False
            for i in range(len(loop)):
                prev = loop[(i - 1) % len(loop)]
                nxt = loop[(i + 1) % len(loop)]
                cand = int(np.argmin(dist[prev] + dist[nxt]))
                if cand != loop[i]:
                    loop[i] = cand
                    moved = True
            if not moved:
                break
        new_len = sum(
            dist[loop[i], loop[(i + 1) % len(loop)]] for i in range(len(loop))
        )
        # Loops that shrink to a point are contractible; stabilized loops
        # whose length equals twice their diameter are doubled segments
        # (local minima of the discrete functional, not closed geodesics).
        maxd = max(
            dist[a, b] for a in loop for b in loop
        )
        if new_len > 1e-9 and new_len < 2.0 * maxd - 1e-9:
            shortest = min(shortest, float(new_len))
    return LoopProbeReport(n_loops, shortest, threshold)

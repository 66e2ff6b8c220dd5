"""Glued constant-curvature triangle complexes built from mapped discs.

Every mesh triangle becomes a comparison triangle in M_kappa with sides
equal to the image distances of its vertices; the cells are glued along the
mesh adjacency.  The resulting complex W comes with a projection p from mesh
vertices and a sampled map q back to the target, checked to be 1-Lipschitz.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import EpsilonBoundError
from .mesh import MappedGraph
from .minimize import _comparison_angle
from .model import (
    ComparisonTriangle,
    Kappa,
    build_comparison_triangle,
    geodesic_point,
    model_distance,
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
        """Unfold the cells into the plane along a dual spanning tree."""
        placed: dict[int, dict[int, np.ndarray]] = {}
        edge_cells: dict[tuple, list[int]] = {}
        for ci, cell in enumerate(self.cells):
            vs = cell.mesh_vertices
            for k in range(3):
                key = tuple(sorted((vs[k], vs[(k + 1) % 3])))
                edge_cells.setdefault(key, []).append(ci)
        # Place cell 0 with its first side on the x-axis, then unfold
        # neighbors across already-placed shared sides.
        stack = [0]
        placed[0] = self._plant_first_cell()
        while stack:
            ci = stack.pop()
            vs = self.cells[ci].mesh_vertices
            for k in range(3):
                key = tuple(sorted((vs[k], vs[(k + 1) % 3])))
                for cj in edge_cells[key]:
                    if cj in placed or cj == ci:
                        continue
                    placed[cj] = self._unfold_across(
                        cj, key, placed[ci]
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
        """Comparison map of one cell: barycentric point via iterated
        geodesics through the target images of the cell's mesh vertices."""
        cell = self.complex.cells[pt.cell]
        imgs = [self.mg.images[v] for v in cell.mesh_vertices]
        return _bary_geodesic(self.mg.space, imgs, pt.bary)


def _bary_geodesic(space, corners, bary):
    u, v, w = bary
    if v + w < 1e-15:
        return corners[0]
    m = space.geodesic(corners[1], corners[2], w / (v + w))
    return space.geodesic(corners[0], m, v + w)


def _bary_geodesic_model(kappa, corners, bary):
    u, v, w = bary
    if v + w < 1e-15:
        return corners[0]
    m = geodesic_point(kappa, corners[1], corners[2], w / (v + w))
    return geodesic_point(kappa, corners[0], m, v + w)


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
    """Shortest-path oracle on a complex: side Steiner points plus all
    intra-cell chords measured in each cell's own chart."""

    def __init__(self, complex_: PolyComplex, refinement: int = 8):
        if refinement < 0:
            raise ValueError("refinement must be >= 0")
        self.complex = complex_
        self.refinement = refinement
        self._build()

    def _build(self):
        W = self.complex
        kap = W.kappa
        n_mesh = W.mesh.n_vertices
        next_id = n_mesh
        side_nodes: dict[tuple, list[int]] = {}
        rows, cols, weights = [], [], []
        for u, v in W._side_len:
            length = W.side_length(u, v)
            chain = [u]
            for m in range(1, self.refinement + 1):
                chain.append(next_id)
                next_id += 1
            chain.append(v)
            side_nodes[(u, v)] = chain
            step = length / (self.refinement + 1)
            for a, b in zip(chain, chain[1:]):
                rows.append(a)
                cols.append(b)
                weights.append(step)
        # Per cell: chart positions of its boundary samples, all-pairs chords.
        self._cell_samples: list[tuple] = []
        for cell in W.cells:
            vs = cell.mesh_vertices
            nodes, charts = [], []
            for k in range(3):
                u, v = vs[k], vs[(k + 1) % 3]
                key = tuple(sorted((u, v)))
                chain = side_nodes[key]
                ordered = chain if key == (u, v) else chain[::-1]
                pu = cell.chart.vertices[k]
                pv = cell.chart.vertices[(k + 1) % 3]
                degenerate = W.side_length(u, v) < 1e-15
                for m, node in enumerate(ordered[:-1]):
                    nodes.append(node)
                    if m == 0 or degenerate:
                        charts.append(pu)
                    else:
                        charts.append(
                            geodesic_point(
                                kap, pu, pv, m / (self.refinement + 1)
                            )
                        )
            for i in range(len(nodes)):
                for j in range(i):
                    rows.append(nodes[i])
                    cols.append(nodes[j])
                    weights.append(model_distance(kap, charts[i], charts[j]))
            self._cell_samples.append((tuple(nodes), tuple(charts)))
        self.n_nodes = next_id
        r = np.array(rows + cols)
        c = np.array(cols + rows)
        w = np.array(weights + weights)
        # Duplicate chords keep the smallest weight.
        m = coo_matrix((w, (r, c)), shape=(self.n_nodes, self.n_nodes))
        order = np.lexsort((m.data, m.col, m.row))
        keep_r, keep_c, keep_w = [], [], []
        seen = set()
        for idx in order:
            key = (int(m.row[idx]), int(m.col[idx]))
            if key in seen:
                continue
            seen.add(key)
            keep_r.append(key[0])
            keep_c.append(key[1])
            keep_w.append(float(m.data[idx]))
        self._matrix = coo_matrix(
            (keep_w, (keep_r, keep_c)), shape=(self.n_nodes, self.n_nodes)
        ).tocsr()

    def _chart_of(self, pt: ComplexPoint):
        cell = self.complex.cells[pt.cell]
        return _bary_geodesic_model(
            self.complex.kappa, list(cell.chart.vertices), pt.bary
        )

    def distance_rows(self, sources, targets) -> np.ndarray:
        """Upper-bound intrinsic distances between complex points.

        Temporary nodes for every point are appended to the graph, wired to
        the boundary samples of their cells by in-chart distances.
        """
        pts = list(sources) + list(targets)
        kap = self.complex.kappa
        n = self.n_nodes
        extra_r, extra_c, extra_w = [], [], []
        by_cell: dict[int, list[int]] = {}
        charts = []
        for i, pt in enumerate(pts):
            charts.append(self._chart_of(pt))
            by_cell.setdefault(pt.cell, []).append(i)
        for ci, members in by_cell.items():
            nodes, cell_charts = self._cell_samples[ci]
            for i in members:
                for node, ch in zip(nodes, cell_charts):
                    extra_r.append(n + i)
                    extra_c.append(node)
                    extra_w.append(model_distance(kap, charts[i], ch))
                for j in members:
                    if j < i:
                        extra_r.append(n + i)
                        extra_c.append(n + j)
                        extra_w.append(model_distance(kap, charts[i], charts[j]))
        total = n + len(pts)
        base = self._matrix.tocoo()
        r = np.concatenate([base.row, extra_r, extra_c])
        c = np.concatenate([base.col, extra_c, extra_r])
        w = np.concatenate([base.data, extra_w, extra_w])
        mat = coo_matrix((w, (r, c)), shape=(total, total)).tocsr()
        src_idx = np.arange(n, n + len(sources))
        dist = dijkstra(mat, directed=False, indices=src_idx)
        return dist[:, n + len(sources):]


def intrinsic_distance(
    complex_: PolyComplex, a: ComplexPoint, b: ComplexPoint, refinement: int = 8
) -> float:
    """Steiner-graph upper bound on the intrinsic distance of two points."""
    graph = SteinerComplexGraph(complex_, refinement)
    return float(graph.distance_rows([a], [b])[0, 0])


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
    graph = SteinerComplexGraph(complex_, refinement)
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
    graph = SteinerComplexGraph(complex_, refinement)
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
    graph = SteinerComplexGraph(complex_, refinement)
    dist = dijkstra(graph._matrix, directed=False)
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

"""Glued comparison-triangle complexes and their curvature certificates."""

import json
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from catdisc.errors import EpsilonBoundError, GeometryError
from catdisc.mesh import MappedGraph, grid_mesh, triangle_fan
from catdisc.model import geodesic_point, model_distance
from catdisc.polyhedral import (
    ComplexPoint,
    SteinerComplexGraph,
    _complex_graph,
    _sample_points,
    build_polyhedral_disc,
    epsilon_density_check,
    interior_angle_check,
    intrinsic_distance,
    lipschitz_check,
    short_loop_probe,
)
from catdisc.spaces import EuclideanSpace, FlatCone, ModelSpace
from catdisc.steiner import _batch_distance, append_nodes
from catdisc.verify import InducedGraphSpace


def identity_square(n):
    sp = EuclideanSpace(2)
    mesh = grid_mesh(n)
    return MappedGraph(mesh, sp, [np.array(c) for c in mesh.coords])


def equilateral_fan(k):
    """k unit equilateral triangles around one vertex, via a cone target."""
    cone = FlatCone(k * math.pi / 3.0)
    fan = triangle_fan(k)
    imgs = [cone.point(0.0, 0.0)] + [
        cone.point(1.0, i * math.pi / 3.0) for i in range(k)
    ]
    return MappedGraph(fan, cone, imgs)


def test_flat_square_intrinsic_distances():
    mg = identity_square(1)
    W, pair = build_polyhedral_disc(mg, epsilon=1.5)
    d = intrinsic_distance(W, pair.p[0], pair.p[3], refinement=8)
    assert abs(d - math.sqrt(2.0)) / math.sqrt(2.0) <= 0.02
    assert intrinsic_distance(W, pair.p[0], pair.p[0], refinement=0) == 0.0


def test_single_chart_distance_exact():
    mg = identity_square(1)
    W, _pair = build_polyhedral_disc(mg, epsilon=1.5)
    a = ComplexPoint(0, (1.0, 0.0, 0.0))
    b = ComplexPoint(0, (0.0, 1.0, 0.0))
    got = intrinsic_distance(W, a, b, refinement=2)
    want = float(np.linalg.norm(mg.images[W.cells[0].mesh_vertices[0]]
                                - mg.images[W.cells[0].mesh_vertices[1]]))
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize(
    "k,expected,passes",
    [(3, math.pi, False), (6, 2 * math.pi, True), (7, 7 * math.pi / 3, True)],
)
def test_fan_angle_sums(k, expected, passes):
    mg = equilateral_fan(k)
    W, _ = build_polyhedral_disc(mg, epsilon=1.5)
    report = interior_angle_check(W)
    assert abs(report.entries[0][1] - expected) <= 1e-9
    assert report.ok is passes


def test_degenerate_point_complex():
    sp = EuclideanSpace(2)
    mesh = grid_mesh(1)
    mg = MappedGraph(mesh, sp, [np.zeros(2)] * mesh.n_vertices)
    W, pair = build_polyhedral_disc(mg, epsilon=0.5)
    assert all(cell.degeneracy == "point" for cell in W.cells)
    assert intrinsic_distance(W, pair.p[0], pair.p[3], refinement=2) == 0.0
    lip = lipschitz_check(pair, W, samples=20, refinement=1)
    assert lip.ok


def test_epsilon_bound_enforced():
    mg = identity_square(1)
    with pytest.raises(EpsilonBoundError):
        build_polyhedral_disc(mg, epsilon=0.5)  # diagonal sqrt(2) > 0.5
    with pytest.raises(EpsilonBoundError):
        build_polyhedral_disc(mg, epsilon=2.0, kappa=1.0)  # >= R_kappa/2


def test_side_length_coherence():
    mg = identity_square(4)
    W, _ = build_polyhedral_disc(mg, epsilon=0.5)
    for u, v in mg.mesh.edges:
        assert abs(W.side_length(int(u), int(v)) - mg.edge_length(int(u), int(v))) <= 1e-9


def test_lipschitz_and_density_identity_square():
    mg = identity_square(4)
    W, pair = build_polyhedral_disc(mg, epsilon=0.6)
    lip = lipschitz_check(pair, W, samples=300, refinement=2)
    assert lip.ok
    assert lip.max_ratio <= 1.0 + 1e-9
    den = epsilon_density_check(pair, W, mg, epsilon=0.5, samples=100, refinement=2)
    assert den.ok


def test_sphere_cap_loop_probe_finds_nothing():
    sp = ModelSpace(1.0)
    mesh = grid_mesh(3)
    imgs = [sp.point((0.4 * (c[0] - 0.5), 0.4 * (c[1] - 0.5))) for c in mesh.coords]
    mg = MappedGraph(mesh, sp, imgs)
    W, _ = build_polyhedral_disc(mg, epsilon=0.5, kappa=1.0)
    probe = short_loop_probe(W, seed=0)
    assert not probe.found_short_geodesic


def test_json_and_svg_export():
    mg = identity_square(2)
    W, _ = build_polyhedral_disc(mg, epsilon=0.8)
    payload = json.loads(W.to_json())
    assert len(payload["cells"]) == len(W.cells)
    assert payload["kappa"] == 0.0
    svg = W.to_svg_net()
    assert svg.startswith("<svg") and svg.count("<polygon") == len(W.cells)


def test_q_respects_fixed_set():
    mg = identity_square(2)
    _W, pair = build_polyhedral_disc(mg, epsilon=0.8)
    for v in mg.fixed:
        assert np.linalg.norm(pair.q(pair.p[v]) - mg.images[v]) <= 1e-9


class ScalarSteinerComplexGraph:
    """Reference: the per-cell scalar Steiner graph of a complex, with every
    chart position and chord from `geodesic_point` and `model_distance`.
    Its interpolant runs from corner 0 toward the geodesic between corners 1
    and 2; the package's runs from corner 0 to 1, then toward corner 2."""

    def __init__(self, complex_, refinement):
        W, kap, r = complex_, complex_.kappa, refinement
        next_id = W.mesh.n_vertices
        side_nodes, rows, cols, weights = {}, [], [], []
        for u, v in W._side_len:
            chain = [u] + list(range(next_id, next_id + r)) + [v]
            next_id += r
            side_nodes[(u, v)] = chain
            for a, b in zip(chain, chain[1:]):
                rows.append(a)
                cols.append(b)
                weights.append(W.side_length(u, v) / (r + 1))
        self.cell_samples = []
        for cell in W.cells:
            vs = cell.mesh_vertices
            nodes, charts = [], []
            for k in range(3):
                u, v = vs[k], vs[(k + 1) % 3]
                key = tuple(sorted((u, v)))
                ordered = side_nodes[key] if key == (u, v) else side_nodes[key][::-1]
                pu, pv = cell.chart.vertices[k], cell.chart.vertices[(k + 1) % 3]
                for m, node in enumerate(ordered[:-1]):
                    nodes.append(node)
                    charts.append(pu if m == 0 else geodesic_point(kap, pu, pv, m / (r + 1)))
            for i in range(len(nodes)):
                for j in range(i):
                    rows.append(nodes[i])
                    cols.append(nodes[j])
                    weights.append(model_distance(kap, charts[i], charts[j]))
            self.cell_samples.append((nodes, charts))
        self.n_nodes = next_id
        m = coo_matrix((weights + weights, (rows + cols, cols + rows)),
                       shape=(next_id, next_id))
        best = {}
        for a, b, w in zip(m.row.tolist(), m.col.tolist(), m.data.tolist()):
            best[(a, b)] = min(w, best.get((a, b), math.inf))
        keys = list(best)
        self.matrix = coo_matrix(
            ([best[k] for k in keys], ([k[0] for k in keys], [k[1] for k in keys])),
            shape=(next_id, next_id),
        ).tocsr()
        self.complex = W

    def chart_of(self, pt):
        kap, (c0, c1, c2) = self.complex.kappa, self.complex.cells[pt.cell].chart.vertices
        u, v, w = pt.bary
        if v + w < 1e-15:
            return c0
        return geodesic_point(kap, c0, geodesic_point(kap, c1, c2, w / (v + w)), v + w)

    def distance_rows(self, sources, targets):
        pts, kap, n = list(sources) + list(targets), self.complex.kappa, self.n_nodes
        charts = [self.chart_of(pt) for pt in pts]
        rows, cols, ws = [], [], []
        for i, pt in enumerate(pts):
            for node, ch in zip(*self.cell_samples[pt.cell]):
                rows.append(n + i)
                cols.append(node)
                ws.append(model_distance(kap, charts[i], ch))
            for j in range(i):
                if pts[j].cell == pt.cell:
                    rows.append(n + i)
                    cols.append(n + j)
                    ws.append(model_distance(kap, charts[i], charts[j]))
        base, total = self.matrix.tocoo(), n + len(pts)
        mat = coo_matrix(
            (np.r_[base.data, ws, ws],
             (np.r_[base.row, rows, cols], np.r_[base.col, cols, rows])),
            shape=(total, total),
        ).tocsr()
        dist = dijkstra(mat, directed=False, indices=np.arange(n, n + len(sources)))
        return dist[:, n + len(sources):]


def model_grid(k, n, scale):
    sp = ModelSpace(k)
    mesh = grid_mesh(n)
    imgs = [sp.point((scale * (c[0] - 0.5), scale * (c[1] - 0.6 * c[0] ** 2)))
            for c in mesh.coords]
    return MappedGraph(mesh, sp, imgs)


# Mapped discs, each with the epsilon and kappa its complex is glued with.
MAPS = {
    "identity-grid": lambda: (identity_square(2), 0.8, None),
    "cone-3-fan": lambda: (equilateral_fan(3), 1.5, None),
    "cone-6-fan": lambda: (equilateral_fan(6), 1.5, None),
    "sphere-cap": lambda: (model_grid(1.0, 3, 0.8), 1.0, 1.0),
    "hyperbolic": lambda: (model_grid(-1.0, 3, 1.5), 2.0, None),
    "flat-3x3": lambda: (identity_square(3), 0.5, None),
}
COMPLEXES = {
    name: (lambda m=m: build_polyhedral_disc(*m())[0])
    for name, m in MAPS.items() if name != "flat-3x3"
}


def side_and_vertex_points(W, rng, count):
    """Points with a zero barycentric: on a cell side or at a corner."""
    pts = []
    for _ in range(count):
        b = np.zeros(3)
        i, j = rng.choice(3, size=2, replace=False)
        b[i] = rng.uniform() if rng.uniform() < 0.8 else 1.0
        b[j] = 1.0 - b[i]
        pts.append(ComplexPoint(int(rng.integers(len(W.cells))), tuple(b)))
    return pts


@pytest.mark.parametrize("name", list(COMPLEXES))
@pytest.mark.parametrize("refinement", [0, 2, 3])
def test_steiner_graph_matches_the_scalar_reference(name, refinement):
    W = COMPLEXES[name]()
    rng = np.random.default_rng(refinement)
    if W.kappa.value == 0.0:
        sources = _sample_points(W, 12, rng)
        targets = _sample_points(W, 9, rng) + sources[:3]
    else:
        # Away from cell sides the two interpolants place points differently.
        sources = side_and_vertex_points(W, rng, 12)
        targets = side_and_vertex_points(W, rng, 9) + sources[:3]
    got = SteinerComplexGraph(W, refinement).distance_rows(sources, targets)
    want = ScalarSteinerComplexGraph(W, refinement).distance_rows(sources, targets)
    assert np.all(np.isfinite(want))
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("name", ["identity-grid", "sphere-cap"])
def test_intrinsic_distance_reuses_one_graph_per_complex(name):
    W, twin = COMPLEXES[name](), COMPLEXES[name]()
    graph = _complex_graph(W, 3)
    assert _complex_graph(W, 3) is graph
    # Keyed by complex identity and refinement, not by equal contents.
    assert _complex_graph(twin, 3) is not graph
    assert _complex_graph(W, 2) is not graph
    before = [a.copy() for a in (graph.graph.indptr, graph.graph.indices, graph.graph.data)]
    pts = _sample_points(W, 12, np.random.default_rng(6))
    for a, b in zip(pts[:6], pts[6:]):
        got = intrinsic_distance(W, a, b, refinement=3)
        assert got == SteinerComplexGraph(W, 3).distance_rows([a], [b])[0, 0]
    assert _complex_graph(W, 3) is graph
    assert graph.distance_rows(pts[:3], pts[3:]).shape == (3, 9)
    after = (graph.graph.indptr, graph.graph.indices, graph.graph.data)
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_q_uses_the_induced_oracle_interpolant():
    mg = model_grid(1.0, 3, 0.8)
    _W, pair = build_polyhedral_disc(mg, epsilon=1.0, kappa=1.0)
    oracle = InducedGraphSpace(mg, steiner=1)
    rng = np.random.default_rng(2)
    tri_idx = rng.integers(len(mg.mesh.triangles), size=40)
    bary = rng.dirichlet(np.ones(3), size=40)
    want = oracle._images_at(tri_idx, bary)
    for ti, b, w in zip(tri_idx, bary, want):
        got = pair.q(ComplexPoint(int(ti), tuple(b)))
        assert np.abs(got.coords - w).max() <= 1e-12


class BothWaysSteinerComplexGraph(SteinerComplexGraph):
    """Reference wiring: every query point joined both ways to its cell's
    boundary nodes and to every other query point in its cell, and one
    undirected Dijkstra over the grown graph."""

    def distance_rows(self, sources, targets):
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


@pytest.mark.parametrize("name", list(COMPLEXES))
@pytest.mark.parametrize("refinement", [0, 2, 4])
def test_distance_rows_match_both_ways_wiring_on_interior_points(name, refinement):
    W = COMPLEXES[name]()
    rng = np.random.default_rng(40 + refinement)
    sources, targets = _sample_points(W, 100, rng), _sample_points(W, 100, rng)
    got = SteinerComplexGraph(W, refinement).distance_rows(sources, targets)
    want = BothWaysSteinerComplexGraph(W, refinement).distance_rows(sources, targets)
    assert np.all(np.isfinite(want))
    assert np.array_equal(got, want)


# repr of lipschitz_check(samples=300) and epsilon_density_check at seed 1.
REPORT_PINS = {
    "flat-3x3": (
        "LipschitzReport(n_pairs=300, max_ratio=1.0000000000000018, max_edge_shortfall=0.0,"
        " tol=0.001)",
        "DensityReport(epsilon=0.5, slack=0.09428090415820635, max_gap=0.2200309213995576)",
    ),
    "sphere-cap": (
        "LipschitzReport(n_pairs=300, max_ratio=1.000000000000001, max_edge_shortfall=0.0,"
        " tol=0.001)",
        "DensityReport(epsilon=1.0, slack=0.11784494060665854, max_gap=0.1749743538130329)",
    ),
    "hyperbolic": (
        "LipschitzReport(n_pairs=300, max_ratio=1.0000000000000049, max_edge_shortfall=0.0,"
        " tol=0.001)",
        "DensityReport(epsilon=2.0, slack=0.2316979353377447, max_gap=0.3666253845574116)",
    ),
}


@pytest.mark.parametrize("name", ["flat-3x3", "sphere-cap", "hyperbolic"])
def test_check_reports_are_pinned(name):
    mg, epsilon, kappa = MAPS[name]()
    W, pair = build_polyhedral_disc(mg, epsilon, kappa)
    lip = lipschitz_check(pair, W, samples=300, seed=1)
    den = epsilon_density_check(pair, W, mg, epsilon, seed=1)
    assert (repr(lip), repr(den)) == REPORT_PINS[name]


def corner_points(W):
    """Every cell's three corners, as points of that cell."""
    return [ComplexPoint(c, tuple(np.eye(3)[k])) for c in range(len(W.cells)) for k in range(3)]


# Distances from 100 interior points to the anchors p(v), as
# epsilon_density_check reads them at refinement 4, that lie above the
# both-ways wiring's; out of 100 x (number of mesh vertices): 900, 400, 700,
# 1600, 1600 and 1600.
ANCHOR_ROWS_RAISED = {
    "identity-grid": 6, "cone-3-fan": 0, "cone-6-fan": 3,
    "sphere-cap": 27, "hyperbolic": 52, "flat-3x3": 12,
}


@pytest.mark.parametrize("name", list(MAPS))
def test_distances_to_corner_points_rise_by_a_few_ulp_at_most(name):
    """A corner point shares its position with a mesh vertex, and the charts
    of the cells around that vertex round it differently, so a path through
    another query point there could undercut the direct one by an ulp."""
    mg, epsilon, kappa = MAPS[name]()
    W, pair = build_polyhedral_disc(mg, epsilon, kappa)
    inner = _sample_points(W, 100, np.random.default_rng(8))
    anchors = [pair.p[v] for v in sorted(pair.p)]
    ulps = 2 if W.kappa.value == 0.0 else 4
    raised = []
    for sources, targets in ((inner, anchors), (inner, corner_points(W)),
                             (corner_points(W), inner)):
        got = SteinerComplexGraph(W, 4).distance_rows(sources, targets)
        want = BothWaysSteinerComplexGraph(W, 4).distance_rows(sources, targets)
        assert np.all(want <= got)
        assert np.all(got - want <= ulps * np.spacing(want.max()))
        raised.append(int((got != want).sum()))
    assert raised[0] == ANCHOR_ROWS_RAISED[name]


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_checks_refuse_non_finite_steiner_distances(monkeypatch, value):
    mg = identity_square(3)
    W, pair = build_polyhedral_disc(mg, epsilon=0.5)
    monkeypatch.setattr(
        SteinerComplexGraph, "distance_rows",
        lambda self, sources, targets: np.full((len(sources), len(targets)), value),
    )
    with pytest.raises(GeometryError, match="non-finite"):
        lipschitz_check(pair, W, samples=10)
    with pytest.raises(GeometryError, match="non-finite"):
        epsilon_density_check(pair, W, mg, epsilon=0.5, samples=10)


def test_lipschitz_check_refuses_a_nan_target_distance(monkeypatch):
    mg = identity_square(3)
    W, pair = build_polyhedral_disc(mg, epsilon=0.5)
    monkeypatch.setattr(mg.space, "distance", lambda p, q: math.nan)
    with pytest.raises(GeometryError, match="non-finite"):
        lipschitz_check(pair, W, samples=10)

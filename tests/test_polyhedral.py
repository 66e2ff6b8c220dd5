"""Glued comparison-triangle complexes and their curvature certificates."""

import json
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from catdisc.errors import EpsilonBoundError
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


COMPLEXES = {
    "identity-grid": lambda: build_polyhedral_disc(identity_square(2), epsilon=0.8)[0],
    "cone-3-fan": lambda: build_polyhedral_disc(equilateral_fan(3), epsilon=1.5)[0],
    "cone-6-fan": lambda: build_polyhedral_disc(equilateral_fan(6), epsilon=1.5)[0],
    "sphere-cap": lambda: build_polyhedral_disc(model_grid(1.0, 3, 0.8), 1.0, kappa=1.0)[0],
    "hyperbolic": lambda: build_polyhedral_disc(model_grid(-1.0, 3, 1.5), 2.0)[0],
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

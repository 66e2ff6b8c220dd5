"""Induced length and connecting pseudometrics of mapped graphs."""

import itertools

import numpy as np
import pytest

from catdisc.errors import NotLengthConnectedError
from catdisc.induced import (
    compare_metrics,
    connecting_metric,
    connecting_metric_pairs,
    induced_length_metric,
    quotient_is_monotone,
    vertex_distance_table,
)
from catdisc.mesh import MappedGraph, SimpleGraph, grid_mesh, path_graph
from catdisc.spaces import EuclideanSpace


def brute_force_shortest_paths(mg):
    """All-pairs shortest paths by enumerating simple paths (tiny graphs)."""
    n = mg.mesh.n_vertices
    adj = {v: [] for v in range(n)}
    for u, v in mg.mesh.edges:
        w = mg.edge_length(int(u), int(v))
        adj[int(u)].append((int(v), w))
        adj[int(v)].append((int(u), w))
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)

    def walk(start, node, seen, acc):
        if acc < dist[start, node]:
            dist[start, node] = acc
        for nxt, w in adj[node]:
            if nxt not in seen:
                walk(start, nxt, seen | {nxt}, acc + w)

    for s in range(n):
        walk(s, s, {s}, 0.0)
    return dist


def brute_force_connecting(mg, x, z):
    """Min image diameter over connected vertex sets containing x and z."""
    n = mg.mesh.n_vertices
    adj = {v: set() for v in range(n)}
    for u, v in mg.mesh.edges:
        adj[int(u)].add(int(v))
        adj[int(v)].add(int(u))
    best = np.inf
    verts = list(range(n))
    for size in range(1, n + 1):
        for combo in itertools.combinations(verts, size):
            if x not in combo or z not in combo:
                continue
            members = set(combo)
            stack, seen = [x], {x}
            while stack:
                u = stack.pop()
                for w in adj[u] & members:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen != members:
                continue
            diam = max(
                (
                    mg.space.distance(mg.images[a], mg.images[b])
                    for a, b in itertools.combinations(combo, 2)
                ),
                default=0.0,
            )
            best = min(best, diam)
    return best


def small_mapped_grid(seed=0, n=2):
    sp = EuclideanSpace(2)
    mesh = grid_mesh(n)
    rng = np.random.default_rng(seed)
    imgs = [np.array(c) + 0.2 * rng.normal(size=2) for c in mesh.coords]
    return MappedGraph(mesh, sp, imgs)


def test_distance_table_matches_brute_force():
    for seed in range(3):
        mg = small_mapped_grid(seed)
        got = vertex_distance_table(mg)
        want = brute_force_shortest_paths(mg)
        assert np.allclose(got, want, atol=1e-12)


def test_quotient_merges_constant_map():
    sp = EuclideanSpace(2)
    mesh = grid_mesh(2)
    mg = MappedGraph(mesh, sp, [np.zeros(2)] * mesh.n_vertices)
    qm = induced_length_metric(mg)
    assert qm.n_classes == 1
    assert qm.distance(0, mesh.n_vertices - 1) == 0.0
    assert quotient_is_monotone(mg, qm)


def test_quotient_partial_collapse_monotone():
    sp = EuclideanSpace(2)
    g = path_graph(4)
    imgs = [np.array([0.0, 0.0]), np.array([0.0, 0.0]),
            np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    mg = MappedGraph(g, sp, imgs, fixed={0, 3})
    qm = induced_length_metric(mg)
    assert qm.n_classes == 3
    assert abs(qm.distance(0, 3) - 2.0) <= 1e-12
    assert quotient_is_monotone(mg, qm)


def test_connecting_exact_matches_brute_force():
    for seed in range(3):
        mg = small_mapped_grid(seed)
        pairs = [(0, 8), (1, 7), (0, 4)]
        got = connecting_metric_pairs(mg, pairs, mode="exact")
        for (x, z), g in zip(pairs, got):
            assert abs(g - brute_force_connecting(mg, x, z)) <= 1e-12


def test_connecting_anchor_within_2approx_bracket():
    for seed in range(5):
        mg = small_mapped_grid(seed)
        pairs = [(0, 8), (2, 6), (1, 5)]
        exact = connecting_metric_pairs(mg, pairs, mode="exact")
        approx = connecting_metric_pairs(mg, pairs, mode="anchor2approx")
        for e, a in zip(exact, approx):
            assert e / 2.0 - 1e-12 <= a <= e + 1e-12


def test_connecting_exact_refuses_large_graphs():
    sp = EuclideanSpace(2)
    mesh = grid_mesh(5)  # 36 vertices
    mg = MappedGraph(mesh, sp, [np.array(c) for c in mesh.coords])
    with pytest.raises(ValueError):
        connecting_metric(mg, 0, 1, mode="exact")


def test_connecting_at_most_length():
    for seed in range(3):
        mg = small_mapped_grid(seed)
        cmp = compare_metrics(mg, max_pairs=36, seed=seed)
        assert cmp.ok and cmp.mode == "exact"
        for c, l in zip(cmp.connecting, cmp.length):
            assert c <= l + 1e-9


def test_compare_metrics_above_twenty_vertices_is_approximate():
    # Identity map of a grid: the exact connecting distance is |x - z|,
    # and the approximation lies in [exact/2, exact].
    mesh = grid_mesh(4)  # 25 vertices
    mg = MappedGraph(mesh, EuclideanSpace(2), [np.array(c) for c in mesh.coords])
    cmp = compare_metrics(mg, max_pairs=40, seed=1)
    assert cmp.mode == "anchor2approx" and cmp.ok
    for (x, z), c, l in zip(cmp.pairs, cmp.connecting, cmp.length):
        exact = float(np.linalg.norm(mesh.coords[x] - mesh.coords[z]))
        assert exact / 2.0 - 1e-12 <= c <= exact + 1e-12
        assert c <= l + 1e-12


def test_disconnected_graph_rejected():
    sp = EuclideanSpace(2)
    g = SimpleGraph(4, ((0, 1), (2, 3)))
    mg = MappedGraph(
        g, sp, [np.zeros(2), np.ones(2), np.zeros(2), np.ones(2)], fixed={0}
    )
    with pytest.raises(NotLengthConnectedError):
        vertex_distance_table(mg)


def test_path_graph_line_map_metrics_coincide():
    # Monotone map of a path onto a line: connecting = length = |x - z|.
    sp = EuclideanSpace(1)
    g = path_graph(5)
    imgs = [np.array([float(i)]) for i in range(5)]
    mg = MappedGraph(g, sp, imgs, fixed={0, 4})
    qm = induced_length_metric(mg)
    for i in range(5):
        for j in range(5):
            assert abs(qm.distance(i, j) - abs(i - j)) <= 1e-12
    conn = connecting_metric_pairs(mg, [(0, 4), (1, 3)], mode="exact")
    assert abs(conn[0] - 4.0) <= 1e-12
    assert abs(conn[1] - 2.0) <= 1e-12

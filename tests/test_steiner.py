"""The Steiner-graph core: numbering, boundaries, chords and augmentation."""

import numpy as np

from catdisc.steiner import SteinerGraph, append_nodes, min_csr


def test_min_csr_keeps_the_least_weight_in_either_orientation():
    m = min_csr(3, np.array([0, 1, 1]), np.array([1, 0, 2]), np.array([2.0, 1.0, 3.0]))
    assert m.nnz == 4
    assert m[0, 1] == m[1, 0] == 1.0
    assert m[1, 2] == m[2, 1] == 3.0


def test_one_triangle_boundary_and_cross_side_chords():
    edges = [(0, 1), (0, 2), (1, 2)]
    core = SteinerGraph(3, edges, [[0.25], [0.5], [0.75]], [(0, 1, 2)])
    assert core.n_nodes == 6
    nodes, bary, sides = core.boundary(0)
    # Sides 0 -> 1, 1 -> 2 (node 5 at 0.75 from 1), 2 -> 0 (node 4 at 0.5).
    assert nodes.tolist() == [0, 3, 1, 5, 2, 4]
    np.testing.assert_allclose(
        bary,
        [[1, 0, 0], [0.75, 0.25, 0], [0, 1, 0], [0, 0.25, 0.75], [0, 0, 1], [0.5, 0, 0.5]],
    )
    assert sides.tolist() == [0b101, 0b001, 0b011, 0b010, 0b110, 0b100]
    seen = []

    def lengths(tri_idx, starts, ends):
        seen.append((tri_idx, starts, ends))
        return np.full(len(tri_idx), 9.0)

    steps = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
    graph = core.csr(steps, lengths)
    tri_idx, starts, ends = seen[0]
    # Every pair of the six boundary nodes that shares no side: the three
    # side nodes with each other and each with its opposite corner.
    assert (tri_idx == 0).all()
    def node(b):
        return int(nodes[(bary == b).all(axis=1)][0])

    chords = {tuple(sorted((node(s), node(e)))) for s, e in zip(starts, ends)}
    assert chords == {(0, 5), (3, 5), (2, 3), (3, 4), (1, 4), (4, 5)}
    assert graph.nnz == 2 * (6 + 6)
    assert graph[0, 3] == 1.0 and graph[3, 1] == 2.0 and graph[4, 2] == 4.0
    assert graph[3, 5] == graph[1, 4] == 9.0
    assert graph[0, 1] == 0.0  # corners of one side meet only along it


def test_append_nodes_links_both_ways():
    base = min_csr(2, np.array([0]), np.array([1]), np.array([1.0]))
    grown = append_nodes(base, 2, [2, 3], [0, 2], [0.5, 0.25])
    assert grown.shape == (4, 4)
    assert grown[2, 0] == grown[0, 2] == 0.5
    assert grown[3, 2] == grown[2, 3] == 0.25
    assert grown[0, 1] == 1.0

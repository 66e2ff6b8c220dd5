"""The Steiner-graph core: numbering, boundaries, chords and augmentation."""

import numpy as np
import pytest

from catdisc.mesh import grid_mesh, triangle_fan
from catdisc.steiner import CHORD_BLOCK, SteinerGraph, append_nodes, min_csr


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


def loop_tables(n_vertices, edges, fracs, tris):
    """`SteinerGraph`'s tables as its per-triangle loop built them."""
    chains, nxt = {}, n_vertices
    for (u, v), fr in zip(edges, fracs):
        ids = list(range(nxt, nxt + len(fr)))
        nxt += len(fr)
        chains[(int(u), int(v))] = ([int(u), *ids, int(v)], np.r_[0.0, fr, 1.0])

    def side(a, b):
        if a < b:
            return chains[(a, b)]
        chain, fr = chains[(b, a)]
        return chain[::-1], 1.0 - fr[::-1]

    eye = np.eye(3)
    nodes, bary, sides, ptr = [], [], [], [0]
    for tri in tris:
        for k in range(3):
            chain, fr = side(tri[k], tri[(k + 1) % 3])
            mask = np.full(len(fr) - 1, 1 << k)
            mask[0] |= 1 << ((k - 1) % 3)
            nodes.extend(chain[:-1])
            bary.append(eye[k] + fr[:-1, None] * (eye[(k + 1) % 3] - eye[k]))
            sides.append(mask)
        ptr.append(len(nodes))
    return nxt, chains, np.array(ptr), np.array(nodes), np.concatenate(bary), np.concatenate(sides)


def loop_chords(ptr, sides):
    """Chord rows of the per-triangle `np.tril_indices` loop."""
    tri_idx, starts, ends = [], [], []
    for t, lo in enumerate(ptr[:-1]):
        i, j = np.tril_indices(ptr[t + 1] - lo, -1)
        cross = (sides[lo + i] & sides[lo + j]) == 0
        tri_idx.append(np.full(int(cross.sum()), t))
        starts.append(lo + i[cross])
        ends.append(lo + j[cross])
    return tuple(map(np.concatenate, (tri_idx, starts, ends)))


def lexsort_min_csr(n, rows, cols, weights):
    """`min_csr` by one three-key lexsort."""
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    order = np.lexsort((weights, hi, lo))
    lo, hi, w = lo[order], hi[order], np.asarray(weights)[order]
    first = np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
    return lo[first], hi[first], w[first]


def uneven_graph(mesh, seed):
    """A Steiner graph of the mesh with 0 to 4 random chain nodes per edge
    and corners listed in a random rotation and orientation."""
    rng = np.random.default_rng(seed)
    fracs = [np.sort(rng.uniform(0.0, 1.0, rng.integers(0, 5))).tolist() for _ in mesh.edges]
    tris = np.array([
        np.roll(t if rng.random() < 0.5 else t[::-1], rng.integers(3))
        for t in mesh.triangles
    ])
    return mesh.n_vertices, mesh.edges, fracs, tris


@pytest.mark.parametrize("mesh, seed", [
    (grid_mesh(5), 1), (grid_mesh(3, 7), 2), (triangle_fan(5), 3), (grid_mesh(1), 4),
])
def test_array_tables_and_chords_equal_the_per_triangle_loop(mesh, seed):
    args = uneven_graph(mesh, seed)
    core = SteinerGraph(*args)
    n_nodes, chains, ptr, nodes, bary, sides = loop_tables(*args)
    assert core.n_nodes == n_nodes
    for got, want in ((core.ptr, ptr), (core.nodes, nodes), (core.bary, bary),
                      (core.sides, sides)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    seen = []

    def lengths(tri_idx, starts, ends):
        seen.append((tri_idx, starts, ends, np.arange(len(tri_idx)) + 10.0 * len(seen)))
        return seen[-1][3]

    steps = [np.arange(len(f) + 1.0) for f in args[2]]
    graph = core.csr(steps, lengths)
    tri_idx, starts, ends = loop_chords(ptr, sides)
    assert len(seen) == -(-len(tri_idx) // CHORD_BLOCK)
    got = [np.concatenate(a) for a in zip(*seen)]
    np.testing.assert_array_equal(got[0], tri_idx)
    assert got[1].tobytes() == bary[starts].tobytes()
    assert got[2].tobytes() == bary[ends].tobytes()
    rows = [*(c[:-1] for c, _ in chains.values()), nodes[starts]]
    cols = [*(c[1:] for c, _ in chains.values()), nodes[ends]]
    weights = [*steps, got[3]]
    lo, hi, w = lexsort_min_csr(n_nodes, *map(np.concatenate, (rows, cols, weights)))
    coo = graph.tocoo()
    upper = coo.row < coo.col
    np.testing.assert_array_equal(coo.row[upper], lo)
    np.testing.assert_array_equal(coo.col[upper], hi)
    assert coo.data[upper].tobytes() == w.tobytes()


def test_min_csr_matches_the_three_key_sort_on_repeated_pairs():
    """Repeated pairs in both orientations, equal weights among them, and
    signed zeros, whose first given entry must win."""
    rng = np.random.default_rng(5)
    rows, cols = rng.integers(0, 30, 4000), rng.integers(0, 30, 4000)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    weights = rng.integers(0, 4, len(rows)) * 0.5
    weights[rng.random(len(rows)) < 0.2] = -0.0
    m = min_csr(30, rows, cols, weights)
    lo, hi, w = lexsort_min_csr(30, rows, cols, weights)
    coo = m.tocoo()
    upper = coo.row < coo.col
    np.testing.assert_array_equal(coo.row[upper], lo)
    np.testing.assert_array_equal(coo.col[upper], hi)
    assert coo.data[upper].tobytes() == w.tobytes()

"""Disc meshes: derived adjacency."""

import math

import numpy as np
import pytest

from catdisc.mesh import DiscMesh, grid_mesh, triangle_fan


@pytest.mark.parametrize("mesh", [grid_mesh(4), grid_mesh(2, 3), triangle_fan(5)],
                         ids=["grid4", "grid2x3", "fan5"])
def test_neighbors_match_an_edge_scan(mesh):
    for v in range(mesh.n_vertices):
        want = sorted(
            {int(b) for a, b in mesh.edges if a == v}
            | {int(a) for a, b in mesh.edges if b == v}
        )
        assert mesh.neighbors(v) == want


def test_neighbors_returns_a_fresh_list():
    mesh = grid_mesh(2)
    want = [0, 1, 2, 3, 5, 6, 7, 8]
    got = mesh.neighbors(4)
    assert got == want
    got.append(99)
    mesh.neighbors(4).clear()
    assert mesh.neighbors(4) == want


@pytest.mark.parametrize("mesh", [grid_mesh(4), grid_mesh(2, 3), triangle_fan(5)],
                         ids=["grid4", "grid2x3", "fan5"])
def test_adjacency_tables(mesh):
    for t, tri in enumerate(mesh.triangles.tolist()):
        for k in range(3):
            e = mesh.tri_edges[t, k]
            assert mesh.edges[e].tolist() == sorted((tri[k], tri[(k + 1) % 3]))
            assert t in mesh.edge_tris[e]
    owners = [sorted(np.flatnonzero((mesh.tri_edges == e).any(axis=1)).tolist())
              for e in range(len(mesh.edges))]
    for e, (a, b) in enumerate(mesh.edge_tris.tolist()):
        assert owners[e] == ([a, b] if b >= 0 else [a])
        assert a < b or b == -1
    on_boundary = mesh.edge_tris[:, 1] < 0
    ends = np.zeros(mesh.n_vertices, dtype=bool)
    ends[mesh.edges[on_boundary].ravel()] = True
    assert np.array_equal(ends, mesh.boundary)
    # A disc's boundary has as many edges as vertices.
    assert on_boundary.sum() == mesh.boundary.sum()


def annulus_and_vertex():
    """An annulus (three inner, three outer vertices) and a vertex in no
    triangle: V - E + F = 0 + 1, but two boundary cycles."""
    coords = [(math.cos(a), math.sin(a)) for a in np.linspace(0, 2 * math.pi, 4)[:3]]
    coords += [(2 * x, 2 * y) for x, y in coords] + [(5, 0)]
    tris = []
    for i in range(3):
        j = (i + 1) % 3
        tris += [(i, 3 + i, 3 + j), (i, 3 + j, j)]
    return coords, tris


@pytest.mark.parametrize(
    "coords, tris, message",
    [
        # The surface of a tetrahedron: V - E + F = 2.
        ([(0, 0), (1, 0), (0, 1), (1, 1)],
         [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)], "not a disc"),
        ([(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)],
         [(0, 1, 2), (0, 1, 3), (0, 1, 4)], "non-manifold edge"),
        (*annulus_and_vertex(), "boundary is not a single cycle"),
        # Two triangles sharing only vertex 0.
        ([(0, 0), (1, 0), (1, 1), (-1, 0), (-1, -1)], [(0, 1, 2), (0, 3, 4)],
         "boundary is not a union of cycles"),
    ],
    ids=["euler", "three-owners", "two-boundaries", "pinched"],
)
def test_non_discs_are_rejected(coords, tris, message):
    with pytest.raises(ValueError, match=message):
        DiscMesh(np.array(coords, dtype=float), np.array(tris))

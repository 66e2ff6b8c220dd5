"""Disc meshes: derived adjacency."""

import pytest

from catdisc.mesh import grid_mesh, triangle_fan


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

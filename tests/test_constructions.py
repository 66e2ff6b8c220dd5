"""Ruled-disc and discrete-harmonic constructions with independent oracles."""

import math

import numpy as np
import pytest

from catdisc.constructions import (
    HarmonicSpec,
    RuledDiscSpec,
    discrete_energy,
    harmonic_relax,
    quadrangle_bound_check,
    ruled_disc_map,
    ruled_is_length_minimizing_check,
)
from catdisc.errors import OutOfConvexityError
from catdisc.mesh import MappedGraph, grid_index, grid_mesh
from catdisc.spaces import EuclideanSpace, MetricTree, ModelSpace
from reference_sweeps import barycenter_sweep


def flat_square_spec(n=4):
    sp = EuclideanSpace(2)
    return RuledDiscSpec(
        eta0=(np.array([0.0, 0.0]), np.array([1.0, 0.0])),
        eta1=(np.array([0.0, 1.0]), np.array([1.0, 1.0])),
        grid=(n, n),
        space=sp,
    )


def test_flat_ruled_square_is_identity_grid():
    spec = flat_square_spec(4)
    mg = ruled_disc_map(spec)
    for v, (a, t) in enumerate(mg.mesh.coords):
        assert np.allclose(mg.images[v], [a, t], atol=1e-12)
    quad = quadrangle_bound_check(spec, mg)
    assert quad.ok
    # Parallel unit-speed rulings: the gap at every t equals each endpoint
    # gap, so the modulus is gap / (gap + gap) = 1/2.
    assert abs(quad.empirical_l - 0.5) <= 1e-12
    assert ruled_is_length_minimizing_check(mg).ok


def test_ruled_minimality_negative_controls():
    spec = flat_square_spec(4)
    mg = ruled_disc_map(spec)
    # Non-proportional reparametrization of one column keeps the column's
    # geodesic image but breaks equal spacing.
    imgs = list(mg.images)
    n = 4
    for j in range(n + 1):
        t = (j / n) ** 2
        imgs[grid_index(n, n, 2, j)] = np.array([0.5, t])
    warped = ruled_is_length_minimizing_check(mg.with_images(imgs))
    assert warped.max_length_defect <= 1e-12
    assert warped.max_proportionality_defect > 1e-3
    assert not warped.ok
    # A bent column stops realizing the endpoint distance.
    imgs2 = list(mg.images)
    imgs2[grid_index(n, n, 2, 2)] = np.array([0.7, 0.5])
    bent = ruled_is_length_minimizing_check(mg.with_images(imgs2))
    assert bent.max_length_defect > 1e-3
    assert not bent.ok


def test_ruled_spec_rejects_antipodal_rulings_on_sphere():
    sp = ModelSpace(1.0)
    with pytest.raises(OutOfConvexityError):
        RuledDiscSpec(
            eta0=(sp.point((0.0, 0.0)),),
            eta1=(sp.point((math.pi, 0.0)),),
            grid=(2, 2),
            space=sp,
        )


def test_ruled_spec_validates_grid_and_curves():
    sp = EuclideanSpace(2)
    with pytest.raises(ValueError):
        RuledDiscSpec(eta0=(np.zeros(2),), eta1=(np.ones(2),), grid=(0, 2), space=sp)
    with pytest.raises(ValueError):
        RuledDiscSpec(eta0=(), eta1=(np.ones(2),), grid=(2, 2), space=sp)


def test_ruled_spec_measures_each_curve_once(monkeypatch):
    # The spherical disc of the acceptance test at 32x32: two 33-sample
    # curves, so 64 segments, and 33 rulings whose lengths are checked.
    sp = ModelSpace(1.0)
    span, lat, samples = 0.6 * math.pi, 0.75, 32
    eta0 = [sp.point((span * (i / samples - 0.5), -lat)) for i in range(samples + 1)]
    eta1 = [sp.point((span * (i / samples - 0.5), lat)) for i in range(samples + 1)]
    distance = ModelSpace.distance
    calls = []

    def counting_distance(self, p, q):
        calls.append(1)
        return distance(self, p, q)

    monkeypatch.setattr(ModelSpace, "distance", counting_distance)
    ruled_disc_map(RuledDiscSpec(eta0, eta1, (32, 32), sp))
    assert len(calls) <= 64 + 33


def boundary_trace(mesh, fn):
    return {
        int(v): fn(*mesh.coords[v])
        for v in np.flatnonzero(mesh.boundary)
    }


def test_harmonic_constant_trace_collapses():
    sp = EuclideanSpace(2)
    mesh = grid_mesh(3)
    res = harmonic_relax(
        HarmonicSpec(mesh, boundary_trace(mesh, lambda a, t: np.zeros(2)), sp)
    )
    assert res.converged
    assert res.energy <= 1e-20
    for img in res.graph.images:
        assert np.allclose(img, 0.0, atol=1e-12)


def test_harmonic_euclidean_matches_laplacian_oracle():
    sp = EuclideanSpace(2)
    mesh = grid_mesh(4)
    trace = boundary_trace(
        mesh, lambda a, t: np.array([a * a - t * t, 2.0 * a * t])
    )
    res = harmonic_relax(HarmonicSpec(mesh, trace, sp))
    assert res.converged

    # Independent oracle: the exact solution of the graph Laplace equation.
    interior = mesh.interior_vertices()
    idx = {v: i for i, v in enumerate(interior)}
    m = len(interior)
    A = np.zeros((m, m))
    b = np.zeros((m, 2))
    nbrs = {v: [] for v in interior}
    for u, v in mesh.edges:
        u, v = int(u), int(v)
        if u in nbrs:
            nbrs[u].append(v)
        if v in nbrs:
            nbrs[v].append(u)
    for v in interior:
        A[idx[v], idx[v]] = len(nbrs[v])
        for u in nbrs[v]:
            if u in idx:
                A[idx[v], idx[u]] -= 1.0
            else:
                b[idx[v]] += trace[u]
    x = np.linalg.solve(A, b)
    for v in interior:
        assert np.linalg.norm(res.graph.images[v] - x[idx[v]]) <= 1e-8


def tripod():
    return MetricTree([("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)])


def tripod_dist(p, q):
    """Closed-form tripod distance on (leg, offset-from-o) labels."""
    (l1, s1), (l2, s2) = p, q
    return abs(s1 - s2) if l1 == l2 else s1 + s2


def test_harmonic_tripod_single_interior_matches_scan_oracle():
    tree = tripod()
    mesh = grid_mesh(2)
    labels = {
        (0.0, 0.0): ("a", 0.8),
        (0.5, 0.0): ("a", 0.3),
        (1.0, 0.0): ("b", 0.6),
        (1.0, 0.5): ("b", 0.9),
        (1.0, 1.0): ("c", 0.7),
        (0.5, 1.0): ("c", 0.4),
        (0.0, 1.0): ("o", 0.0),
        (0.0, 0.5): ("a", 0.5),
    }

    def to_point(label):
        leg, off = label
        if leg == "o":
            return tree.vertex_point("o")
        return tree.geodesic(
            tree.vertex_point("o"), tree.vertex_point(leg), off
        )

    trace = {}
    for v in np.flatnonzero(mesh.boundary):
        key = (round(float(mesh.coords[v][0]), 6), round(float(mesh.coords[v][1]), 6))
        trace[int(v)] = to_point(labels[key])
    res = harmonic_relax(HarmonicSpec(mesh, trace, tree))
    assert res.converged

    interior = mesh.interior_vertices()
    assert len(interior) == 1
    center = interior[0]
    nbr_labels = []
    for u, v in mesh.edges:
        u, v = int(u), int(v)
        if u == center:
            nbr_labels.append(labels[tuple(round(float(c), 6) for c in mesh.coords[v])])
        elif v == center:
            nbr_labels.append(labels[tuple(round(float(c), 6) for c in mesh.coords[u])])

    def energy_at(label):
        return sum(tripod_dist(label, nb) ** 2 for nb in nbr_labels)

    # Dense scan over the three legs, then golden-section refinement on the
    # best leg: the leg-wise energy is convex in the offset.
    best_label, best_val = ("o", 0.0), energy_at(("o", 0.0))
    for leg in ("a", "b", "c"):
        for s in np.linspace(0.0, 1.0, 2001):
            val = energy_at((leg, float(s)))
            if val < best_val:
                best_label, best_val = (leg, float(s)), val
    leg, s0 = best_label
    lo, hi = max(s0 - 1e-3, 0.0), min(s0 + 1e-3, 1.0)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-12:
        m1 = hi - phi * (hi - lo)
        m2 = lo + phi * (hi - lo)
        if energy_at((leg, m1)) <= energy_at((leg, m2)):
            hi = m2
        else:
            lo = m1
    oracle_label = (leg, 0.5 * (lo + hi))
    oracle_val = energy_at(oracle_label)

    got = res.graph.images[center]
    got_val = sum(
        tree.distance(got, to_point(nb)) ** 2 for nb in nbr_labels
    )
    assert abs(got_val - oracle_val) <= 1e-6
    assert tree.distance(got, to_point(oracle_label)) <= 1e-6


def corner_walk_spec(tree, n, corners):
    """grid_mesh(n) with its boundary walking the four tree vertices
    `corners` by geodesics."""
    mesh = grid_mesh(n)
    c0, c1, c2, c3 = (tree.vertex_point(c) for c in corners)
    trace = {}
    for v in np.flatnonzero(mesh.boundary):
        a, t = mesh.coords[v]
        if t == 0.0:
            trace[int(v)] = tree.geodesic(c0, c1, a)
        elif t == 1.0:
            trace[int(v)] = tree.geodesic(c3, c2, a)
        elif a == 0.0:
            trace[int(v)] = tree.geodesic(c0, c3, t)
        else:
            trace[int(v)] = tree.geodesic(c1, c2, t)
    return HarmonicSpec(mesh, trace, tree)


def swept_reference(spec, tol=1e-12):
    """Sweeps from the trace barycenter until none moves a vertex by tol."""
    seed = spec.space.barycenter([spec.trace[v] for v in sorted(spec.trace)])
    images = [spec.trace.get(v, seed) for v in range(spec.mesh.n_vertices)]
    while barycenter_sweep(spec.mesh, spec.space, images) >= tol:
        pass
    return MappedGraph(spec.mesh, spec.space, images)


@pytest.mark.parametrize("corners", [("a", "c", "b", "d"), ("a", "b", "c", "d")])
def test_tree_solve_matches_sweeps_with_two_branch_points(corners):
    """With corners a, b, c, d one interior vertex sits at o2."""
    tree = MetricTree([
        ("o1", "o2", 0.2), ("o1", "a", 1.0), ("o1", "b", 0.8),
        ("o2", "c", 1.2), ("o2", "d", 0.7),
    ])
    spec = corner_walk_spec(tree, 6, corners)
    res = harmonic_relax(spec)
    want = swept_reference(spec)
    assert res.converged
    gap = max(tree.distance(p, q) for p, q in zip(res.graph.images, want.images))
    assert gap <= 1e-9
    assert res.energy <= discrete_energy(want) + 1e-14


@pytest.mark.parametrize("scale", [1.0, 100.0, 1e4])
def test_tripod_8x8_solve_is_a_certified_minimizer(scale):
    """Bounds scale with the legs: the certificate's rounding does."""
    tree = MetricTree([("o", "a", scale), ("o", "b", scale), ("o", "c", scale)])
    spec = corner_walk_spec(tree, 8, ("a", "b", "c", "o"))
    res = harmonic_relax(spec)
    assert res.converged
    images = list(res.graph.images)
    assert barycenter_sweep(spec.mesh, tree, images) <= 1e-14 * scale
    reference = swept_reference(spec, tol=1e-12 * scale)
    assert res.energy <= discrete_energy(reference) + 1e-14 * scale**2
    o = tree.vertex_point("o")
    interior = spec.mesh.interior_vertices()
    assert any(tree.distance(res.graph.images[v], o) == 0.0 for v in interior)
    # Trace rows: one per linear solve, then the certificate sweep.
    energies = [row[1] for row in res.trace]
    assert res.sweeps == len(res.trace) >= 2
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert res.trace[-1][2] <= 1e-14 * scale


def test_harmonic_spec_validation():
    sp = EuclideanSpace(2)
    mesh = grid_mesh(2)
    HarmonicSpec(mesh, boundary_trace(mesh, lambda a, t: np.array([a, t])), sp)
    with pytest.raises(ValueError):
        HarmonicSpec(mesh, {0: np.zeros(2)}, sp)
    sphere = ModelSpace(1.0)
    wide = {
        int(v): sphere.point((2.8 * mesh.coords[v][0] - 1.4, 0.0))
        for v in np.flatnonzero(mesh.boundary)
    }
    with pytest.raises(OutOfConvexityError):
        HarmonicSpec(mesh, wide, sphere)


def test_discrete_energy_closed_form_and_optimality():
    sp = EuclideanSpace(2)
    mesh = grid_mesh(2)
    mg = MappedGraph(mesh, sp, [np.array(c) for c in mesh.coords])
    # Identity 2x2 grid: 8 axis edges of length 1/2 and 4 diagonals of
    # length sqrt(2)/2 give energy 8/4 + 4 * 1/2 = 4, for whichever diagonal
    # the triangulation picked.
    n_axis = sum(
        1
        for u, v in mesh.edges
        if abs(mg.edge_length(int(u), int(v)) - 0.5) <= 1e-12
    )
    n_diag = len(mesh.edges) - n_axis
    want = n_axis * 0.25 + n_diag * 0.5
    assert abs(discrete_energy(mg) - want) <= 1e-12

    trace = boundary_trace(mesh, lambda a, t: np.array([a, t]))
    res = harmonic_relax(HarmonicSpec(mesh, trace, sp))
    base = discrete_energy(res.graph)
    rng = np.random.default_rng(0)
    for _ in range(5):
        imgs = list(res.graph.images)
        for v in mesh.interior_vertices():
            imgs[v] = imgs[v] + 0.05 * rng.normal(size=2)
        assert discrete_energy(res.graph.with_images(imgs)) > base

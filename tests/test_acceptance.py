"""End-to-end acceptance scenarios with frozen budgets, oracles, and seeds.

Each test prints exactly one PASS/FAIL line for its scenario and asserts
both the numerical criterion and a wall-clock ceiling.  Oracles are
implemented inside this file (or imported from the unit-test oracles'
constructions) so they stay independent of the library code under test.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from catdisc.constructions import (
    HarmonicSpec,
    RuledDiscSpec,
    harmonic_relax,
    ruled_disc_map,
)
from catdisc.induced import compare_metrics, induced_length_metric, quotient_is_monotone
from catdisc.mesh import MappedGraph, SimpleGraph, grid_mesh, triangle_fan
from catdisc.minimize import (
    RelaxConfig,
    dominates,
    non_bubbling,
    relax_graph,
    vertex_angle_sums,
)
from catdisc.model import (
    Kappa,
    angle_from_sides,
    build_comparison_triangle,
    from_tangent,
    geodesic_point,
    model_distance,
    side_from_angle,
)
from catdisc.polyhedral import (
    build_polyhedral_disc,
    interior_angle_check,
    intrinsic_distance,
    lipschitz_check,
)
from catdisc.spaces import EuclideanSpace, FlatCone, MetricTree, ModelSpace
from catdisc.verify import certify_cat, certify_induced, recompare, thinness_defect
from reference_sweeps import barycenter_sweep

KAPPAS = (-1.0, 0.0, 1.0)


def _verdict(name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{name}] {status}: {detail} ({elapsed:.1f}s / {budget:.0f}s budget)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget}s"


def _random_model_points(kap, rng, count):
    lim = 0.45 * kap.r_kappa if kap.value > 0 else 2.0
    r = lim * np.sqrt(rng.uniform(size=count))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return [
        from_tangent(kap, (ri * math.cos(pi_), ri * math.sin(pi_)))
        for ri, pi_ in zip(r, phi)
    ]


def test_model_surface_kernel():
    """Law-of-cosines round trips, geodesic additivity, triangle realization."""
    t0 = time.monotonic()
    cases = 10_000
    worst = 0.0
    for k in KAPPAS:
        kap = Kappa(k)
        rng = np.random.default_rng(101)
        lim = 0.45 * kap.r_kappa if k > 0 else 2.0
        ab = rng.uniform(0.05, lim, size=(cases, 2))
        gam = rng.uniform(0.05, math.pi - 0.05, size=cases)
        pts = _random_model_points(kap, rng, 2 * cases)
        st = np.sort(rng.uniform(0.0, 1.0, size=(cases, 2)), axis=1)
        for i in range(cases):
            # Law of cosines round trip.
            c = side_from_angle(kap, ab[i, 0], ab[i, 1], gam[i])
            worst = max(
                worst, abs(angle_from_sides(kap, ab[i, 0], ab[i, 1], c) - gam[i])
            )
            # Geodesic additivity along a random pair.
            p, q = pts[2 * i], pts[2 * i + 1]
            d = model_distance(kap, p, q)
            s, t = st[i]
            x = geodesic_point(kap, p, q, s)
            y = geodesic_point(kap, p, q, t)
            worst = max(
                worst,
                abs(model_distance(kap, p, x) - s * d),
                abs(model_distance(kap, x, y) - (t - s) * d),
            )
            # Comparison triangle realizes its prescribed sides.
            tri = build_comparison_triangle(kap, ab[i, 0], ab[i, 1], c)
            A, B, C = tri.vertices
            worst = max(
                worst,
                abs(model_distance(kap, B, C) - ab[i, 0]),
                abs(model_distance(kap, C, A) - ab[i, 1]),
                abs(model_distance(kap, A, B) - c),
            )
    elapsed = time.monotonic() - t0
    _verdict(
        "model-kernel",
        worst <= 1e-8,
        f"{cases} cases per curvature, worst defect {worst:.3e} <= 1e-8",
        elapsed,
        5.0,
    )


def test_model_space_self_comparison():
    """certify_cat of each model surface against its own curvature bound."""
    t0 = time.monotonic()
    worst = 0.0
    for k in KAPPAS:
        report = certify_cat(
            ModelSpace(k), Kappa(k), triple_budget=200, grid=16, seed=0,
            tolerance=1e-9,
        )
        assert report.passed
        worst = max(worst, abs(report.max_defect))
    elapsed = time.monotonic() - t0
    _verdict(
        "self-comparison",
        worst <= 1e-9,
        f"200 triples x 16^2 grid per curvature, worst |defect| {worst:.3e}",
        elapsed,
        30.0,
    )


def _cone_unfold_distance(theta, p, q):
    """Cone distance by unfolding: min of the developed chord and the apex
    route.  Independent of the FlatCone implementation."""
    r1, phi1 = p
    r2, phi2 = q
    dphi = abs(phi1 - phi2) % theta
    dphi = min(dphi, theta - dphi)
    through_apex = r1 + r2
    if dphi >= math.pi:
        return through_apex
    direct = math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(dphi))
    return min(direct, through_apex)


def test_cone_controls():
    """Wide cone passes the flat comparison; narrow cone fails measurably."""
    t0 = time.monotonic()
    wide = certify_cat(
        FlatCone(2.5 * math.pi), Kappa(0.0), triple_budget=60, grid=8, seed=1,
        tolerance=1e-6,
    )
    theta = 1.5 * math.pi
    narrow = certify_cat(
        FlatCone(theta), Kappa(0.0), triple_budget=60, grid=8, seed=1,
        tolerance=1e-6,
    )
    # Frozen control triple enclosing the apex, equally spaced at radius 1:
    # each gap unfolds to a sqrt(2) side, the flat comparison midpoints sit
    # sqrt(2)/2 apart, and the measured midpoints (radius sqrt(2)/2, a
    # quarter turn apart) unfold to distance 1.  The oracle confirms the
    # planned defect before the library is consulted.
    cone = FlatCone(theta)
    angles = (0.0, theta / 3.0, 2.0 * theta / 3.0)
    oracle_side = _cone_unfold_distance(theta, (1.0, angles[0]), (1.0, angles[1]))
    oracle_measured = _cone_unfold_distance(
        theta,
        (math.sqrt(2.0) / 2.0, theta / 6.0),
        (math.sqrt(2.0) / 2.0, -theta / 6.0),
    )
    oracle_compared = oracle_side / 2.0
    oracle_defect = oracle_measured - oracle_compared
    assert oracle_defect > 0.05
    triple = tuple(cone.point(1.0, a) for a in angles)
    samples = thinness_defect(cone, Kappa(0.0), triple, grid=9)
    mids = [
        s for s in samples if abs(s.s - 0.5) < 1e-9 and abs(s.t - 0.5) < 1e-9
    ]
    assert len(mids) == 1
    confirmed = abs(mids[0].defect - oracle_defect) <= 1e-9
    elapsed = time.monotonic() - t0
    _verdict(
        "cone-controls",
        wide.passed and not narrow.passed and narrow.max_defect > 0.05 and confirmed,
        (
            f"wide max {wide.max_defect:.1e} (pass), narrow max "
            f"{narrow.max_defect:.3f} > 0.05, oracle defect {oracle_defect:.3f}"
        ),
        elapsed,
        30.0,
    )


@pytest.mark.slow
def test_graph_minimizer():
    """Fermat instance, subgradient oracle on a grid, and angle-sum floor."""
    t0 = time.monotonic()
    sp = EuclideanSpace(2)
    fan = triangle_fan(3)
    corners = [
        np.array([math.cos(2.0 * math.pi * i / 3.0), math.sin(2.0 * math.pi * i / 3.0)])
        for i in range(3)
    ]
    fermat = MappedGraph(
        fan, sp, [np.array([0.4, 0.3])] + corners, fixed={1, 2, 3}
    )
    fermat_res = relax_graph(fermat)
    fermat_angles = vertex_angle_sums(fermat_res.graph)
    fermat_gap = abs(fermat_angles.entries[0].total - 2.0 * math.pi)

    mesh = grid_mesh(4)  # 5x5 vertices
    rng = np.random.default_rng(3)
    imgs = [np.array(c) + 0.15 * rng.normal(size=2) for c in mesh.coords]
    mg = MappedGraph(mesh, sp, imgs)
    res = relax_graph(mg)
    got = res.graph.total_length()
    # Independent oracle: direct minimization of the (convex) total length
    # over the stacked free coordinates.
    free = [v for v in range(mesh.n_vertices) if v not in mg.fixed]
    edges = [(int(u), int(v)) for u, v in mesh.edges]

    def total(x):
        pos = {v: mg.images[v] for v in mg.fixed}
        for i, v in enumerate(free):
            pos[v] = x[2 * i : 2 * i + 2]
        return sum(np.linalg.norm(pos[u] - pos[v]) for u, v in edges)

    opt = scipy_minimize(
        total, np.concatenate([mg.images[v] for v in free]),
        method="L-BFGS-B", tol=1e-14,
    )
    rel = abs(got - opt.fun) / opt.fun
    min_total = min(
        vertex_angle_sums(res.graph).min_total, fermat_angles.min_total
    )
    elapsed = time.monotonic() - t0
    _verdict(
        "graph-minimizer",
        fermat_res.converged
        and res.converged
        and fermat_gap <= 1e-6
        and rel <= 1e-6
        and min_total >= 2.0 * math.pi - 1e-4,
        (
            f"Fermat angle-sum gap {fermat_gap:.1e}, grid oracle rel diff "
            f"{rel:.1e}, min interior angle sum {min_total:.8f}"
        ),
        elapsed,
        60.0,
    )


@pytest.mark.slow
def test_polyhedral_build():
    """Flat square complex is isometric; 3-fan fails; Lipschitz holds."""
    t0 = time.monotonic()
    sp = EuclideanSpace(2)
    mesh1 = grid_mesh(1)
    square = MappedGraph(mesh1, sp, [np.array(c) for c in mesh1.coords])
    W1, pair1 = build_polyhedral_disc(square, epsilon=1.5)
    worst_rel = 0.0
    for i in range(4):
        for j in range(i):
            want = float(np.linalg.norm(square.images[i] - square.images[j]))
            got = intrinsic_distance(W1, pair1.p[i], pair1.p[j], refinement=8)
            worst_rel = max(worst_rel, abs(got - want) / want)

    cone = FlatCone(math.pi)
    fan = triangle_fan(3)
    fan_mg = MappedGraph(
        fan, cone,
        [cone.point(0.0, 0.0)] + [cone.point(1.0, i * math.pi / 3.0) for i in range(3)],
    )
    Wf, pairf = build_polyhedral_disc(fan_mg, epsilon=1.5)
    fan_report = interior_angle_check(Wf)
    fan_is_pi = abs(fan_report.entries[0][1] - math.pi) <= 1e-9

    mesh4 = grid_mesh(4)
    square4 = MappedGraph(mesh4, sp, [np.array(c) for c in mesh4.coords])
    W4, pair4 = build_polyhedral_disc(square4, epsilon=0.6)
    worst_lip = 0.0
    for pair, W in ((pair1, W1), (pairf, Wf), (pair4, W4)):
        lip = lipschitz_check(pair, W, samples=1000, refinement=2)
        worst_lip = max(worst_lip, lip.max_ratio)
    elapsed = time.monotonic() - t0
    _verdict(
        "polyhedral-build",
        worst_rel <= 0.02
        and not fan_report.ok
        and fan_is_pi
        and worst_lip <= 1.0 + 1e-3,
        (
            f"square distance rel err {worst_rel:.1e} <= 2%, 3-fan angle sum "
            f"pi (fails), Lipschitz max ratio {worst_lip:.6f} on 10^3 pairs "
            "per complex"
        ),
        elapsed,
        120.0,
    )


def _skew_ruled_map(n):
    sp = EuclideanSpace(3)
    spec = RuledDiscSpec(
        eta0=(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
        eta1=(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.2])),
        grid=(n, n),
        space=sp,
    )
    return ruled_disc_map(spec)


def _spherical_ruled_map(n, span=0.6 * math.pi, lat=0.75, samples=32):
    sp = ModelSpace(1.0)
    eta0 = tuple(
        sp.point((span * (i / samples - 0.5), -lat)) for i in range(samples + 1)
    )
    eta1 = tuple(
        sp.point((span * (i / samples - 0.5), lat)) for i in range(samples + 1)
    )
    return ruled_disc_map(
        RuledDiscSpec(eta0=eta0, eta1=eta1, grid=(n, n), space=sp)
    )


@pytest.mark.slow
def test_ruled_disc():
    """Skew ruled disc certifies CAT(0) with a refining defect trend; the
    spherical ruled disc separates the kappa = 1 and kappa = 0 verdicts."""
    t0 = time.monotonic()
    probe_rng = np.random.default_rng(5)
    probes = probe_rng.uniform(0.0, 1.0, size=(12, 3, 2))
    defects = []
    final = None
    for n in (8, 16, 32):
        rep = certify_induced(
            _skew_ruled_map(n), Kappa(0.0), grid=6, tolerance=5e-3, seed=1,
            steiner=4, probes=probes, refinement=n,
        )
        defects.append(rep.max_defect)
        final = rep
    monotone = all(a > b for a, b in zip(defects, defects[1:]))

    sphere_rep, sphere_samples = certify_induced(
        _spherical_ruled_map(16), Kappa(1.0), triple_budget=12, grid=6,
        tolerance=5e-3, seed=1, steiner=4, collect_samples=True,
    )
    # Measured distances do not depend on the comparison curvature, so the
    # kappa = 0 verdict reuses the same samples with flat comparisons.
    flat_defect = max(s.defect for s in recompare(sphere_samples, Kappa(0.0)))
    elapsed = time.monotonic() - t0
    _verdict(
        "ruled-disc",
        final.passed
        and monotone
        and sphere_rep.passed
        and flat_defect > 5e-3,
        (
            "skew defects "
            + " > ".join(f"{d:.2e}" for d in defects)
            + f" (monotone, 32x32 passes), sphere k=1 max "
            f"{sphere_rep.max_defect:.2e} (pass) vs k=0 max {flat_defect:.3f} (fail)"
        ),
        elapsed,
        300.0,
    )


def _tripod():
    return MetricTree([("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)])


def _tripod_boundary_trace(tree, mesh):
    """Boundary trace walking the square's sides through the three legs."""
    ca, cb, cc, co = (tree.vertex_point(l) for l in ("a", "b", "c", "o"))
    trace = {}
    for v in np.flatnonzero(mesh.boundary):
        a, t = mesh.coords[v]
        if t == 0.0:
            trace[int(v)] = tree.geodesic(ca, cb, a)
        elif t == 1.0:
            trace[int(v)] = tree.geodesic(co, cc, a)
        elif a == 0.0:
            trace[int(v)] = tree.geodesic(ca, co, t)
        else:
            trace[int(v)] = tree.geodesic(cb, cc, t)
    return trace


@pytest.mark.slow
def test_harmonic_disc():
    """Tripod scan oracle, induced certification, and the linear-system oracle."""
    t0 = time.monotonic()
    tree = _tripod()

    # 3x3 instance: one interior vertex, checked against a dense scan plus
    # golden-section refinement of the convex leg-wise energy.
    mesh2 = grid_mesh(2)
    trace2 = _tripod_boundary_trace(tree, mesh2)
    res2 = harmonic_relax(HarmonicSpec(mesh2, trace2, tree))
    center = mesh2.interior_vertices()[0]
    nbr_pts = []
    for u, v in mesh2.edges:
        u, v = int(u), int(v)
        if u == center:
            nbr_pts.append(trace2[v])
        elif v == center:
            nbr_pts.append(trace2[u])

    def energy_at(pt):
        return sum(tree.distance(pt, nb) ** 2 for nb in nbr_pts)

    legs = {"o": tree.vertex_point("o")}
    best_pt, best_val = legs["o"], energy_at(legs["o"])
    for leg in ("a", "b", "c"):
        tip = tree.vertex_point(leg)
        for s in np.linspace(0.0, 1.0, 2001):
            pt = tree.geodesic(legs["o"], tip, float(s))
            val = energy_at(pt)
            if val < best_val:
                best_pt, best_val = pt, val
    # Golden-section refinement around the scan minimum on its leg: the
    # leg-wise energy is convex in the offset.
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    if tree.distance(best_pt, legs["o"]) > 1e-12:
        leg = best_pt.v if best_pt.u == "o" else best_pt.u
    else:
        leg = "a"
    tip = tree.vertex_point(leg)
    s0 = tree.distance(legs["o"], best_pt)
    lo, hi = max(s0 - 1e-3, 0.0), min(s0 + 1e-3, 1.0)
    while hi - lo > 1e-12:
        m1, m2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
        e1 = energy_at(tree.geodesic(legs["o"], tip, m1))
        e2 = energy_at(tree.geodesic(legs["o"], tip, m2))
        if e1 <= e2:
            hi = m2
        else:
            lo = m1
    oracle_pt = tree.geodesic(legs["o"], tip, 0.5 * (lo + hi))
    got_pt = res2.graph.images[center]
    tripod_gap = max(
        abs(energy_at(got_pt) - energy_at(oracle_pt)),
        tree.distance(got_pt, oracle_pt),
    )

    # 16x16 instance: one barycenter sweep from the map moves no vertex by
    # more than 1e-14, and its induced metric certifies flat.
    mesh16 = grid_mesh(16)
    res16 = harmonic_relax(
        HarmonicSpec(mesh16, _tripod_boundary_trace(tree, mesh16), tree)
    )
    certificate16 = barycenter_sweep(mesh16, tree, list(res16.graph.images))
    rep16 = certify_induced(
        res16.graph, Kappa(0.0), triple_budget=20, grid=8, tolerance=5e-3,
        seed=1, steiner=4,
    )

    # Euclidean target: exact graph-Laplacian linear system as oracle.
    sp = EuclideanSpace(2)
    mesh4 = grid_mesh(4)
    trace4 = {
        int(v): np.array(
            [
                mesh4.coords[v][0] ** 2 - mesh4.coords[v][1] ** 2,
                2.0 * mesh4.coords[v][0] * mesh4.coords[v][1],
            ]
        )
        for v in np.flatnonzero(mesh4.boundary)
    }
    res4 = harmonic_relax(HarmonicSpec(mesh4, trace4, sp))
    interior = mesh4.interior_vertices()
    idx = {v: i for i, v in enumerate(interior)}
    A = np.zeros((len(interior), len(interior)))
    b = np.zeros((len(interior), 2))
    for u, v in mesh4.edges:
        u, v = int(u), int(v)
        for x, y in ((u, v), (v, u)):
            if x in idx:
                A[idx[x], idx[x]] += 1.0
                if y in idx:
                    A[idx[x], idx[y]] -= 1.0
                else:
                    b[idx[x]] += trace4[y]
    sol = np.linalg.solve(A, b)
    euclid_gap = max(
        float(np.linalg.norm(res4.graph.images[v] - sol[idx[v]]))
        for v in interior
    )
    elapsed = time.monotonic() - t0
    _verdict(
        "harmonic-disc",
        res2.converged
        and res16.converged
        and res4.converged
        and tripod_gap <= 1e-6
        and certificate16 <= 1e-14
        and rep16.passed
        and euclid_gap <= 1e-8,
        (
            f"tripod oracle gap {tripod_gap:.1e}, 16x16 certificate move "
            f"{certificate16:.1e} <= 1e-14, induced max defect "
            f"{rep16.max_defect:.2e} <= 5e-3, linear-system gap {euclid_gap:.1e}"
        ),
        elapsed,
        300.0,
    )


@pytest.mark.xfail(
    raises=AssertionError,
    reason=(
        "known fail: induced tree defects are ill-conditioned where interior "
        "images sit at the branch point; awaits the exact oracle of ROADMAP "
        "'Exact geodesics on the glued complex, then delete curve relaxation'"
    ),
)
def test_harmonic_tripod_10x10_certifies_flat():
    """The 10x10 tripod map, exact or stopped early by sweeps, reads a
    defect of 8.09e-3 with the settings of `test_harmonic_disc`.

    Not strict: the defect hangs on rounding-level changes of the map (a
    banded Cholesky solve gives 3.3e-15 here, and 4.4e-2 on 16x16), so a
    pass is no more a fix than this fail is a regression.
    """
    tree = _tripod()
    mesh = grid_mesh(10)
    res = harmonic_relax(HarmonicSpec(mesh, _tripod_boundary_trace(tree, mesh), tree))
    rep = certify_induced(
        res.graph, Kappa(0.0), triple_budget=20, grid=8, tolerance=5e-3,
        seed=1, steiner=4,
    )
    assert rep.passed, f"induced max defect {rep.max_defect:.2e} > 5e-3"


def _identity_builder(n):
    sp = EuclideanSpace(2)
    mesh = grid_mesh(n)
    return MappedGraph(mesh, sp, [np.array(c) for c in mesh.coords])


def _wavy_builder(n):
    sp = EuclideanSpace(3)
    mesh = grid_mesh(n)
    imgs = [
        np.array([c[0], c[1], 0.15 * math.sin(2.0 * c[0]) * c[1]])
        for c in mesh.coords
    ]
    return MappedGraph(mesh, sp, imgs)


@pytest.mark.slow
def test_metric_relations():
    """Connecting <= length samplewise; quotient/non-bubbling/domination."""
    t0 = time.monotonic()
    ok = True
    details = []
    for builder, name in ((_identity_builder, "flat"), (_wavy_builder, "wavy")):
        doms = []
        for n in (2, 3):
            mg = builder(n)
            ok = ok and quotient_is_monotone(mg, induced_length_metric(mg))
            res = relax_graph(mg, RelaxConfig(preserve_domination=True, max_iters=200))
            ok = ok and non_bubbling(res.graph).ok
            doms.append(dominates(mg, res.graph))
        ok = ok and all(rep.holds for rep in doms)
        details.append(
            f"{name} dominance strict={[rep.strict for rep in doms]}"
        )
        # Samplewise connecting-vs-length comparison on each instance.
        for n in (2, 3):
            cmp = compare_metrics(builder(n), max_pairs=36, seed=n)
            ok = ok and cmp.ok
            ok = ok and all(
                c <= l + 1e-9 for c, l in zip(cmp.connecting, cmp.length)
            )
    # A strict-domination instance: middle vertex beyond the far endpoint.
    sp1 = EuclideanSpace(1)
    path = SimpleGraph(3, ((0, 1), (1, 2)))
    stretched = MappedGraph(
        path, sp1,
        [np.array([0.0]), np.array([3.0]), np.array([2.0])], fixed={0, 2},
    )
    strict_res = relax_graph(stretched, RelaxConfig(preserve_domination=True))
    strict_rep = dominates(stretched, strict_res.graph)
    ok = ok and strict_rep.holds and strict_rep.strict
    elapsed = time.monotonic() - t0
    _verdict(
        "metric-relations",
        ok,
        "; ".join(details) + f"; strict control strict={strict_rep.strict}",
        elapsed,
        120.0,
    )


@pytest.mark.slow
def test_determinism():
    """Identical seeds reproduce certification reports bit for bit."""
    t0 = time.monotonic()

    def run_induced():
        rep, samples = certify_induced(
            _skew_ruled_map(6), Kappa(0.0), triple_budget=4, grid=4,
            tolerance=5e-3, seed=2, steiner=2, collect_samples=True,
        )
        from catdisc.verify import samples_csv

        return rep.to_json(), samples_csv(samples)

    def run_cone():
        rep = certify_cat(
            FlatCone(1.5 * math.pi), Kappa(0.0), triple_budget=20, grid=6,
            seed=4,
        )
        return rep.to_json()

    def run_relax():
        mesh = grid_mesh(3)
        rng = np.random.default_rng(9)
        imgs = [np.array(c) + 0.2 * rng.normal(size=2) for c in mesh.coords]
        res = relax_graph(MappedGraph(mesh, EuclideanSpace(2), imgs))
        return res.trace_csv()

    same = (
        run_induced() == run_induced()
        and run_cone() == run_cone()
        and run_relax() == run_relax()
    )
    elapsed = time.monotonic() - t0
    _verdict(
        "determinism",
        same,
        "induced report + samples CSV, cone report, relax trace all bit-identical",
        elapsed,
        120.0,
    )

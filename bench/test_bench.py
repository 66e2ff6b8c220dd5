"""Tests of the benchmark itself: negative controls, determinism, tracing.

Every workload's check is shown to fail on an input that is wrong on
purpose, so no check passes by accident.  Sizes are small; the whole file
runs in seconds.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from catdisc import constructions, mesh, minimize, model, spaces, verify  # noqa: E402


def _ops(build, seed, tmp_path):
    return {op.name: op for op in build(seed, tmp_path)}


# -- cat-model ----------------------------------------------------------------------


def test_cone_checks_reject_swapped_cones():
    def cone(theta):
        return verify.certify_cat(
            spaces.FlatCone(theta), model.Kappa(0.0), triple_budget=20, grid=6, seed=3,
        )

    wide, narrow = cone(2.5 * math.pi), cone(1.5 * math.pi)
    assert wl.check_wide_cone(wide).ok and wl.check_narrow_cone(narrow).ok
    assert not wl.check_wide_cone(narrow).ok
    assert not wl.check_narrow_cone(wide).ok


def test_self_comparison_rejects_wrong_curvature():
    def sphere(kappa):
        return verify.certify_cat(
            spaces.ModelSpace(1.0), model.Kappa(kappa), triple_budget=6, grid=4,
            tolerance=1e-9, seed=2,
        )

    assert wl.check_self_comparison(sphere(1.0), grid=4).ok
    assert not wl.check_self_comparison(sphere(0.0), grid=4).ok
    assert not wl.check_self_comparison(sphere(1.0), grid=5).ok


def test_cone_control_rejects_wide_cone_samples(tmp_path):
    op = _ops(wl.cat_model, 4, tmp_path)["narrow-cone-control"]
    assert op.check(op.run()).ok
    wide = spaces.FlatCone(2.5 * math.pi)
    triple = tuple(wide.point(1.0, i * 1.5 * math.pi / 3.0) for i in range(3))
    samples = verify.thinness_defect(wide, model.Kappa(0.0), triple, grid=9)
    assert not op.check(samples).ok


def test_vacuous_pass_is_the_only_known_cat_fault(tmp_path):
    ops = _ops(wl.cat_model, 1, tmp_path)
    assert [n for n, op in ops.items() if op.known_fault] == ["vacuous-pass"]
    assert not ops["vacuous-pass"].check(ops["vacuous-pass"].run()).ok
    evaluated = verify.certify_cat(
        spaces.ModelSpace(1.0), model.Kappa(1.0), triple_budget=3, grid=3,
    )
    assert wl.check_not_vacuous(evaluated).ok


# -- ruled-euclid -------------------------------------------------------------------


def test_ruling_check_rejects_long_and_short_distances():
    n = 4
    pairs = [(0, 4 * (n + 1)), (1, 2 * (n + 1) + 3)]
    on_ruling = [True, False]

    def chord(p, q):
        return float(np.linalg.norm(
            oracles.ruled_image(*wl.SKEW, *wl._grid_xy(n, p))
            - oracles.ruled_image(*wl.SKEW, *wl._grid_xy(n, q))
        ))

    exact = [chord(p, q) for p, q in pairs]
    assert wl.check_ruling_distances(exact, pairs, on_ruling, n).ok
    longer_ruling = [exact[0] * (1 + 1e-6), exact[1]]
    assert not wl.check_ruling_distances(longer_ruling, pairs, on_ruling, n).ok
    below_chord = [exact[0], exact[1] * (1 - 1e-6)]
    assert not wl.check_ruling_distances(below_chord, pairs, on_ruling, n).ok


def test_ruled_certificate_rejects_failed_or_short_reports():
    report = verify.CertReport(
        kappa=0.0, n_triples=1, n_skipped=0, n_samples=9, max_defect=-1e-4,
        mean_positive_defect=0.0, tolerance=5e-3, verdict="pass",
        provenance="induced:EuclideanSpace", seed=1,
    )
    assert wl.check_ruled_certificate(report, triples=1, grid=3).ok
    failed = dataclasses.replace(report, max_defect=0.1, verdict="fail")
    assert not wl.check_ruled_certificate(failed, triples=1, grid=3).ok
    skipped = dataclasses.replace(report, n_triples=0, n_skipped=1, n_samples=0)
    assert not wl.check_ruled_certificate(skipped, triples=1, grid=3).ok


def test_fold_check_bound():
    assert wl.check_fold(math.sqrt(2.0)).ok
    assert not wl.check_fold(1.327).ok


def test_ruled_probes_keep_their_shape(tmp_path):
    rng = np.random.default_rng(0)
    for _ in range(20):
        verts = wl._place(rng, wl.RULED_N, wl.RULED_TRIANGLE)
        xy = np.array([wl._grid_xy(wl.RULED_N, v) for v in verts]) * wl.RULED_N
        steps = xy - xy.min(axis=0)
        assert np.allclose(steps, wl.RULED_TRIANGLE)


# -- harmonic-tree ------------------------------------------------------------------


def _fake_cli_output(outdir, energies, passed=True, n_triples=1):
    outdir.mkdir(parents=True, exist_ok=True)
    report = {
        "passed": passed, "converged": True, "config_hash": "x",
        "reports": [{"n_triples": n_triples, "max_defect": 0.0}],
    }
    (outdir / "report.json").write_text(json.dumps(report))
    (outdir / "defects.csv").write_text("refinement,max_defect,mean_positive_defect\n")
    rows = [f"{i + 1},{e!r},0.1" for i, e in enumerate(energies)]
    (outdir / "energy_trace.csv").write_text("\n".join(["sweep,energy,max_move"] + rows) + "\n")


def test_cli_check_rejects_rising_energy_and_vacuous_reports(tmp_path):
    _fake_cli_output(tmp_path / "good", [3.0, 2.0, 2.0])
    assert wl.check_cli_harmonic(0, tmp_path / "good", tolerance=5e-3).ok
    _fake_cli_output(tmp_path / "rising", [3.0, 2.0, 2.0 + 1e-12])
    assert not wl.check_cli_harmonic(0, tmp_path / "rising", tolerance=5e-3).ok
    _fake_cli_output(tmp_path / "vacuous", [3.0, 2.0], n_triples=0)
    assert not wl.check_cli_harmonic(0, tmp_path / "vacuous", tolerance=5e-3).ok
    assert not wl.check_cli_harmonic(1, tmp_path / "good", tolerance=5e-3).ok


def test_tripod_check_rejects_vertex_off_the_minimizer(tmp_path):
    op = _ops(wl.harmonic_tree, 3, tmp_path)["tripod-3x3"]
    result = op.run()
    assert op.check(result).ok
    center = mesh.grid_mesh(2).interior_vertices()[0]
    images = list(result.graph.images)
    p = images[center]
    leg = p.v if p.u == "o" else p.u
    images[center] = spaces.TreePoint("o", leg, 0.05)
    moved = dataclasses.replace(result, graph=result.graph.with_images(images))
    assert not op.check(moved).ok


def test_tripod_oracle_distances():
    assert oracles.tripod_distance(("a", 0.3), ("a", 0.1)) == pytest.approx(0.2)
    assert oracles.tripod_distance(("a", 0.3), ("b", 0.1)) == pytest.approx(0.4)
    assert oracles.tripod_coords(("b", "o", 0.25)) == ("b", 0.75)
    assert oracles.tripod_coords(("o", "c", 0.0)) == ("o", 0.0)


# -- minimize-poly ------------------------------------------------------------------


def _small_perturbed():
    grid = mesh.grid_mesh(3)
    rng = np.random.default_rng(7)
    start = [
        np.array(c) + (0.0 if grid.boundary[v] else 0.1 * rng.normal(size=2))
        for v, c in enumerate(grid.coords)
    ]
    return mesh.MappedGraph(grid, spaces.EuclideanSpace(2), start)


def test_lbfgs_check_rejects_vertex_moved_off_minimizer():
    mg = _small_perturbed()
    res = minimize.relax_graph(mg)
    lbfgs = lambda: oracles.min_total_length(mg.mesh.edges, mg.images, mg.fixed)  # noqa: E731
    out = (res, minimize.vertex_angle_sums(res.graph))
    assert wl.check_relax(out, lbfgs).ok
    images = list(res.graph.images)
    v = mg.mesh.interior_vertices()[0]
    images[v] = images[v] + np.array([0.05, 0.0])
    moved = dataclasses.replace(res, graph=res.graph.with_images(images))
    bad = (moved, minimize.vertex_angle_sums(moved.graph))
    assert not wl.check_relax(bad, lbfgs).ok


def test_fermat_check_rejects_off_centre_point(tmp_path):
    op = _ops(wl.minimize_poly, 2, tmp_path)["fermat-fan"]
    res, angles = op.run()
    assert op.check((res, angles)).ok
    images = list(res.graph.images)
    images[0] = images[0] + np.array([0.01, 0.0])
    moved = dataclasses.replace(res, graph=res.graph.with_images(images))
    assert not op.check((moved, minimize.vertex_angle_sums(moved.graph))).ok


def test_domination_check_rejects_reversed_maps():
    # A path whose middle vertex lies beyond the far end: relaxing it
    # shortens the induced metric strictly.
    mg = mesh.MappedGraph(
        mesh.SimpleGraph(3, ((0, 1), (1, 2))), spaces.EuclideanSpace(1),
        [np.array([0.0]), np.array([3.0]), np.array([2.0])], fixed={0, 2},
    )
    res = minimize.relax_graph(mg, minimize.RelaxConfig(preserve_domination=True))
    forward = minimize.dominates(mg, res.graph)
    assert forward.strict and wl.check_domination((res, forward)).ok
    assert not wl.check_domination((res, minimize.dominates(res.graph, mg))).ok


def test_square_and_lipschitz_checks_reject_stretched_values(tmp_path):
    images = [np.array(c, dtype=float) for c in ((0, 0), (1, 0), (0, 1), (1, 1))]
    pairs = [(1, 0), (3, 0)]
    planar = [1.0, math.sqrt(2.0)]
    assert wl.check_square(planar, images, pairs).ok
    assert not wl.check_square([1.03, math.sqrt(2.0)], images, pairs).ok

    from catdisc.polyhedral import LipschitzReport

    assert wl.check_lipschitz(LipschitzReport(10, 1.0, 0.0)).ok
    assert not wl.check_lipschitz(LipschitzReport(10, 1.01, 0.0)).ok


def test_compare_check_rejects_connecting_above_length():
    from catdisc.induced import MetricComparison

    good = MetricComparison(((1, 0),), (0.5,), (0.5,), 1.0, ())
    assert wl.check_compare(good).ok
    bad = MetricComparison(((1, 0),), (0.6,), (0.5,), 1.2, ())
    assert not wl.check_compare(bad).ok


# -- the harness ----------------------------------------------------------------------


def test_same_seed_same_digests(tmp_path):
    for build, name in (
        (wl.minimize_poly, "fermat-fan"),
        (wl.cat_model, "narrow-cone-control"),
        (wl.harmonic_tree, "tripod-3x3"),
    ):
        a = _ops(build, 5, tmp_path)[name]
        b = _ops(build, 5, tmp_path)[name]
        assert a.check(a.run()).digest == b.check(b.run()).digest


def test_tracer_restores_originals_and_splits_self_time():
    before = (
        verify.dijkstra, verify.build_comparison_triangle, model.model_distance,
        spaces.MetricTree.distance, "barycenter_rows" in vars(spaces.MetricTree),
        "curve_length" in vars(spaces.MetricTree), constructions.harmonic_relax,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify.dijkstra is not before[0]
        kap = model.Kappa(1.0)
        space = spaces.ModelSpace(1.0)
        p, q = space.point((0.1, 0.2)), space.point((0.3, -0.1))
        space.curve_length([p, q, p])
    finally:
        tracer.uninstall()
    after = (
        verify.dijkstra, verify.build_comparison_triangle, model.model_distance,
        spaces.MetricTree.distance, "barycenter_rows" in vars(spaces.MetricTree),
        "curve_length" in vars(spaces.MetricTree), constructions.harmonic_relax,
    )
    assert after == before
    layers = tracer.layers
    # curve_length -> 2 x distance -> 2 x model_distance; plus 2 x point.
    assert layers["spaces.model"].calls == 5
    assert layers["spaces.model"].outer_calls == 3
    assert layers["model"].calls >= 2
    assert layers["spaces.model"].self_s >= 0.0
    assert layers["spaces.model"].incl_s >= layers["spaces.model"].self_s
    assert model.model_distance(kap, p, q) > 0.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(wl.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer_units == {**tracing.PER_LAYER_UNITS, "trace.overhead_s": "s"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_refuses_a_checkout_without_sources(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "cat-model",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

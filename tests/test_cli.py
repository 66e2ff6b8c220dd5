"""Command-line scenarios: exit codes, report artifacts, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catdisc
from catdisc.cli import main
from catdisc.induced import induced_length_metric, quotient_is_monotone
from catdisc.mesh import MappedGraph, grid_mesh
from catdisc.minimize import RelaxConfig, dominates, non_bubbling, relax_graph
from catdisc.spaces import EuclideanSpace


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def ruled_config(outdir, **overrides):
    cfg = {
        "target": {"backend": "euclidean", "dim": 3},
        "kappa": 0.0,
        "eta0": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        "eta1": [[0.0, 1.0, 0.2], [1.0, 1.0, 0.0]],
        "refinements": [3, 4],
        "budgets": {"triples": 4, "grid": 4, "steiner": 2},
        "seed": 1,
        "outdir": outdir,
    }
    cfg.update(overrides)
    return cfg


def test_verify_ruled_passes_and_writes_reports(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", ruled_config(str(out)))
    assert main(["verify-ruled", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["construction"] == "ruled"
    assert len(report["config_hash"]) == 16
    assert (out / "defects.csv").read_text().startswith("refinement,")


def test_reruns_are_bit_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg1 = write_config(tmp_path, "c1.json", ruled_config(str(out1)))
    cfg2 = write_config(tmp_path, "c2.json", ruled_config(str(out2)))
    assert main(["verify-ruled", cfg1]) == 0
    assert main(["verify-ruled", cfg2]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    # Identical up to the hash, which covers the differing outdir field.
    r1.pop("config_hash")
    r2.pop("config_hash")
    assert r1 == r2
    assert (out1 / "defects.csv").read_text() == (out2 / "defects.csv").read_text()


def test_outdir_env_override(tmp_path, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("CATDISC_OUTDIR", str(env_out))
    cfg = write_config(
        tmp_path, "cfg.json", ruled_config(str(tmp_path / "ignored"))
    )
    assert main(["verify-ruled", cfg]) == 0
    assert (env_out / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_missing_field_exits_2(tmp_path, capsys):
    cfg = ruled_config(str(tmp_path / "out"))
    del cfg["eta0"]
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["verify-ruled", path]) == 2
    assert "eta0" in capsys.readouterr().err


def test_invalid_json_and_bad_schema_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify-ruled", str(bad)]) == 2
    cfg = write_config(
        tmp_path, "schema.json",
        {**ruled_config(str(tmp_path / "out")), "schema_version": 99},
    )
    assert main(["verify-ruled", cfg]) == 2
    assert main(["verify-ruled", str(tmp_path / "missing.json")]) == 2


def test_cat_check_cone_fail_exits_1(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "cone.json",
        {
            "target": {"backend": "cone", "total_angle": 4.71238898038469},
            "kappa": 0.0,
            "budgets": {"triples": 30, "grid": 6},
            "seed": 1,
            "outdir": str(out),
        },
    )
    assert main(["cat-check", cfg]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "fail"
    assert (out / "samples.csv").read_text().startswith("s,t,")


def test_cat_check_wide_cone_passes(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "cone.json",
        {
            "target": {"backend": "cone", "total_angle": 7.853981633974483},
            "kappa": 0.0,
            "budgets": {"triples": 30, "grid": 6},
            "seed": 1,
            "outdir": str(out),
        },
    )
    assert main(["cat-check", cfg]) == 0


def test_minimize_graph_ruled(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "min.json",
        {
            "target": {"backend": "euclidean", "dim": 3},
            "kappa": 0.0,
            "construction": "ruled",
            "eta0": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            "eta1": [[0.0, 1.0, 0.2], [1.0, 1.0, 0.0]],
            "grid": 3,
            "seed": 0,
            "outdir": str(out),
        },
    )
    assert main(["minimize-graph", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["min_angle_sum"] >= 6.283185 - 1e-4
    assert (out / "relax_trace.csv").exists()


def test_build_polyhedral_harmonic(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        "poly.json",
        {
            "target": {"backend": "euclidean", "dim": 2},
            "kappa": 0.0,
            "construction": "harmonic",
            "trace_corners": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
            "grid": 3,
            "epsilon": 0.8,
            "seed": 0,
            "outdir": str(out),
        },
    )
    assert main(["build-polyhedral", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["interior_angles_ok"] is True
    assert report["lipschitz_ok"] is True
    assert (out / "net.svg").read_text().startswith("<svg")
    assert json.loads((out / "complex.json").read_text())["cells"]


def test_unknown_construction_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "target": {"backend": "euclidean", "dim": 2},
            "kappa": 0.0,
            "construction": "origami",
            "outdir": str(tmp_path / "out"),
        },
    )
    assert main(["minimize-graph", cfg]) == 2


def tripod_config(outdir, seed):
    """verify-harmonic on the tripod at refinement 4, one triple."""
    return {
        "target": {
            "backend": "tree",
            "edges": [["o", "a", 1.0], ["o", "b", 1.0], ["o", "c", 1.0]],
        },
        "kappa": 0.0,
        "trace_corners": [
            ["o", "a", 1.0], ["o", "b", 1.0], ["o", "c", 1.0], ["o", "a", 0.0],
        ],
        "refinements": [4],
        "budgets": {"triples": 1, "grid": 3},
        "seed": seed,
        "outdir": outdir,
    }


def test_verify_harmonic_with_every_triple_skipped_is_not_a_pass(tmp_path):
    # With this seed the one sampled triple is skipped.
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "tripod.json", tripod_config(str(out), seed=2))
    assert main(["verify-harmonic", cfg]) != 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert [r["n_triples"] for r in report["reports"]] == [0]
    assert [r["verdict"] for r in report["reports"]] == ["inconclusive"]


def test_tree_harmonic_run_leaves_scipy_optimize_unloaded(tmp_path):
    """Importing scipy.optimize would add to the start-up of every CLI run."""
    cfg = write_config(tmp_path, "tripod.json", tripod_config(str(tmp_path / "out"), seed=1))
    code = (
        "import sys; from catdisc.cli import main; "
        "print(main(['verify-harmonic', sys.argv[1]]), 'scipy.optimize' in sys.modules)"
    )
    src = Path(catdisc.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code, cfg], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["0", "False"]


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("seed", "abc", "seed"),
        ("budgets", {"triples": "many"}, "budgets.triples"),
        ("refinements", [], "refinements"),
        ("grid", 0, "grid"),
    ],
)
def test_malformed_counts_exit_2(tmp_path, capsys, field, value, named):
    cfg = ruled_config(str(tmp_path / "out"), **{field: value})
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["verify-ruled", path]) == 2
    assert f"config error: {named}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, overrides, named",
    [
        ("verify-ruled", {"target": {"backend": "euclidean"}}, "target.dim"),
        ("verify-ruled", {"target": {"backend": "torus", "dim": 3}}, "target"),
        ("verify-ruled", {"target": {"dim": 3}}, "target"),
        ("verify-ruled", {"target": {"backend": "euclidean", "dim": "x"}}, "target.dim"),
        ("verify-ruled", {"tolerances": [1]}, "tolerances"),
        ("verify-ruled", {"tolerances": {"defect": True}}, "tolerances.defect"),
        ("verify-ruled", {"tolerances": {"defekt": 1e-3}}, "tolerances.defekt"),
        ("verify-ruled", {"kappa": True}, "kappa"),
        ("minimize-graph", {"construction": "ruled", "grid": 2,
                            "preserve_domination": "no"}, "preserve_domination"),
        ("verify-ruled", {"eta0": [[0.0, 0.0], [1.0, 0.0, 0.0]]}, "eta0"),
        ("verify-harmonic", {"trace_corners": [[0.0, 0.0, 0.0]] * 3}, "trace_corners"),
        ("build-polyhedral", {"construction": "ruled", "grid": 2, "epsilon": 0}, "epsilon"),
        ("build-polyhedral", {"construction": "ruled", "grid": 2, "kappa": 1.0,
                              "epsilon": 2.0}, "epsilon"),
        ("verify-ruled", {"target": {"backend": "euclidean", "dim": True}}, "target.dim"),
        ("verify-ruled", {"target": {"backend": "model", "kappa": True}}, "target.kappa"),
        ("verify-ruled", {"target": {"backend": "cone", "total_angle": True}},
         "target.total_angle"),
        ("verify-ruled", {"target": {"backend": "tree", "edges": [["o", "a", 1.0],
                                                                  ["o", "b", True]]}},
         "target.edges[1]"),
        ("verify-ruled", {"eta1": [[0.0, 1.0, 0.2], [1.0, True, 0.0]]}, "eta1[1][1]"),
        ("verify-ruled", {"target": {"backend": "model", "kappa": 1.0},
                          "eta0": [[0.0, 0.0], [False, 0.0]],
                          "eta1": [[0.0, 0.5], [0.5, 0.5]]}, "eta0[1][0]"),
        ("verify-harmonic", {"target": {"backend": "tree",
                                        "edges": [["o", "a", 1.0], ["o", "b", 1.0]]},
                             "trace_corners": [["o", "a", 1.0], ["o", "b", 1.0],
                                               ["o", "b", True], ["o", "a", 0.5]]},
         "trace_corners[2][2]"),
        ("verify-harmonic", {"target": {"backend": "cone", "total_angle": 7.0},
                             "trace_corners": [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0],
                                               [True, 3.0]]}, "trace_corners[3][0]"),
        ("verify-ruled", {"target": {"backend": "euclidean", "dim": 2.5}}, "target.dim"),
        ("verify-ruled", {"target": {"backend": "model", "kappa": "1.0"}}, "target.kappa"),
        ("verify-ruled", {"target": {"backend": "cone", "total_angle": "7.0"}},
         "target.total_angle"),
        ("verify-ruled", {"target": {"backend": "tree", "edges": [["o", "a", 1.0],
                                                                  ["o", "b", "1.5"]]}},
         "target.edges[1]"),
        ("verify-ruled", {"eta1": [[0.0, 1.0, 0.2], [1.0, "1.0", 0.0]]}, "eta1[1][1]"),
        ("verify-ruled", {"eta0": []}, "eta0"),
        ("verify-harmonic", {"trace_corners": []}, "trace_corners"),
    ],
    ids=["no-dim", "unknown-backend", "no-backend", "bad-dim", "tolerance-list",
         "bool-tolerance", "unknown-tolerance", "bool-kappa", "string-flag",
         "short-point", "three-corners", "zero-epsilon", "epsilon-past-half-r",
         "bool-dim", "bool-target-kappa", "bool-total-angle", "bool-edge-weight",
         "bool-euclidean-point", "bool-model-point", "bool-tree-point", "bool-cone-point",
         "fractional-dim", "string-target-kappa", "string-total-angle", "string-edge-weight",
         "string-euclidean-point", "empty-eta0", "empty-corners"],
)
def test_malformed_fields_exit_2(tmp_path, capsys, command, overrides, named):
    cfg = ruled_config(str(tmp_path / "out"), **overrides)
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, path]) == 2
    assert f"config error: {named}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Frozen configs of every command, on all four targets, with exit-1 and
# exit-2 paths.  None has an `outdir` field: the config hash, and with it
# report.json, would then depend on the test's directory.
R2 = {"backend": "euclidean", "dim": 2}
R3 = {"backend": "euclidean", "dim": 3}
SPHERE = {"backend": "model", "kappa": 1.0}
TRIPOD = {"backend": "tree", "edges": [["o", "a", 1.0], ["o", "b", 1.0], ["o", "c", 1.0]]}
TRIPOD_CORNERS = [["o", "a", 1.0], ["o", "b", 1.0], ["o", "c", 1.0], ["o", "a", 0.0]]
SQUARE_CORNERS = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
SKEW = {"eta0": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "eta1": [[0.0, 1.0, 0.2], [1.0, 1.0, 0.0]]}
CAP = {"eta0": [[0.0, 0.0], [0.5, 0.0]], "eta1": [[0.0, 0.5], [0.5, 0.6]]}
PINNED = {
    "ruled-euclid": ("verify-ruled", {
        "target": R3, "kappa": 0.0, **SKEW, "refinements": [3, 4],
        "budgets": {"triples": 4, "grid": 4, "steiner": 2}, "seed": 1}),
    "ruled-sphere": ("verify-ruled", {
        "target": SPHERE, "kappa": 1.0, **CAP, "refinements": [3],
        "budgets": {"triples": 3, "grid": 3, "steiner": 2}, "seed": 1}),
    "harmonic-tripod": ("verify-harmonic", {
        "target": TRIPOD, "kappa": 0.0, "trace_corners": TRIPOD_CORNERS, "refinements": [4],
        "budgets": {"triples": 1, "grid": 3}, "seed": 1}),
    "harmonic-tripod-skipped": ("verify-harmonic", {
        "target": TRIPOD, "kappa": 0.0, "trace_corners": TRIPOD_CORNERS, "refinements": [4],
        "budgets": {"triples": 1, "grid": 3}, "seed": 2}),
    "harmonic-sphere-wide": ("verify-harmonic", {
        "target": SPHERE, "kappa": 1.0, "refinements": [2],
        "trace_corners": [[-1.4, 0.0], [1.4, 0.0], [1.4, 0.1], [-1.4, 0.1]]}),
    "minimize-euclid": ("minimize-graph", {
        "target": R3, "kappa": 0.0, "construction": "ruled", **SKEW, "grid": 3}),
    "minimize-tripod": ("minimize-graph", {
        "target": TRIPOD, "kappa": 0.0, "construction": "harmonic",
        "trace_corners": TRIPOD_CORNERS, "grid": 3, "preserve_domination": True}),
    "poly-plane": ("build-polyhedral", {
        "target": R2, "kappa": 0.0, "construction": "harmonic",
        "trace_corners": SQUARE_CORNERS, "grid": 3, "epsilon": 0.8}),
    "poly-sphere": ("build-polyhedral", {
        "target": SPHERE, "kappa": 1.0, "construction": "ruled", **CAP, "grid": 2,
        "epsilon": 0.5, "seed": 3}),
    "poly-small-epsilon": ("build-polyhedral", {
        "target": R2, "kappa": 0.0, "construction": "harmonic",
        "trace_corners": SQUARE_CORNERS, "grid": 3, "epsilon": 0.1}),
    "cat-cone": ("cat-check", {
        "target": {"backend": "cone", "total_angle": 4.71238898038469}, "kappa": 0.0,
        "budgets": {"triples": 30, "grid": 6}, "seed": 1}),
    "cat-hyperbolic": ("cat-check", {
        "target": {"backend": "model", "kappa": -1.0}, "kappa": -1.0,
        "budgets": {"triples": 5, "grid": 4}, "seed": 2}),
    "bool-tree-point": ("verify-harmonic", {
        "target": TRIPOD, "kappa": 0.0,
        "trace_corners": [["o", "a", 1.0], ["o", "b", True], ["o", "c", 1.0], ["o", "a", 0.0]]}),
    "three-corners": ("build-polyhedral", {
        "target": R2, "kappa": 0.0, "construction": "harmonic",
        "trace_corners": [[0.0, 0.0]] * 3, "grid": 2, "epsilon": 0.5}),
    "unknown-construction": ("minimize-graph", {
        "target": R2, "kappa": 0.0, "construction": "origami"}),
    "no-eta0": ("verify-ruled", {"target": R3, "kappa": 0.0, "eta1": SKEW["eta1"]}),
    "bool-cone-angle": ("cat-check", {
        "target": {"backend": "cone", "total_angle": True}, "kappa": 0.0}),
    # A tree point on a missing edge, or off its edge, is a config error.
    "tree-missing-edge": ("verify-harmonic", {
        "target": TRIPOD, "kappa": 0.0, "refinements": [4],
        "trace_corners": [["o", "z", 1.0], ["o", "b", 1.0], ["o", "c", 1.0], ["o", "a", 0.5]]}),
    "tree-offset-outside": ("build-polyhedral", {
        "target": TRIPOD, "kappa": 0.0, "construction": "harmonic", "grid": 2, "epsilon": 0.5,
        "trace_corners": [["o", "a", 1.5], ["o", "b", 1.0], ["o", "c", 1.0], ["o", "a", 0.5]]}),
    # Construction and relaxation errors are pipeline failures.
    "minimize-build-failure": ("minimize-graph", {
        "target": SPHERE, "kappa": 1.0, "construction": "harmonic", "grid": 2,
        "trace_corners": [[-1.4, 0.0], [1.4, 0.0], [1.4, 0.1], [-1.4, 0.1]]}),
    "minimize-relax-failure": ("minimize-graph", {
        "target": SPHERE, "kappa": 1.0, "construction": "ruled", "grid": 2,
        "eta0": [[0.0, 0.0], [0.1, 0.0]], "eta1": [[0.0, 3.1], [0.1, 3.1]]}),
    "poly-build-failure": ("build-polyhedral", {
        "target": SPHERE, "kappa": 1.0, "construction": "harmonic", "grid": 2, "epsilon": 1.0,
        "trace_corners": [[-1.4, 0.0], [1.4, 0.0], [1.4, 0.1], [-1.4, 0.1]]}),
    # An empty boundary curve is a config error.
    "empty-eta0": ("verify-ruled", {"target": R3, "kappa": 0.0, "eta0": [], "eta1": SKEW["eta1"]}),
    # One triple passes, but no column is rho-close, so the quadrangle check fails.
    "ruled-unchecked-quadrangle": ("verify-ruled", {
        "target": R3, "kappa": 0.0, "eta0": [[0.0, 0.0, 0.0]], "eta1": [[0.0, 1.0, 0.0]],
        "refinements": [3], "budgets": {"triples": 6, "grid": 3, "steiner": 2}, "seed": 1}),
}
# Per config: exit code, last stderr line, and the sha256 of each file written.
PINS = {
    "ruled-euclid": (0, "", {
        "defects.csv": "8f400e1ceb00cbe2476a045581a5dab6d0e6d3970610fa483fbf2abe32d0aff5",
        "report.json": "41863e9e39cdea28b5502cc2cb82ac9ae24bef617fa6d61f8559254ff75a7552"}),
    "ruled-sphere": (0, "", {
        "defects.csv": "fc1ba149ad4034d38e7dc28d21e971fcf27fdbb3df5ceff0b324304208a4b59e",
        "report.json": "27cc6dcfdb2e9b4399f51ffc91b13e21efc5a717c0a3fd3d5165c8690c994186"}),
    "harmonic-tripod": (0, "", {
        "defects.csv": "5b68d01b269b22045da9c8cfce824d49c7cf88c09e807c9030903fbc4c438da0",
        "energy_trace.csv": "9bcfac2be550b45510cccfd5ccbc8f7c6f2846f5e0256e95cea30f79c768ecfd",
        "report.json": "bad28f3d7fbaa576e66db028bf4f1bf6f85d298e5e775da7350414d5567df193"}),
    "harmonic-tripod-skipped": (1, "", {
        "defects.csv": "7ec350524195e69d34a180740c9682082e89eac6b4e1cb65d2c7a312dcf0c916",
        "energy_trace.csv": "9bcfac2be550b45510cccfd5ccbc8f7c6f2846f5e0256e95cea30f79c768ecfd",
        "report.json": "94560e2d7fbdd9f56b75d5d28979dc0728e6a1faf07f9e70dcf731a4b8ca0c4e"}),
    "harmonic-sphere-wide": (1, "pipeline failure in build:2: stage build:2: points spread over"
                                " a ball of radius >= R_kappa/2", {}),
    "minimize-euclid": (0, "", {
        "relax_trace.csv": "fe3d56d51226a95e618938317c16289d01d38c4d2c08eac68ec932d2f24914fe",
        "report.json": "a6b9db5690574c83fd46a3ec296a6c4eac3b78455d3ce5d046909607c1c93880"}),
    "minimize-tripod": (0, "", {
        "relax_trace.csv": "c69fb3aecb8784b00c328d43059e56a7402a96d7237f571f3ca60b8477db4006",
        "report.json": "9573a423404ecf001eb5a59b449a279b2e2bf9b280f96bcc86d4cb59479f8e74"}),
    "poly-plane": (0, "", {
        "complex.json": "4efc1db70f6cce094f38c78f286175400db756648d284c19480acd320838228a",
        "net.svg": "13072088e964430740846fc6f28bcaf978c58c06712d58217fd6e6a6148f4fd8",
        "report.json": "fbe3a782c56acb9da79307199a1ccb677ce9bbc34ce89f81a22d22e5620043b7"}),
    "poly-sphere": (0, "", {
        "complex.json": "ed1919bcd5d7c056f25abafb3a18240a039abbe8ffc67e61969b7dc323c60906",
        "net.svg": "240bc1eb34092a0e7c65e2205852d33ff0e00a8c1bbd86dde1f116976215ce84",
        "report.json": "51885c9c896aec6abd4b19822dd235227f1a59ca9ab57ac1bd0cc3ed4fdd73ef"}),
    "poly-small-epsilon": (1, "pipeline failure in polyhedral-build: stage polyhedral-build:"
                              " triangle 0 has image diameter 0.471405 > epsilon 0.1", {}),
    "cat-cone": (1, "", {
        "report.json": "af7f2ee4593dd98b801e608f9d1657a15853e3b77a687530de0f70227dcf6d69",
        "samples.csv": "ce71bcae10b72ecf8582ce3f097417331a9be64b144d2c2f4da590e02708a281"}),
    "cat-hyperbolic": (0, "", {
        "report.json": "db36d159b55b6a0588868af21f82b6583cc039748966d9c65774228c900fe782",
        "samples.csv": "cfb7dcbae13273abbc472dc6514c79071a2eadf7b3abad8f12e9a949f28e3dd9"}),
    "bool-tree-point": (2, "config error: trace_corners[1][2]: expected a number, got True", {}),
    "three-corners": (2, "config error: trace_corners: exactly four corner points required", {}),
    "unknown-construction": (2, "config error: construction: unknown construction 'origami'", {}),
    "no-eta0": (2, "config error: eta0: missing required field", {}),
    "bool-cone-angle": (2, "config error: target.total_angle: expected a number, got True", {}),
    "tree-missing-edge": (2, "config error: trace_corners: no edge o-z in this tree", {}),
    "tree-offset-outside": (2, "config error: trace_corners: offset 1.5 outside edge of length"
                               " 1.0", {}),
    "minimize-build-failure": (1, "pipeline failure in build:2: stage build:2: points spread over"
                                  " a ball of radius >= R_kappa/2", {}),
    "minimize-relax-failure": (1, "pipeline failure in relax: stage relax: points spread over a"
                                  " ball of radius >= R_kappa/2", {}),
    "poly-build-failure": (1, "pipeline failure in build:2: stage build:2: points spread over a"
                              " ball of radius >= R_kappa/2", {}),
    "empty-eta0": (2, "config error: eta0: expected a non-empty list", {}),
    "ruled-unchecked-quadrangle": (1, "", {
        "defects.csv": "444658e4f3a3badf950b80fecca8ef644214865e6ae4bf8256279353735621b8",
        "report.json": "b27a59fdc37290e6e9d9a0e18ebcbca95c03586fd2e38ae99368ceeebffabac9"}),
}


def run_pinned(tmp_path, monkeypatch, capsys, name):
    """Exit code, last stderr line and output sha256s of the config `name`."""
    command, cfg = PINNED[name]
    out = tmp_path / "out"
    monkeypatch.setenv("CATDISC_OUTDIR", str(out))
    code = main([command, write_config(tmp_path, "cfg.json", cfg)])
    err = capsys.readouterr().err.strip().splitlines()
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*"))}
    return code, err[-1] if err else "", files


@pytest.mark.parametrize("name", PINNED)
def test_command_outputs_are_pinned(tmp_path, monkeypatch, capsys, name):
    assert run_pinned(tmp_path, monkeypatch, capsys, name) == PINS[name]


def test_reruns_are_bit_identical_across_blas_threads(tmp_path):
    """Fresh processes with one and with two BLAS threads write the same
    bytes: the tripod's harmonic map, a kappa = 1 ruled disc and an R^3
    minimizer."""
    names = ("harmonic-tripod", "ruled-sphere", "minimize-euclid")
    script = (
        "import os, sys\nfrom catdisc.cli import main\n"
        "for command, config, out in zip(*[iter(sys.argv[1:])] * 3):\n"
        "    os.environ['CATDISC_OUTDIR'] = out\n"
        "    print(main([command, config]))\n"
    )
    src = Path(catdisc.__file__).resolve().parents[1]
    runs = []
    for threads in ("1", "2"):
        root = tmp_path / threads
        argv = []
        for name in names:
            command, cfg = PINNED[name]
            argv += [command, write_config(tmp_path, f"{name}.json", cfg), str(root / name)]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads),
        )
        files = {p.relative_to(root).as_posix(): p.read_bytes()
                 for p in sorted(root.rglob("*")) if p.is_file()}
        runs.append((done.stdout.split(), files))
    assert runs[0][0] == ["0", "0", "0"]
    assert len(runs[0][1]) == 7
    assert runs[0] == runs[1]


def test_verify_ruled_report_passes_only_when_the_exit_code_does(tmp_path, monkeypatch, capsys):
    code, _err, _files = run_pinned(tmp_path, monkeypatch, capsys, "ruled-unchecked-quadrangle")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert code == 1
    assert report["passed"] is False
    assert report["quadrangle"]["ok"] is False
    assert [(r["n_triples"], r["verdict"]) for r in report["reports"]] == [(1, "pass")]


def test_verify_ruled_identity_square_passes(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "square.json", {
        "target": R2, "kappa": 0.0, "eta0": [[0.0, 0.0], [1.0, 0.0]],
        "eta1": [[0.0, 1.0], [1.0, 1.0]], "refinements": [2, 3],
        "budgets": {"triples": 6, "grid": 4}, "seed": 0, "outdir": str(out),
    })
    assert main(["verify-ruled", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert [r["refinement"] for r in report["reports"]] == [2, 3]
    rows = (out / "defects.csv").read_text().splitlines()
    assert rows[0] == "refinement,max_defect,mean_positive_defect"
    assert [row.split(",")[0] for row in rows[1:]] == ["2", "3"]
    # The identity map's quotient is monotone, and the domination-preserving
    # relaxation of it dominates it without bubbling.
    for n in (2, 3):
        mesh = grid_mesh(n)
        mg = MappedGraph(mesh, EuclideanSpace(2), [np.array(c) for c in mesh.coords])
        assert quotient_is_monotone(mg, induced_length_metric(mg))
        res = relax_graph(mg, RelaxConfig(preserve_domination=True, max_iters=200))
        assert dominates(mg, res.graph).holds
        assert non_bubbling(res.graph).ok


@pytest.mark.parametrize(
    "command, overrides, stage",
    [
        # The boundary trace spreads too far for a unique barycenter.
        ("verify-harmonic", {"target": SPHERE, "kappa": 1.0,
                             "trace_corners": PINNED["harmonic-sphere-wide"][1]["trace_corners"]},
         "build:3"),
        # The comparison kernel overflows at this curvature.
        ("verify-ruled", {"kappa": -1e300}, "certify:3"),
    ],
    ids=["build", "certify"],
)
def test_verify_tags_failing_stage(tmp_path, capsys, command, overrides, stage):
    cfg = write_config(tmp_path, "cfg.json", ruled_config(str(tmp_path / "out"), **overrides))
    assert main([command, cfg]) == 1
    assert capsys.readouterr().err.startswith(f"pipeline failure in {stage}: ")


@pytest.mark.parametrize(
    "target, eta0, eta1, rho",
    [
        (R3, [[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]], [[0.0, 0.0, 1.0]], 25.0),
        # From the middle of leg a through o to the end of leg b: length 1.5.
        (TRIPOD, [["o", "a", 0.5], ["o", "b", 1.0]], [["o", "c", 1.0]], 7.5),
    ],
    ids=["euclidean", "tree"],
)
def test_config_points_round_trip(tmp_path, target, eta0, eta1, rho):
    """rho is ten times the largest boundary step, here half of eta0."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", {
        "target": target, "kappa": 0.0, "eta0": eta0, "eta1": eta1, "refinements": [2],
        "budgets": {"triples": 1, "grid": 2, "steiner": 1}, "outdir": str(out),
    })
    main(["verify-ruled", cfg])
    report = json.loads((out / "report.json").read_text())
    assert abs(report["quadrangle"]["rho"] - rho) <= 1e-12

"""Command-line scenarios: exit codes, report artifacts, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catdisc
from catdisc.cli import main


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
        ("verify-ruled", {"target": {"backend": "euclidean", "dim": "x"}}, "target"),
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
    ],
    ids=["no-dim", "unknown-backend", "no-backend", "bad-dim", "tolerance-list",
         "bool-tolerance", "unknown-tolerance", "bool-kappa", "string-flag",
         "short-point", "three-corners", "zero-epsilon", "epsilon-past-half-r",
         "bool-dim", "bool-target-kappa", "bool-total-angle", "bool-edge-weight",
         "bool-euclidean-point", "bool-model-point", "bool-tree-point", "bool-cone-point"],
)
def test_malformed_fields_exit_2(tmp_path, capsys, command, overrides, named):
    cfg = ruled_config(str(tmp_path / "out"), **overrides)
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, path]) == 2
    assert f"config error: {named}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

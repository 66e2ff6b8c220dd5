"""Command-line front end: scenario configs in, reports and figures out.

Exit codes: 0 all asserted checks pass, 1 a pipeline check failed (reports
are still written), 2 malformed config (message names the field).  The
output directory comes from the config or the CATDISC_OUTDIR variable;
every report embeds the config hash and seed so reruns are comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .constructions import (
    HarmonicSpec,
    RuledDiscSpec,
    harmonic_relax,
    quadrangle_bound_check,
    ruled_disc_map,
    ruled_is_length_minimizing_check,
    verify_pipeline,
)
from .errors import ConfigError, PipelineStageError
from .mesh import grid_mesh
from .minimize import RelaxConfig, relax_graph, vertex_angle_sums
from .model import Kappa
from .polyhedral import (
    build_polyhedral_disc,
    epsilon_density_check,
    interior_angle_check,
    lipschitz_check,
    short_loop_probe,
)
from .spaces import point_from_config, space_from_config
from .verify import certify_cat, samples_csv

SCHEMA_VERSION = 1

# Central defaults for every optional config knob.
DEFAULTS = {
    "budgets": {"triples": 20, "grid": 8, "steiner": 4},
    "tolerances": {"defect": 5e-3, "exact_defect": 1e-6},
    "refinements": [8, 16],
    "seed": 0,
    "outdir": "out",
}


def _require(cfg: dict, path: str, types, context: str = ""):
    node = cfg
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(context + ".".join(walked), "missing required field")
        node = node[part]
    if types is not None and not isinstance(node, types):
        raise ConfigError(
            context + path, f"expected {types}, got {type(node).__name__}"
        )
    return node


def _load_config(path: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(path, f"unreadable config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(path, "top level must be an object")
    version = cfg.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version}")
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()[:16]
    return cfg, digest


def _outdir(cfg: dict) -> Path:
    out = os.environ.get("CATDISC_OUTDIR") or cfg.get("outdir", DEFAULTS["outdir"])
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _count(value, path: str, least: int) -> int:
    """An integer config value of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(path, f"expected an integer >= {least}, got {value!r}")
    return value


def _common(cfg: dict):
    """Target, kappa, seed, budgets and tolerances of a config, after
    checking every optional count it may hold."""
    space = space_from_config(_require(cfg, "target", dict))
    kappa = float(_require(cfg, "kappa", (int, float)))
    seed = _count(cfg.get("seed", DEFAULTS["seed"]), "seed", 0)
    given = cfg.get("budgets", {})
    if not isinstance(given, dict):
        raise ConfigError("budgets", f"expected an object, got {type(given).__name__}")
    budgets = {**DEFAULTS["budgets"], **given}
    for name, val in budgets.items():
        if name not in DEFAULTS["budgets"]:
            raise ConfigError(f"budgets.{name}", "unknown budget")
        _count(val, f"budgets.{name}", 0 if name == "steiner" else 1)
    refinements = cfg.get("refinements", DEFAULTS["refinements"])
    if not isinstance(refinements, list) or not refinements:
        raise ConfigError("refinements", f"expected a non-empty list, got {refinements!r}")
    for i, n in enumerate(refinements):
        _count(n, f"refinements[{i}]", 1)
    _count(cfg.get("grid", DEFAULTS["refinements"][0]), "grid", 1)
    tols = {**DEFAULTS["tolerances"], **cfg.get("tolerances", {})}
    for name, val in tols.items():
        if not (isinstance(val, (int, float)) and val > 0):
            raise ConfigError(f"tolerances.{name}", "must be positive")
    return space, kappa, seed, budgets, tols


def _write(outdir: Path, name: str, text: str):
    (outdir / name).write_text(text)


def _emit_report(outdir: Path, name: str, payload: dict, digest: str, seed: int):
    payload = {**payload, "config_hash": digest, "seed": seed}
    _write(outdir, name, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cmd_verify_ruled(cfg: dict, digest: str) -> int:
    space, kappa, seed, budgets, tols = _common(cfg)
    eta0 = [point_from_config(space, p) for p in _require(cfg, "eta0", list)]
    eta1 = [point_from_config(space, p) for p in _require(cfg, "eta1", list)]
    refinements = cfg.get("refinements", DEFAULTS["refinements"])
    outdir = _outdir(cfg)

    def builder(n):
        return ruled_disc_map(RuledDiscSpec(eta0, eta1, (n, n), space))

    bundle = verify_pipeline(
        builder,
        "ruled",
        kappa,
        refinements,
        triple_budget=budgets["triples"],
        grid=budgets["grid"],
        tolerance=tols["defect"],
        seed=seed,
        steiner=budgets["steiner"],
    )
    n0 = refinements[0]
    spec0 = RuledDiscSpec(eta0, eta1, (n0, n0), space)
    mg0 = ruled_disc_map(spec0)
    quad = quadrangle_bound_check(spec0, mg0)
    minimality = ruled_is_length_minimizing_check(mg0)
    _write(outdir, "defects.csv", bundle.defect_csv())
    _emit_report(
        outdir,
        "report.json",
        {
            "construction": "ruled",
            "kappa": kappa,
            "passed": bundle.passed,
            "reports": [json.loads(r.to_json()) for r in bundle.reports],
            "quadrangle": {
                "rho": quad.rho,
                "empirical_l": quad.empirical_l,
                "ok": quad.ok,
            },
            "minimality": {
                "max_length_defect": minimality.max_length_defect,
                "max_proportionality_defect": minimality.max_proportionality_defect,
                "ok": minimality.ok,
            },
        },
        digest,
        seed,
    )
    return 0 if bundle.passed and quad.ok and minimality.ok else 1


def _harmonic_spec(cfg: dict, space, n: int):
    corners = [
        point_from_config(space, p) for p in _require(cfg, "trace_corners", list)
    ]
    if len(corners) != 4:
        raise ConfigError("trace_corners", "exactly four corner points required")
    mesh = grid_mesh(n)
    trace = {}
    for v in np.flatnonzero(mesh.boundary):
        a, t = mesh.coords[v]
        # Walk the square boundary: geodesic interpolation along each side.
        if t == 0.0:
            trace[int(v)] = space.geodesic(corners[0], corners[1], a)
        elif t == 1.0:
            trace[int(v)] = space.geodesic(corners[3], corners[2], a)
        elif a == 0.0:
            trace[int(v)] = space.geodesic(corners[0], corners[3], t)
        else:
            trace[int(v)] = space.geodesic(corners[1], corners[2], t)
    return HarmonicSpec(mesh, trace, space)


def _cmd_verify_harmonic(cfg: dict, digest: str) -> int:
    space, kappa, seed, budgets, tols = _common(cfg)
    refinements = cfg.get("refinements", DEFAULTS["refinements"])
    outdir = _outdir(cfg)
    results = {}

    def builder(n):
        res = harmonic_relax(_harmonic_spec(cfg, space, n))
        results[n] = res
        return res.graph

    bundle = verify_pipeline(
        builder,
        "harmonic",
        kappa,
        refinements,
        triple_budget=budgets["triples"],
        grid=budgets["grid"],
        tolerance=tols["defect"],
        seed=seed,
        steiner=budgets["steiner"],
    )
    converged = all(results[n].converged for n in refinements)
    # Regularity trend: max interior edge image distance per refinement.
    moduli = {
        n: float(results[n].graph.edge_lengths().max()) for n in refinements
    }
    _write(outdir, "defects.csv", bundle.defect_csv())
    _write(outdir, "energy_trace.csv", results[refinements[-1]].trace_csv())
    _emit_report(
        outdir,
        "report.json",
        {
            "construction": "harmonic",
            "kappa": kappa,
            "passed": bundle.passed and converged,
            "converged": converged,
            "edge_modulus": moduli,
            "reports": [json.loads(r.to_json()) for r in bundle.reports],
        },
        digest,
        seed,
    )
    return 0 if bundle.passed and converged else 1


def _build_construction(cfg: dict, space, n: int):
    kind = _require(cfg, "construction", str)
    if kind == "ruled":
        eta0 = [point_from_config(space, p) for p in _require(cfg, "eta0", list)]
        eta1 = [point_from_config(space, p) for p in _require(cfg, "eta1", list)]
        return ruled_disc_map(RuledDiscSpec(eta0, eta1, (n, n), space))
    if kind == "harmonic":
        return harmonic_relax(_harmonic_spec(cfg, space, n)).graph
    raise ConfigError("construction", f"unknown construction {kind!r}")


def _cmd_minimize_graph(cfg: dict, digest: str) -> int:
    space, _kappa, seed, _budgets, _tols = _common(cfg)
    n = int(cfg.get("grid", DEFAULTS["refinements"][0]))
    outdir = _outdir(cfg)
    mg = _build_construction(cfg, space, n)
    result = relax_graph(
        mg,
        RelaxConfig(preserve_domination=bool(cfg.get("preserve_domination", False))),
    )
    angles = vertex_angle_sums(result.graph)
    ok = result.converged and angles.min_total >= 2.0 * math.pi - 1e-4
    _write(outdir, "relax_trace.csv", result.trace_csv())
    _emit_report(
        outdir,
        "report.json",
        {
            "construction": cfg["construction"],
            "passed": ok,
            "converged": result.converged,
            "sweeps": result.sweeps,
            "total_length": result.trace[-1][1] if result.trace else 0.0,
            "min_angle_sum": angles.min_total,
        },
        digest,
        seed,
    )
    return 0 if ok else 1


def _cmd_build_polyhedral(cfg: dict, digest: str) -> int:
    space, kappa, seed, _budgets, _tols = _common(cfg)
    n = int(cfg.get("grid", DEFAULTS["refinements"][0]))
    outdir = _outdir(cfg)
    mg = _build_construction(cfg, space, n)
    epsilon = float(_require(cfg, "epsilon", (int, float)))
    try:
        complex_, pair = build_polyhedral_disc(mg, epsilon, kappa)
    except Exception as exc:
        raise PipelineStageError("polyhedral-build", exc) from exc
    angle = interior_angle_check(complex_)
    lip = lipschitz_check(pair, complex_, samples=200, refinement=2, seed=seed)
    den = epsilon_density_check(
        pair, complex_, mg, epsilon, samples=100, refinement=2, seed=seed
    )
    payload = {
        "construction": cfg["construction"],
        "kappa": kappa,
        "interior_angles_ok": angle.ok,
        "lipschitz_ok": lip.ok,
        "density_ok": den.ok,
    }
    if kappa > 0:
        probe = short_loop_probe(complex_, seed=seed)
        payload["short_loop_probe"] = {
            "heuristic": True,
            "shortest_stable": probe.shortest_stable,
            "threshold": probe.threshold,
            "found_short_geodesic": probe.found_short_geodesic,
        }
        certified = angle.ok and lip.ok and not probe.found_short_geodesic
    else:
        certified = angle.ok and lip.ok
    payload["certified_desk_scale"] = certified
    payload["passed"] = certified and den.ok
    _write(outdir, "complex.json", complex_.to_json() + "\n")
    _write(outdir, "net.svg", complex_.to_svg_net())
    _emit_report(outdir, "report.json", payload, digest, seed)
    return 0 if payload["passed"] else 1


def _cmd_cat_check(cfg: dict, digest: str) -> int:
    space, kappa, seed, budgets, tols = _common(cfg)
    outdir = _outdir(cfg)
    report, samples = certify_cat(
        space,
        Kappa(kappa),
        triple_budget=budgets["triples"],
        grid=budgets["grid"],
        tolerance=tols["exact_defect"],
        seed=seed,
        collect_samples=True,
    )
    _write(outdir, "samples.csv", samples_csv(samples))
    _emit_report(outdir, "report.json", json.loads(report.to_json()), digest, seed)
    return 0 if report.passed else 1


_COMMANDS = {
    "verify-ruled": _cmd_verify_ruled,
    "verify-harmonic": _cmd_verify_harmonic,
    "minimize-graph": _cmd_minimize_graph,
    "build-polyhedral": _cmd_build_polyhedral,
    "cat-check": _cmd_cat_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="catdisc",
        description="Certify upper curvature bounds of disc constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="scenario config (JSON)")
    args = parser.parse_args(argv)
    try:
        cfg, digest = _load_config(args.config)
        return _COMMANDS[args.command](cfg, digest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineStageError as exc:
        print(f"pipeline failure in {exc.stage}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

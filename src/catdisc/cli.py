"""Command-line front end: scenario configs in, reports and figures out.

Exit codes: 0 all asserted checks pass, 1 a pipeline check failed (reports
are still written), 2 malformed config (message names the field).  The
output directory comes from the config or the CATDISC_OUTDIR variable;
every report embeds the config hash and seed so reruns are comparable.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .constructions import (
    HarmonicSpec,
    RuledDiscSpec,
    harmonic_relax,
    quadrangle_bound_check,
    ruled_disc_map,
    ruled_is_length_minimizing_check,
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
from .spaces import EuclideanSpace, FlatCone, MetricTree, ModelSpace, TreePoint
from .verify import certify_cat, certify_induced, samples_csv

SCHEMA_VERSION = 1

# Central defaults for every optional config knob.
DEFAULTS = {
    "budgets": {"triples": 20, "grid": 8, "steiner": 4},
    "tolerances": {"defect": 5e-3, "exact_defect": 1e-6},
    "refinements": [8, 16],
    "seed": 0,
    "outdir": "out",
}


def _require(cfg: dict, name: str, types):
    """The value of the required field `name`, of one of `types`; booleans
    are not numbers."""
    if name not in cfg:
        raise ConfigError(name, "missing required field")
    value = cfg[name]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(name, f"expected {types}, got {type(value).__name__}")
    return value


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


def _positive(value, path: str) -> float:
    """A positive number config value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ConfigError(path, f"expected a positive number, got {value!r}")
    return value


def _section(cfg: dict, name: str, check) -> dict:
    """An optional object over the keys of DEFAULTS[name], merged onto those
    defaults; `check(value, path)` vets each value."""
    given = cfg.get(name, {})
    if not isinstance(given, dict):
        raise ConfigError(name, f"expected an object, got {type(given).__name__}")
    merged = {**DEFAULTS[name], **given}
    for key, val in merged.items():
        if key not in DEFAULTS[name]:
            raise ConfigError(f"{name}.{key}", f"unknown {name[:-1]}")
        check(val, f"{name}.{key}")
    return merged


def _number(value, path: str):
    """`value`, if it is an `int` or a `float`: `int` and `float` would read
    a boolean as 0 or 1 and a numeric string as its number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return value


def _space(cfg: dict):
    """The target space; a missing, unknown or unreadable backend field is a
    config error."""
    target = _require(cfg, "target", dict)
    backend = target.get("backend")
    try:
        if backend == "euclidean":
            return EuclideanSpace(_count(target["dim"], "target.dim", 1))
        if backend == "model":
            return ModelSpace(float(_number(target["kappa"], "target.kappa")))
        if backend == "tree":
            return MetricTree([
                (str(u), str(v), float(_number(w, f"target.edges[{i}]")))
                for i, (u, v, w) in enumerate(target["edges"])
            ])
        if backend == "cone":
            return FlatCone(float(_number(target["total_angle"], "target.total_angle")))
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"target.{exc.args[0]}", "missing required field") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError("target", str(exc)) from exc
    raise ConfigError("target", f"unknown backend {backend!r}")


def _common(cfg: dict):
    """Target, kappa, seed, budgets and tolerances of a config, after
    checking every optional count and tolerance it may hold."""
    space = _space(cfg)
    kappa = float(_require(cfg, "kappa", (int, float)))
    seed = _count(cfg.get("seed", DEFAULTS["seed"]), "seed", 0)
    budgets = _section(
        cfg, "budgets", lambda v, path: _count(v, path, 0 if path == "budgets.steiner" else 1)
    )
    refinements = cfg.get("refinements", DEFAULTS["refinements"])
    if not isinstance(refinements, list) or not refinements:
        raise ConfigError("refinements", f"expected a non-empty list, got {refinements!r}")
    for i, n in enumerate(refinements):
        _count(n, f"refinements[{i}]", 1)
    _count(cfg.get("grid", DEFAULTS["refinements"][0]), "grid", 1)
    return space, kappa, seed, budgets, _section(cfg, "tolerances", _positive)


def _write(outdir: Path, name: str, text: str):
    (outdir / name).write_text(text)


def _emit_report(outdir: Path, payload: dict, digest: str, seed: int):
    """Write report.json: `payload` with the config hash and seed."""
    payload = {**payload, "config_hash": digest, "seed": seed}
    _write(outdir, "report.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _points(cfg: dict, space, name: str) -> list:
    """The target points listed at config field `name`: coordinate lists, or
    [u, v, offset] on a tree edge.  A point the target cannot read is a
    config error."""
    points, given = [], _require(cfg, name, list)
    if not given:
        raise ConfigError(name, "expected a non-empty list")
    for i, p in enumerate(given):
        try:
            if isinstance(space, MetricTree):
                u, v, off = p
                off = float(_number(off, f"{name}[{i}][2]"))
                point = space._coerce(TreePoint(str(u), str(v), off))
            else:
                for j, x in enumerate(p):
                    _number(x, f"{name}[{i}][{j}]")
                if isinstance(space, EuclideanSpace):
                    point = space._coerce(p)
                elif isinstance(space, ModelSpace):
                    point = space.point(p)
                else:
                    r, phi = p
                    point = space.point(float(r), float(phi))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(name, str(exc)) from exc
        points.append(point)
    return points


@contextmanager
def _stage(name: str):
    """Re-raise an error of the enclosed stage as PipelineStageError; one
    that already carries a stage passes unchanged."""
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _ruled(cfg: dict, space):
    """build(n) of the ruled disc between the curves `eta0` and `eta1`."""
    eta0, eta1 = _points(cfg, space, "eta0"), _points(cfg, space, "eta1")

    def build(n):
        spec = RuledDiscSpec(eta0, eta1, (n, n), space)
        return ruled_disc_map(spec), spec

    return build


def _ruled_checks(built: list, outdir: Path):
    """Quadrangle and minimality checks of the first refinement's disc."""
    _n, mg, spec = built[0]
    quad = quadrangle_bound_check(spec, mg)
    minimality = ruled_is_length_minimizing_check(mg)
    fields = {
        "quadrangle": {"rho": quad.rho, "empirical_l": quad.empirical_l, "ok": quad.ok},
        "minimality": {
            "max_length_defect": minimality.max_length_defect,
            "max_proportionality_defect": minimality.max_proportionality_defect,
            "ok": minimality.ok,
        },
    }
    return fields, quad.ok and minimality.ok


def _harmonic(cfg: dict, space):
    """build(n) of the harmonic disc on grid_mesh(n) whose boundary trace
    walks the four `trace_corners` by geodesics."""
    corners = _points(cfg, space, "trace_corners")
    if len(corners) != 4:
        raise ConfigError("trace_corners", "exactly four corner points required")

    def build(n):
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
        result = harmonic_relax(HarmonicSpec(mesh, trace, space))
        return result.graph, result

    return build


def _harmonic_checks(built: list, outdir: Path):
    """Convergence at every refinement, the regularity trend (the largest
    edge image per refinement) and the last refinement's energy trace."""
    converged = all(result.converged for _n, _mg, result in built)
    moduli = {n: float(mg.edge_lengths().max()) for n, mg, _result in built}
    _write(outdir, "energy_trace.csv", built[-1][2].trace_csv())
    return {"converged": converged, "edge_modulus": moduli}, converged


# Each construction: a factory that reads its own config fields and returns
# build(n) -> (MappedGraph, record), and the checks its verify command adds
# over the (n, graph, record) of every refinement.  The record is the
# RuledDiscSpec or the HarmonicResult.
CONSTRUCTIONS = {
    "ruled": (_ruled, _ruled_checks),
    "harmonic": (_harmonic, _harmonic_checks),
}


def _cmd_verify(kind: str, cfg: dict, digest: str) -> int:
    """Build the construction at each refinement n (stage `build:n`) and
    certify its induced metric (stage `certify:n`)."""
    space, kappa, seed, budgets, tols = _common(cfg)
    factory, checks = CONSTRUCTIONS[kind]
    build = factory(cfg, space)
    built, reports = [], []
    for n in cfg.get("refinements", DEFAULTS["refinements"]):
        with _stage(f"build:{n}"):
            mg, record = build(n)
        with _stage(f"certify:{n}"):
            reports.append(certify_induced(
                mg, Kappa(kappa), triple_budget=budgets["triples"], grid=budgets["grid"],
                tolerance=tols["defect"], seed=seed, refinement=n, steiner=budgets["steiner"],
            ))
        built.append((n, mg, record))
    outdir = _outdir(cfg)
    fields, ok = checks(built, outdir)
    passed = ok and all(r.passed for r in reports)
    rows = ["refinement,max_defect,mean_positive_defect"] + [
        f"{r.refinement},{r.max_defect:.12g},{r.mean_positive_defect:.12g}" for r in reports
    ]
    _write(outdir, "defects.csv", "\n".join(rows) + "\n")
    _emit_report(
        outdir,
        {
            "construction": kind,
            "kappa": kappa,
            "passed": passed,
            "reports": [json.loads(r.to_json()) for r in reports],
            **fields,
        },
        digest,
        seed,
    )
    return 0 if passed else 1


def _grid_graph(cfg: dict, space):
    """The config's `construction` on the grid of its `grid` field, built as
    stage `build:{grid}`."""
    kind = _require(cfg, "construction", str)
    if kind not in CONSTRUCTIONS:
        raise ConfigError("construction", f"unknown construction {kind!r}")
    build = CONSTRUCTIONS[kind][0](cfg, space)
    n = cfg.get("grid", DEFAULTS["refinements"][0])
    with _stage(f"build:{n}"):
        return build(n)[0]


def _cmd_minimize_graph(cfg: dict, digest: str) -> int:
    space, _kappa, seed, _budgets, _tols = _common(cfg)
    preserve = cfg.get("preserve_domination", False)
    if not isinstance(preserve, bool):
        raise ConfigError("preserve_domination", f"expected true or false, got {preserve!r}")
    mg = _grid_graph(cfg, space)
    with _stage("relax"):
        result = relax_graph(mg, RelaxConfig(preserve_domination=preserve))
    angles = vertex_angle_sums(result.graph)
    ok = result.converged and angles.min_total >= 2.0 * math.pi - 1e-4
    outdir = _outdir(cfg)
    _write(outdir, "relax_trace.csv", result.trace_csv())
    _emit_report(
        outdir,
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
    epsilon = float(_positive(_require(cfg, "epsilon", (int, float)), "epsilon"))
    half_r = Kappa(kappa).r_kappa / 2.0
    if not epsilon < half_r:
        raise ConfigError("epsilon", f"{epsilon} outside (0, R_kappa/2 = {half_r})")
    mg = _grid_graph(cfg, space)
    with _stage("polyhedral-build"):
        complex_, pair = build_polyhedral_disc(mg, epsilon, kappa)
    angle = interior_angle_check(complex_)
    lip = lipschitz_check(pair, complex_, samples=200, refinement=2, seed=seed)
    den = epsilon_density_check(pair, complex_, mg, epsilon, samples=100, refinement=2, seed=seed)
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
    outdir = _outdir(cfg)
    _write(outdir, "complex.json", complex_.to_json() + "\n")
    _write(outdir, "net.svg", complex_.to_svg_net())
    _emit_report(outdir, payload, digest, seed)
    return 0 if payload["passed"] else 1


def _cmd_cat_check(cfg: dict, digest: str) -> int:
    space, kappa, seed, budgets, tols = _common(cfg)
    outdir = _outdir(cfg)
    report, samples = certify_cat(
        space, Kappa(kappa), triple_budget=budgets["triples"], grid=budgets["grid"],
        tolerance=tols["exact_defect"], seed=seed, collect_samples=True,
    )
    _write(outdir, "samples.csv", samples_csv(samples))
    _emit_report(outdir, json.loads(report.to_json()), digest, seed)
    return 0 if report.passed else 1


_COMMANDS = {
    "verify-ruled": functools.partial(_cmd_verify, "ruled"),
    "verify-harmonic": functools.partial(_cmd_verify, "harmonic"),
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

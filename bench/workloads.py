"""The benchmark's workloads: seeded inputs, timed operations and their checks.

A workload is a fixed list of operations built from a seed.  An operation's
`run` is the timed call into catdisc's public entry points; its `check`
runs outside the timed section and compares the output with the oracles in
`oracles.py` or with properties the method must have.  Library modules are
called through their module attributes (``verify.certify_cat``) so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from catdisc import cli, constructions, induced, mesh, minimize, model
from catdisc import polyhedral, spaces, verify

import oracles

# Sizes.  Reference timings on a 2-core machine are in README.md.
CAT_TRIPLES, CAT_GRID = 12, 10
CONE_TRIPLES, CONE_GRID = 30, 8
RULED_N, RULED_TRIPLES, RULED_GRID, RULED_STEINER = 6, 1, 3, 4
RULED_RULING_PAIRS, RULED_CROSS_PAIRS = 2, 2
# Probe shapes in grid steps (along a, along t); the seed places them.
# RULING_STEP runs along t, so its ends lie on one ruling.
RULED_TRIANGLE = ((0, 0), (4, 1), (1, 4))
RULING_STEP, CROSS_STEP = (0, 4), (3, 2)
HARMONIC_N, HARMONIC_TRIPLES, HARMONIC_GRID = 4, 1, 3
# The CLI config is frozen: its own seed picks the certified triples.
HARMONIC_CONFIG_SEED = 1
MIN_N, MIN_AMPLITUDE = 5, 0.3
LIPSCHITZ_N, LIPSCHITZ_SAMPLES = 3, 300

# The skew ruled disc of the README: rulings between two skew segments.
SKEW = tuple(
    np.array(p, dtype=float)
    for p in ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0.2))
)
TRIPOD_EDGES = [["o", "a", 1.0], ["o", "b", 1.0], ["o", "c", 1.0]]


@dataclass
class Outcome:
    ok: bool
    detail: str
    digest: str
    verdict: str | None = None
    n_triples: int | None = None
    max_defect: float | None = None

    def __post_init__(self):
        # Checks compute with NumPy; the run record wants plain JSON values.
        self.ok = bool(self.ok)
        if self.max_defect is not None:
            self.max_defect = float(self.max_defect)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    # The ROADMAP item that fixes a fault this operation shows on purpose.
    known_fault: str | None = None

    def judge(self, out, err) -> Outcome:
        """Outcome of one run: an error, or a check that cannot run, fails."""
        if err is None:
            try:
                return self.check(out)
            except Exception as exc:  # the record keeps the reason
                err = exc
        return Outcome(ok=False, detail=f"{type(err).__name__}: {err}", digest="")


def digest(*parts) -> str:
    text = "\n".join(p if isinstance(p, str) else repr(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report_outcome(report, ok: bool, detail: str) -> Outcome:
    return Outcome(
        ok=ok,
        detail=detail,
        digest=digest(report.to_json()),
        verdict=report.verdict,
        n_triples=report.n_triples,
        max_defect=report.max_defect,
    )


def _images(graph) -> list:
    return [np.asarray(p).tolist() for p in graph.images]


# -- cat-model ------------------------------------------------------------------


def check_self_comparison(report, grid: int) -> Outcome:
    """A model surface compared with its own curvature has no defect."""
    ok = (
        report.passed
        and abs(report.max_defect) <= 1e-9
        and report.n_triples > 0
        and report.n_samples == report.n_triples * grid * grid
    )
    return _report_outcome(
        report, ok,
        f"|max_defect| {abs(report.max_defect):.1e} on {report.n_triples} triples",
    )


def check_wide_cone(report) -> Outcome:
    ok = report.passed and report.n_triples > 0
    return _report_outcome(report, ok, f"max_defect {report.max_defect:.1e}")


def check_narrow_cone(report) -> Outcome:
    ok = not report.passed and report.max_defect > 0.05
    return _report_outcome(report, ok, f"max_defect {report.max_defect:.3f} > 0.05")


def check_cone_control(samples, theta: float) -> Outcome:
    want = oracles.cone_midpoint_defect(theta)
    mids = [
        s for s in samples or ()
        if abs(s.s - 0.5) < 1e-9 and abs(s.t - 0.5) < 1e-9
    ]
    ok = len(mids) == 1 and abs(mids[0].defect - want) <= 1e-9
    got = mids[0].defect if mids else float("nan")
    return Outcome(
        ok=ok,
        detail=f"midpoint defect {got:.12f}, unfolding {want:.12f}",
        digest=digest([(s.s, s.t, s.measured, s.compared) for s in samples or ()]),
        max_defect=got,
    )


def check_not_vacuous(report) -> Outcome:
    """A verdict must rest on evaluated samples."""
    ok = report.n_triples > 0 and report.n_samples > 0
    return _report_outcome(
        report, ok,
        f"verdict {report.verdict} with {report.n_triples} triples evaluated",
    )


def cat_model(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for k in (-1.0, 0.0, 1.0):
        ops.append(Op(
            f"self-comparison-k{k:+.0f}",
            functools.partial(
                lambda k: verify.certify_cat(
                    spaces.ModelSpace(k), model.Kappa(k), triple_budget=CAT_TRIPLES,
                    grid=CAT_GRID, tolerance=1e-9, seed=seed,
                ),
                k,
            ),
            functools.partial(check_self_comparison, grid=CAT_GRID),
        ))
    for name, theta, check in (
        ("wide-cone", 2.5 * math.pi, check_wide_cone),
        ("narrow-cone", 1.5 * math.pi, check_narrow_cone),
    ):
        ops.append(Op(
            name,
            functools.partial(
                lambda theta: verify.certify_cat(
                    spaces.FlatCone(theta), model.Kappa(0.0),
                    triple_budget=CONE_TRIPLES, grid=CONE_GRID, tolerance=1e-6,
                    seed=seed,
                ),
                theta,
            ),
            check,
        ))
    # The control triple encloses the apex of the narrow cone; the seed turns
    # it about the apex, which leaves its defect unchanged.
    theta = 1.5 * math.pi
    turn = float(rng.uniform(0.0, theta))

    def control():
        cone = spaces.FlatCone(theta)
        triple = tuple(cone.point(1.0, turn + i * theta / 3.0) for i in range(3))
        return verify.thinness_defect(cone, model.Kappa(0.0), triple, grid=9)

    ops.append(Op(
        "narrow-cone-control",
        control,
        functools.partial(check_cone_control, theta=theta),
    ))
    # Every triple breaks the kappa = 400 perimeter rule, so none is
    # evaluated and the verdict "pass" is vacuous.
    ops.append(Op(
        "vacuous-pass",
        lambda: verify.certify_cat(
            spaces.ModelSpace(1.0), model.Kappa(400.0), triple_budget=20,
        ),
        check_not_vacuous,
        known_fault="ROADMAP item 5",
    ))
    return ops


# -- ruled-euclid -----------------------------------------------------------------


def _grid_xy(n: int, v: int) -> tuple:
    """Parameter position of vertex v of the n x n grid, row by row in t."""
    return (v % (n + 1)) / n, (v // (n + 1)) / n


def check_ruled_certificate(report, triples: int, grid: int) -> Outcome:
    ok = (
        report.passed
        and report.n_triples == triples
        and report.n_samples == triples * grid * grid
    )
    return _report_outcome(report, ok, f"max_defect {report.max_defect:.2e}")


def check_ruling_distances(dists, pairs, on_ruling, n: int) -> Outcome:
    """Rulings are straight, so the induced distance along one is the chord;
    no curve is shorter than the chord between its ends."""
    worst_ruling, worst_below = 0.0, 0.0
    for d, (p, q), ruling in zip(dists, pairs, on_ruling):
        chord = float(np.linalg.norm(
            oracles.ruled_image(*SKEW, *_grid_xy(n, p))
            - oracles.ruled_image(*SKEW, *_grid_xy(n, q))
        ))
        worst_below = max(worst_below, chord - d)
        if ruling:
            worst_ruling = max(worst_ruling, abs(d - chord))
    ok = worst_ruling <= 1e-9 and worst_below <= 1e-12
    return Outcome(
        ok=ok,
        detail=f"ruling error {worst_ruling:.1e}, worst shortfall {worst_below:.1e}",
        digest=digest(list(dists)),
    )


def check_fold(d) -> Outcome:
    """Every disc curve between the folded vertices crosses the diagonal."""
    bound = math.sqrt(2.0)
    return Outcome(
        ok=d >= bound - 1e-12,
        detail=f"distance {d:.6f}, lower bound sqrt(2) = {bound:.6f}",
        digest=digest(d),
    )


def _place(rng, n: int, shape) -> list[int]:
    """Vertices of `shape`, given in grid steps, moved to a seeded spot of the
    n x n grid.  A moved shape keeps its size, so the work stays the same."""
    width = max(i for i, _ in shape)
    height = max(j for _, j in shape)
    di, dj = int(rng.integers(n - width + 1)), int(rng.integers(n - height + 1))
    return [(j + dj) * (n + 1) + i + di for i, j in shape]


def ruled_euclid(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    n = RULED_N
    spec = constructions.RuledDiscSpec(
        eta0=SKEW[:2], eta1=SKEW[2:], grid=(n, n), space=spaces.EuclideanSpace(3),
    )
    probes = [
        [_grid_xy(n, v) for v in _place(rng, n, RULED_TRIANGLE)]
        for _ in range(RULED_TRIPLES)
    ]
    pairs = [
        tuple(_place(rng, n, ((0, 0), step)))
        for step, count in ((RULING_STEP, RULED_RULING_PAIRS), (CROSS_STEP, RULED_CROSS_PAIRS))
        for _ in range(count)
    ]
    on_ruling = [True] * RULED_RULING_PAIRS + [False] * RULED_CROSS_PAIRS

    def certify():
        mg = constructions.ruled_disc_map(spec)
        return verify.certify_induced(
            mg, model.Kappa(0.0), grid=RULED_GRID, tolerance=5e-3, seed=seed,
            steiner=RULED_STEINER, probes=probes,
        )

    def distances():
        oracle = verify.InducedGraphSpace(
            constructions.ruled_disc_map(spec), steiner=RULED_STEINER,
        )
        return [oracle.distance(p, q) for p, q in pairs]

    # grid_mesh(1) with v01 folded onto v10: both map to (1, 0).
    fold = mesh.MappedGraph(
        mesh.grid_mesh(1), spaces.EuclideanSpace(2),
        [np.array(p, dtype=float) for p in ((0, 0), (1, 0), (1, 0), (1, 1))],
    )
    return [
        Op(
            "certify-induced",
            certify,
            functools.partial(
                check_ruled_certificate, triples=RULED_TRIPLES, grid=RULED_GRID,
            ),
        ),
        Op(
            "ruling-distances",
            distances,
            functools.partial(
                check_ruling_distances, pairs=pairs, on_ruling=on_ruling, n=n,
            ),
        ),
        Op(
            "fold",
            lambda: verify.InducedGraphSpace(fold, steiner=3).distance(1, 2),
            check_fold,
            known_fault="ROADMAP item 4",
        ),
    ]


# -- harmonic-tree ------------------------------------------------------------------


def check_cli_harmonic(rc, outdir: Path, tolerance: float) -> Outcome:
    report = json.loads((outdir / "report.json").read_text())
    energy_csv = (outdir / "energy_trace.csv").read_text()
    defects_csv = (outdir / "defects.csv").read_text()
    energies = [float(row.split(",")[1]) for row in energy_csv.splitlines()[1:]]
    rising = sum(b > a for a, b in zip(energies, energies[1:]))
    reps = report["reports"]
    max_defect = max(r["max_defect"] for r in reps)
    ok = (
        rc == 0
        and report["passed"]
        and report["converged"]
        and all(r["n_triples"] > 0 for r in reps)
        and max_defect <= tolerance
        and rising == 0
        and len(energies) > 0
    )
    report.pop("config_hash")
    return Outcome(
        ok=ok,
        detail=(
            f"exit {rc}, max_defect {max_defect:.2e}, {len(energies)} sweeps, "
            f"{rising} energy rises"
        ),
        digest=digest(json.dumps(report, sort_keys=True), defects_csv, energy_csv),
        verdict="pass" if report["passed"] else "fail",
        n_triples=sum(r["n_triples"] for r in reps),
        max_defect=max_defect,
    )


def check_tripod(result, trace: dict, center: int, edges) -> Outcome:
    neighbours = [
        oracles.tripod_coords(trace[int(u if v == center else v)])
        for u, v in edges if center in (int(u), int(v))
    ]
    want = oracles.tripod_energy_minimizer(neighbours)
    p = result.graph.images[center]
    got = oracles.tripod_coords((p.u, p.v, p.offset))

    def energy(pt):
        return sum(oracles.tripod_distance(pt, nb) ** 2 for nb in neighbours)

    gap = max(abs(energy(got) - energy(want)), oracles.tripod_distance(got, want))
    return Outcome(
        ok=result.converged and gap <= 1e-6,
        detail=f"interior vertex {got}, scan oracle {want}, gap {gap:.1e}",
        digest=digest(result.trace_csv(), got),
    )


def _tripod_trace(mesh_, corners) -> dict:
    """Boundary trace through the legs: sides A-B, o-C, A-o and B-C.

    Points are (u, v, offset from u); corners are leg names.
    """
    A, B, C = corners

    def on_leg(leg, r):
        return ("o", leg, float(r))

    def walk(x, y, s):  # from tip x to tip y through o
        return on_leg(x, 1.0 - 2.0 * s) if s <= 0.5 else on_leg(y, 2.0 * s - 1.0)

    trace = {}
    for v in np.flatnonzero(mesh_.boundary):
        a, t = mesh_.coords[v]
        if t == 0.0:
            trace[int(v)] = walk(A, B, a)
        elif t == 1.0:
            trace[int(v)] = on_leg(C, a)
        elif a == 0.0:
            trace[int(v)] = on_leg(A, 1.0 - t)
        else:
            trace[int(v)] = walk(B, C, t)
    return trace


def harmonic_tree(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    # The CLI scenario is a frozen config (trace corners a, b, c, o); its own
    # seed picks the certified triple, which sets most of the round's time.
    outdir = workdir / f"harmonic-tree-{seed}"
    tolerance = 5e-3
    config = {
        "target": {"backend": "tree", "edges": TRIPOD_EDGES},
        "kappa": 0.0,
        "trace_corners": [
            ["o", "a", 1.0], ["o", "b", 1.0], ["o", "c", 1.0], ["o", "a", 0.0],
        ],
        "refinements": [HARMONIC_N],
        "budgets": {
            "triples": HARMONIC_TRIPLES, "grid": HARMONIC_GRID, "steiner": 4,
        },
        "tolerances": {"defect": tolerance},
        "seed": HARMONIC_CONFIG_SEED,
        "outdir": str(outdir),
    }
    config_path = workdir / f"harmonic-tree-{seed}.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    # The tripod's legs are interchangeable; the seed picks their order on
    # the 3 x 3 instance.
    legs = [str(x) for x in rng.permutation(["a", "b", "c"])]
    mesh2 = mesh.grid_mesh(2)
    trace = _tripod_trace(mesh2, legs)
    center = mesh2.interior_vertices()[0]

    def tripod():
        tree = spaces.MetricTree(TRIPOD_EDGES)
        spec = constructions.HarmonicSpec(
            mesh2, {v: spaces.TreePoint(*p) for v, p in trace.items()}, tree,
        )
        return constructions.harmonic_relax(spec)

    return [
        Op(
            "cli-verify-harmonic",
            lambda: cli.main(["verify-harmonic", str(config_path)]),
            functools.partial(check_cli_harmonic, outdir=outdir, tolerance=tolerance),
        ),
        Op(
            "tripod-3x3",
            tripod,
            functools.partial(
                check_tripod, trace=trace, center=center, edges=mesh2.edges,
            ),
        ),
    ]


# -- minimize-poly --------------------------------------------------------------------


def check_relax(out, lbfgs: Callable[[], float]) -> Outcome:
    res, angles = out
    got = res.graph.total_length()
    want = lbfgs()
    rel = abs(got - want) / want
    floor = angles.min_total
    ok = res.converged and rel <= 1e-6 and floor >= 2.0 * math.pi - 1e-4
    return Outcome(
        ok=ok,
        detail=f"{res.sweeps} sweeps, rel diff {rel:.1e} to L-BFGS-B, min angle sum {floor:.8f}",
        digest=digest(res.trace_csv(), _images(res.graph)),
    )


def check_fermat(out) -> Outcome:
    """The Fermat point of an equilateral triangle is its centre, where the
    three edges meet at 2pi/3."""
    res, angles = out
    gap = abs(angles.entries[0].total - 2.0 * math.pi)
    off = float(np.linalg.norm(res.graph.images[0]))
    ok = res.converged and gap <= 1e-6 and off <= 1e-6
    return Outcome(
        ok=ok,
        detail=f"angle-sum gap {gap:.1e}, distance to centre {off:.1e}",
        digest=digest(res.trace_csv(), _images(res.graph)),
    )


def check_domination(out) -> Outcome:
    res, dom = out
    return Outcome(
        ok=dom.holds,
        detail=f"max shortfall {dom.max_shortfall:.1e}, strict {dom.strict}",
        digest=digest(res.trace_csv(), _images(res.graph), dom),
    )


def check_compare(cmp) -> Outcome:
    ok = cmp.ok and all(c <= l + 1e-9 for c, l in zip(cmp.connecting, cmp.length))
    return Outcome(
        ok=ok,
        detail=f"max ratio {cmp.max_ratio:.6f} on {len(cmp.pairs)} pairs",
        digest=digest(cmp.connecting, cmp.length),
    )


def check_square(dists, images, pairs) -> Outcome:
    worst = max(
        abs(d - np.linalg.norm(images[i] - images[j])) / np.linalg.norm(images[i] - images[j])
        for d, (i, j) in zip(dists, pairs)
    )
    return Outcome(
        ok=worst <= 0.02,
        detail=f"worst relative error {worst:.1e} to planar distance",
        digest=digest(list(dists)),
    )


def check_lipschitz(lip) -> Outcome:
    ok = lip.ok and lip.max_ratio <= 1.0 + 1e-3
    return Outcome(
        ok=ok,
        detail=f"max ratio {lip.max_ratio:.6f} on {lip.n_pairs} pairs",
        digest=digest(lip),
    )


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def minimize_poly(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    plane = spaces.EuclideanSpace(2)

    # Interior vertices of a grid pushed off the identity, which is the
    # length minimizer for the fixed boundary.
    grid = mesh.grid_mesh(MIN_N)
    start = [
        np.array(c) + (0.0 if grid.boundary[v] else MIN_AMPLITUDE / MIN_N)
        * rng.normal(size=2)
        for v, c in enumerate(grid.coords)
    ]
    perturbed = mesh.MappedGraph(grid, plane, start)
    lbfgs = functools.cache(
        lambda: oracles.min_total_length(grid.edges, start, perturbed.fixed)
    )

    fan = mesh.triangle_fan(3)
    turn = float(rng.uniform(0.0, 2.0 * math.pi))
    fan_images = [0.5 * rng.uniform(-1.0, 1.0, size=2)] + [
        np.array([math.cos(turn + 2.0 * math.pi * i / 3.0),
                  math.sin(turn + 2.0 * math.pi * i / 3.0)])
        for i in range(3)
    ]
    fermat = mesh.MappedGraph(fan, plane, fan_images, fixed={1, 2, 3})

    wavy_mesh = mesh.grid_mesh(3)
    height = float(rng.uniform(0.1, 0.3))
    wavy = mesh.MappedGraph(
        wavy_mesh, spaces.EuclideanSpace(3),
        [np.array([c[0], c[1], height * math.sin(2.0 * c[0]) * c[1]])
         for c in wavy_mesh.coords],
    )

    # A flat square, turned and scaled by the seed.
    scale = float(rng.uniform(0.5, 2.0))
    R = scale * _rotation(float(rng.uniform(0.0, 2.0 * math.pi)))
    square_mesh = mesh.grid_mesh(1)
    square_images = [R @ c for c in square_mesh.coords]
    square = mesh.MappedGraph(square_mesh, plane, square_images)
    square_pairs = [(i, j) for i in range(4) for j in range(i)]

    flat_mesh = mesh.grid_mesh(LIPSCHITZ_N)
    flat = mesh.MappedGraph(flat_mesh, plane, [R @ c for c in flat_mesh.coords])

    def relax_plain():
        res = minimize.relax_graph(perturbed)
        return res, minimize.vertex_angle_sums(res.graph)

    def relax_fermat():
        res = minimize.relax_graph(fermat)
        return res, minimize.vertex_angle_sums(res.graph)

    def relax_dominating():
        res = minimize.relax_graph(
            perturbed, minimize.RelaxConfig(preserve_domination=True),
        )
        return res, minimize.dominates(perturbed, res.graph)

    def square_distances():
        W, pair = polyhedral.build_polyhedral_disc(square, epsilon=1.5 * scale)
        return [
            polyhedral.intrinsic_distance(W, pair.p[i], pair.p[j], refinement=8)
            for i, j in square_pairs
        ]

    def lipschitz():
        W, pair = polyhedral.build_polyhedral_disc(flat, epsilon=2.0 * scale / LIPSCHITZ_N)
        return polyhedral.lipschitz_check(
            pair, W, samples=LIPSCHITZ_SAMPLES, refinement=2, seed=seed,
        )

    return [
        Op("relax", relax_plain, functools.partial(check_relax, lbfgs=lbfgs)),
        Op("fermat-fan", relax_fermat, check_fermat),
        Op("relax-dominating", relax_dominating, check_domination),
        Op("compare-metrics",
           lambda: induced.compare_metrics(wavy, max_pairs=36, seed=seed),
           check_compare),
        Op("polyhedral-square", square_distances,
           functools.partial(check_square, images=square_images, pairs=square_pairs)),
        Op("lipschitz", lipschitz, check_lipschitz),
    ]


WORKLOADS = {
    "cat-model": cat_model,
    "ruled-euclid": ruled_euclid,
    "harmonic-tree": harmonic_tree,
    "minimize-poly": minimize_poly,
}

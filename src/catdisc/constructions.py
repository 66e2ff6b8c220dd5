"""Ruled-disc and discrete-harmonic pipelines producing vertex-mapped grids.

A ruled disc interpolates two boundary curves by geodesics column by column;
a harmonic disc minimizes the discrete quadratic energy of a grid map with a
prescribed boundary trace.  Both feed the induced-metric certifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfConvexityError
from .mesh import DiscMesh, MappedGraph, grid_index, grid_mesh
from .spaces import MetricTree, TargetSpace, TreePoint


@dataclass(frozen=True, eq=False)
class RuledDiscSpec:
    """Two sampled boundary curves plus the grid that rules between them.

    Curves are polylines with chord-length parametrization; for kappa > 0
    the rulings must stay shorter than R_kappa so the connecting geodesics
    are unique.
    """

    eta0: tuple
    eta1: tuple
    grid: tuple
    space: TargetSpace
    # Per curve: its segment lengths and their cumulative sums from 0.
    arclength: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eta0", tuple(self.eta0))
        object.__setattr__(self, "eta1", tuple(self.eta1))
        n_a, n_t = self.grid
        if n_a < 1 or n_t < 1:
            raise ValueError("grid needs at least one cell per side")
        if len(self.eta0) < 1 or len(self.eta1) < 1:
            raise ValueError("each boundary curve needs at least one sample")
        tables = []
        for name, pts in (("eta0", self.eta0), ("eta1", self.eta1)):
            seg = np.array([self.space.distance(p, q) for p, q in zip(pts, pts[1:])])
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            if not math.isfinite(cum[-1]):
                raise ValueError(f"{name} has unbounded sampled length")
            tables.append((seg, cum))
        object.__setattr__(self, "arclength", tuple(tables))
        r = self.space.r_kappa
        if math.isfinite(r):
            for i in range(n_a + 1):
                a = i / n_a
                d = self.space.distance(self.curve_point(0, a), self.curve_point(1, a))
                if d >= r:
                    raise OutOfConvexityError(
                        f"ruling at a={a:.6g} has length {d:.6g} >= R_kappa"
                    )

    def curve_point(self, which: int, a: float):
        """Point at parameter a of eta0/eta1 under chord-length parametrization."""
        pts, (seg, cum) = (
            (self.eta0, self.arclength[0]) if which == 0 else (self.eta1, self.arclength[1])
        )
        if len(pts) == 1:
            return pts[0]
        target = min(max(a, 0.0), 1.0) * cum[-1]
        k = int(np.searchsorted(cum[1:-1], target, side="right"))
        if seg[k] < 1e-15:
            return pts[k]
        return self.space.geodesic(pts[k], pts[k + 1], (target - cum[k]) / seg[k])


def ruled_disc_map(spec: RuledDiscSpec) -> MappedGraph:
    """Grid map (a, t) -> geodesic(eta0(a), eta1(a), t)."""
    n_a, n_t = spec.grid
    mesh = grid_mesh(n_a, n_t)
    images = [None] * mesh.n_vertices
    for i in range(n_a + 1):
        a = i / n_a
        p0, p1 = spec.curve_point(0, a), spec.curve_point(1, a)
        for j in range(n_t + 1):
            t = j / n_t
            if t == 0.0:
                img = p0
            elif t == 1.0:
                img = p1
            else:
                img = spec.space.geodesic(p0, p1, t)
            images[grid_index(n_a, n_t, i, j)] = img
    return MappedGraph(mesh, spec.space, images)


@dataclass(frozen=True)
class QuadrangleReport:
    rho: float
    checked_columns: int
    empirical_l: float

    @property
    def ok(self) -> bool:
        return self.checked_columns > 0 and math.isfinite(self.empirical_l)


def quadrangle_bound_check(spec: RuledDiscSpec, mg: MappedGraph) -> QuadrangleReport:
    """Empirical modulus L of the rulings: over adjacent columns whose
    boundary endpoints are rho-close, the max of
    d(gamma_a(t), gamma_b(t)) / (d(eta0(a),eta0(b)) + d(eta1(a),eta1(b))).

    rho is ten times the largest boundary step between adjacent columns."""
    n_a, n_t = spec.grid
    sp = spec.space
    rho = 10.0 * max(
        sp.distance(spec.curve_point(which, i / n_a), spec.curve_point(which, (i + 1) / n_a))
        for which in (0, 1)
        for i in range(n_a)
    )

    def gap(i, j):
        """Image distance of grid nodes (i, j) and (i + 1, j)."""
        ends = (grid_index(n_a, n_t, i, j), grid_index(n_a, n_t, i + 1, j))
        return sp.distance(*(mg.images[v] for v in ends))

    worst = 0.0
    checked = 0
    for i in range(n_a):
        d0, d1 = gap(i, 0), gap(i, n_t)
        if d0 > rho or d1 > rho or d0 + d1 < 1e-15:
            continue
        checked += 1
        for j in range(n_t + 1):
            worst = max(worst, gap(i, j) / (d0 + d1))
    return QuadrangleReport(rho=float(rho), checked_columns=checked, empirical_l=worst)


@dataclass(frozen=True)
class RuledMinimalityReport:
    max_length_defect: float
    max_proportionality_defect: float
    tol: float = field(default=1e-8, init=False)

    @property
    def ok(self) -> bool:
        return (
            self.max_length_defect <= self.tol
            and self.max_proportionality_defect <= self.tol
        )


def ruled_is_length_minimizing_check(mg: MappedGraph) -> RuledMinimalityReport:
    """Each vertical column polyline must realize the endpoint distance and be
    parametrized proportionally (equal consecutive segment lengths), both to
    the report's `tol`."""
    columns = _grid_columns(mg.mesh)
    sp = mg.space
    length_defect = 0.0
    prop_defect = 0.0
    for col in columns:
        pts = [mg.images[v] for v in col]
        segs = [sp.distance(a, b) for a, b in zip(pts, pts[1:])]
        total = sum(segs)
        length_defect = max(length_defect, abs(total - sp.distance(pts[0], pts[-1])))
        if total > 1e-15:
            prop_defect = max(prop_defect, max(segs) - min(segs))
    return RuledMinimalityReport(
        max_length_defect=float(length_defect),
        max_proportionality_defect=float(prop_defect),
    )


def _grid_columns(mesh: DiscMesh) -> list[list[int]]:
    """Vertex indices grouped by first disc coordinate, sorted by the second."""
    cols: dict[float, list[int]] = {}
    for v, (a, _t) in enumerate(mesh.coords):
        cols.setdefault(round(float(a), 12), []).append(v)
    out = []
    for a in sorted(cols):
        out.append(sorted(cols[a], key=lambda v: mesh.coords[v][1]))
    return out


# Harmonic sweeps stop once no vertex moves by HARMONIC_TOL, or after
# HARMONIC_MAX_SWEEPS sweeps.  The exact minimizer of a tree target is
# converged when one sweep from it moves no vertex by more than
# CERTIFICATE_TOL times the tree's diameter (at least 1): the sweep's
# rounding scales with the distances it sums.
HARMONIC_TOL, HARMONIC_MAX_SWEEPS = 1e-10, 10_000
CERTIFICATE_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class HarmonicSpec:
    """Disc mesh and boundary trace of a harmonic problem with unit edge
    weights.

    The trace must fit in a ball of radius < R_kappa/2 so the minimizer is
    unique; outside that regime the solver refuses.
    """

    mesh: DiscMesh
    trace: dict
    space: TargetSpace

    def __post_init__(self):
        bnd = set(np.flatnonzero(self.mesh.boundary).tolist())
        if set(self.trace) != bnd:
            raise ValueError("trace must assign exactly the boundary vertices")
        self.space._check_barycenter_spread([self.trace[v] for v in sorted(bnd)])


def discrete_energy(mg: MappedGraph) -> float:
    """Dirichlet energy with unit weights: sum of d(f u, f v)^2 over edges."""
    d = mg.edge_lengths()
    return float((d * d).sum())


@dataclass(frozen=True)
class HarmonicResult:
    graph: MappedGraph
    converged: bool
    # Rows (row number, energy, largest move).
    trace: tuple

    # The number of trace rows: sweeps, or on tree targets linear solves and
    # the certificate sweep (see `harmonic_relax`).
    @property
    def sweeps(self) -> int:
        return len(self.trace)

    @property
    def energy(self) -> float:
        return self.trace[-1][1] if self.trace else 0.0

    def trace_csv(self) -> str:
        lines = ["sweep,energy,max_move"]
        for s, e, mv in self.trace:
            lines.append(f"{s},{e:.12g},{mv:.12g}")
        return "\n".join(lines) + "\n"


def harmonic_relax(spec: HarmonicSpec) -> HarmonicResult:
    """Minimize the discrete energy with boundary images fixed to the trace.

    Interior images start at the trace barycenter.  A sweep visits interior
    vertices in ascending index order and moves each to the unit-weight
    barycenter of its neighbors' images, which minimizes the local quadratic
    energy.  Trace rows are (row number, energy, largest move).

    On `MetricTree` targets `MetricTree.pair_energy_minimum` finds the
    minimizer exactly from the seed, one row per linear solve (its move is
    the largest offset change), and one sweep from its result is the last
    row: the certificate.  `sweeps` counts the solves plus that sweep, and
    `converged` means the certificate moved no vertex by more than
    CERTIFICATE_TOL times max(1, the tree's diameter).

    On every other target sweeps repeat, one row each, until none moves a
    vertex by HARMONIC_TOL or HARMONIC_MAX_SWEEPS have run.  The energy is
    then non-increasing sweep to sweep up to rounding: once moves are near
    HARMONIC_TOL it can rise by an ulp.
    """
    mesh, sp = spec.mesh, spec.space
    images: list = [None] * mesh.n_vertices
    for v, p in spec.trace.items():
        images[v] = p
    interior = mesh.interior_vertices()
    # Seed interior images at the trace barycenter so every point starts
    # inside the uniqueness ball.
    if interior:
        seed = sp.barycenter([spec.trace[v] for v in sorted(spec.trace)])
        for v in interior:
            images[v] = seed
    # Ascending neighbors, which fixes the barycenter's sum order.
    nbrs = {v: mesh.neighbors(v) for v in interior}
    trace = []

    def sweep():
        max_move = 0.0
        for v in interior:
            new = sp.barycenter([images[u] for u in nbrs[v]], [1.0] * len(nbrs[v]))
            max_move = max(max_move, sp.distance(images[v], new))
            images[v] = new
        energy = discrete_energy(MappedGraph(mesh, sp, images))
        trace.append((len(trace) + 1, energy, max_move))
        return max_move

    if isinstance(sp, MetricTree):
        X = sp.as_array(images)
        for energy, move in sp.pair_energy_minimum(mesh.edges, X, ~mesh.boundary):
            trace.append((len(trace) + 1, energy, move))
        for v in interior:
            u, w, _ = sp.edges[int(X[v, 0])]
            images[v] = TreePoint(u, w, float(X[v, 1]))
        converged = sweep() <= CERTIFICATE_TOL * max(1.0, sp.diameter)
    else:
        converged = any(sweep() < HARMONIC_TOL for _ in range(HARMONIC_MAX_SWEEPS))
    return HarmonicResult(MappedGraph(mesh, sp, images), converged, tuple(trace))


"""Constructive surrogate for length-minimizing graph maps.

Interior vertices are moved to geodesic Fermat points of their neighbors'
images by deterministic coordinate-descent sweeps; in Euclidean targets a
global Newton solve of the total length (`EuclideanSpace.length_minimum`)
runs first, so the sweeps certify its result.  The necessary conditions of
minimality (geodesic edges, interior angle sums >= 2*pi) are verified
separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FixedSetMismatchError, GraphMismatchError, OutOfConvexityError
from .induced import induced_length_metric
from .mesh import MappedGraph
from .model import SIDE_FLOOR, Kappa, angle_from_sides
from .spaces import EuclideanSpace


# Relaxation stops once no vertex moves by TOL_MOVE.
TOL_MOVE = 1e-10
# Induced distances within this of each other count as equal (`dominates`),
# and so do image points (`non_bubbling`).
MATCH_TOL = 1e-9


@dataclass(frozen=True)
class RelaxConfig:
    max_iters: int = 10_000
    # When set, a vertex move is clipped along the geodesic toward the Fermat
    # point so that no incident edge gets longer; then every shortest path, and
    # hence the whole induced length metric, is non-increasing and the input
    # map dominates the relaxed one by construction.
    preserve_domination: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class RelaxResult:
    graph: MappedGraph
    converged: bool
    # Rows (row number, total edge length, max vertex move): the Newton
    # steps of a Euclidean target, if any, then one row per sweep.
    trace: tuple

    # Trace rows: Newton steps plus sweeps.
    @property
    def sweeps(self) -> int:
        return len(self.trace)

    def trace_csv(self) -> str:
        lines = ["sweep,total_length,max_move"]
        for s, tl, mv in self.trace:
            lines.append(f"{s},{tl:.12g},{mv:.12g}")
        return "\n".join(lines) + "\n"


def relax_graph(mg: MappedGraph, cfg: RelaxConfig = RelaxConfig()) -> RelaxResult:
    """Coordinate-descent relaxation toward a total-edge-length minimizer.

    Fixed-set images are preserved bitwise; each sweep visits interior
    vertices in ascending index order and moves each to the Fermat point of
    its neighbors' current images, until no vertex moves by TOL_MOVE or
    after `cfg.max_iters` sweeps.  `converged` means the last sweep moved no
    vertex by TOL_MOVE.

    On `EuclideanSpace` targets without `cfg.preserve_domination`,
    `EuclideanSpace.length_minimum` first minimizes the total length by
    Newton steps, one trace row each, and the sweeps start from its result:
    one sweep certifies a smooth minimizer, and where the solve gave up
    (collapsed edges, a singular Hessian) the sweeps go on as before.
    """
    space = mg.space
    fixed_imgs = [mg.images[v] for v in sorted(mg.fixed)]
    if space.r_kappa < math.inf and space.spread(fixed_imgs) >= space.r_kappa:
        raise OutOfConvexityError("fixed-set images spread over a distance >= R_kappa")
    images = list(mg.images)
    free = [v for v in range(mg.mesh.n_vertices) if v not in mg.fixed]
    neighbor_lists = {v: mg.mesh.neighbors(v) for v in free}
    trace = []
    if isinstance(space, EuclideanSpace) and not cfg.preserve_domination:
        X = np.array([space._coerce(p) for p in images])
        movable = np.zeros(len(images), dtype=bool)
        movable[free] = True
        for total, move in space.length_minimum(mg.mesh.edges, X, movable):
            trace.append((len(trace) + 1, total, move))
        if trace:
            for v in free:
                images[v] = X[v]
    converged = False
    for _ in range(cfg.max_iters):
        max_move = 0.0
        for v in free:
            nbr_imgs = [images[u] for u in neighbor_lists[v]]
            new = space.fermat_point(nbr_imgs)
            if cfg.preserve_domination:
                new = _clip_to_nonexpanding(space, images[v], new, nbr_imgs)
            max_move = max(max_move, space.distance(images[v], new))
            images[v] = new
        total = sum(
            space.distance(images[u], images[v]) for u, v in mg.mesh.edges
        )
        trace.append((len(trace) + 1, total, max_move))
        if max_move < TOL_MOVE:
            converged = True
            break
    return RelaxResult(mg.with_images(images), converged, tuple(trace))


def _clip_to_nonexpanding(space, current, target, nbr_imgs):
    """Largest geodesic step from `current` toward `target` that lengthens no
    incident edge (within 1e-14 slack)."""
    if space.distance(current, target) < 1e-15:
        return current
    limits = [space.distance(current, q) + 1e-14 for q in nbr_imgs]

    def feasible(t):
        pt = space.geodesic(current, target, t)
        return all(
            space.distance(pt, q) <= lim for q, lim in zip(nbr_imgs, limits)
        )

    if feasible(1.0):
        return target
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return space.geodesic(current, target, lo) if lo > 0.0 else current


@dataclass(frozen=True)
class VertexAngles:
    vertex: int
    angles: tuple
    total: float
    defect: float
    flagged: bool


@dataclass(frozen=True)
class AngleReport:
    probe_scale: float
    entries: tuple

    @property
    def min_total(self) -> float:
        return min((e.total for e in self.entries if not e.flagged), default=math.inf)

    @property
    def max_defect(self) -> float:
        return max((e.defect for e in self.entries if not e.flagged), default=0.0)


def _comparison_angle(space, kappa: Kappa, p, q1, q2, scale: float) -> float:
    """Comparison angle at p between geodesics to q1, q2, probed at `scale`."""
    d1, d2 = space.distance(p, q1), space.distance(p, q2)
    s = min(scale, d1, d2)
    x1 = space.geodesic(p, q1, s / d1)
    x2 = space.geodesic(p, q2, s / d2)
    a = space.distance(x1, x2)
    b = space.distance(p, x1)
    c = space.distance(p, x2)
    if b < 1e-14 or c < 1e-14:
        return 0.0
    return angle_from_sides(kappa, b, c, a)


def vertex_angle_sums(mg: MappedGraph) -> AngleReport:
    """Cyclic sums of Alexandrov comparison angles at interior vertices.

    Incident edges are taken in the cyclic order induced by the disc
    coordinates; each consecutive angle is the comparison angle in M_kappa of
    the triangle spanned at the probe scale, 1e-3 times the mean positive
    edge length, with kappa the target's claimed curvature bound.  A vertex
    with fewer than two neighbors, or with an incident edge shorter than
    `model.SIDE_FLOOR`, where its angles are undefined, is flagged instead.
    """
    kappa = Kappa(
        mg.space.curvature_bound if math.isfinite(mg.space.curvature_bound) else 0.0
    )
    lengths = mg.edge_lengths()
    pos = lengths[lengths > 1e-14]
    probe_scale = 1e-3 * float(pos.mean()) if pos.size else 1e-3
    entries = []
    for v in mg.mesh.interior_vertices():
        nbrs = mg.mesh.cyclic_neighbors(v)
        p = mg.images[v]
        flagged = any(mg.edge_length(v, u) < SIDE_FLOOR for u in nbrs) or len(nbrs) < 2
        angles = []
        if not flagged:
            for i in range(len(nbrs)):
                q1 = mg.images[nbrs[i]]
                q2 = mg.images[nbrs[(i + 1) % len(nbrs)]]
                angles.append(_comparison_angle(mg.space, kappa, p, q1, q2, probe_scale))
        total = float(sum(angles))
        entries.append(
            VertexAngles(
                vertex=v,
                angles=tuple(angles),
                total=total,
                defect=max(0.0, 2.0 * math.pi - total),
                flagged=flagged,
            )
        )
    return AngleReport(probe_scale=probe_scale, entries=tuple(entries))


@dataclass(frozen=True)
class DominanceReport:
    holds: bool
    strict: bool
    max_shortfall: float
    max_excess: float


def dominates(mg_f: MappedGraph, mg_g: MappedGraph) -> DominanceReport:
    """Check f |> g rel Z: the induced length metric of f dominates that of g,
    up to MATCH_TOL."""
    if mg_f.mesh is not mg_g.mesh and (
        mg_f.mesh.n_vertices != mg_g.mesh.n_vertices
        or not np.array_equal(mg_f.mesh.edges, mg_g.mesh.edges)
    ):
        raise GraphMismatchError("maps live on different graphs")
    if mg_f.fixed != mg_g.fixed:
        raise FixedSetMismatchError("fixed sets differ")
    for v in mg_f.fixed:
        if mg_f.space.distance(mg_f.images[v], mg_g.images[v]) > 1e-12:
            raise FixedSetMismatchError(f"images differ on fixed vertex {v}")
    qf = induced_length_metric(mg_f)
    qg = induced_length_metric(mg_g)
    n = mg_f.mesh.n_vertices
    shortfall = 0.0
    excess = 0.0
    for i in range(n):
        for j in range(i):
            df, dg = qf.distance(i, j), qg.distance(i, j)
            shortfall = max(shortfall, dg - df)
            excess = max(excess, df - dg)
    return DominanceReport(
        holds=shortfall <= MATCH_TOL,
        strict=excess > MATCH_TOL,
        max_shortfall=float(shortfall),
        max_excess=float(excess),
    )


@dataclass(frozen=True)
class NonBubblingReport:
    ok: bool
    checked_points: int
    offending: tuple


def non_bubbling(mg: MappedGraph) -> NonBubblingReport:
    """For any image point hit by >= 3 vertices, every component of the
    complement subgraph must touch the fixed set."""
    n = mg.mesh.n_vertices
    # Cluster vertices whose images coincide within MATCH_TOL.
    cluster = [-1] * n
    centers = []
    for v in range(n):
        for ci, c in enumerate(centers):
            if mg.space.distance(mg.images[v], mg.images[c]) <= MATCH_TOL:
                cluster[v] = ci
                break
        else:
            cluster[v] = len(centers)
            centers.append(v)
    offending = []
    checked = 0
    for ci in range(len(centers)):
        members = [v for v in range(n) if cluster[v] == ci]
        if len(members) < 3:
            continue
        checked += 1
        outside = set(v for v in range(n) if cluster[v] != ci)
        while outside:
            start = next(iter(outside))
            comp, stack = {start}, [start]
            while stack:
                u = stack.pop()
                for w in mg.mesh.neighbors(u):
                    if w in outside and w not in comp:
                        comp.add(w)
                        stack.append(w)
            if not comp & set(mg.fixed):
                offending.append((centers[ci], tuple(sorted(comp))))
            outside -= comp
    return NonBubblingReport(
        ok=not offending, checked_points=checked, offending=tuple(offending)
    )

"""Constructive surrogate for length-minimizing graph maps.

Interior vertices are moved to geodesic Fermat points of their neighbors'
images by deterministic coordinate-descent sweeps; the necessary conditions
of minimality (geodesic edges, interior angle sums >= 2*pi) are verified
separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FixedSetMismatchError, GraphMismatchError, OutOfConvexityError
from .induced import induced_length_metric
from .mesh import MappedGraph
from .model import Kappa, angle_from_sides


@dataclass(frozen=True)
class RelaxConfig:
    tol_move: float = 1e-10
    max_iters: int = 10_000
    # When set, a vertex move is clipped along the geodesic toward the Fermat
    # point so that no incident edge gets longer; then every shortest path, and
    # hence the whole induced length metric, is non-increasing and the input
    # map dominates the relaxed one by construction.
    preserve_domination: bool = False

    def __post_init__(self):
        if self.tol_move <= 0 or self.max_iters < 1:
            raise ValueError("tol_move must be positive, max_iters >= 1")


@dataclass(frozen=True)
class RelaxResult:
    graph: MappedGraph
    converged: bool
    sweeps: int
    # Rows (sweep index, total edge length, max vertex move).
    trace: tuple

    def trace_csv(self) -> str:
        lines = ["sweep,total_length,max_move"]
        for s, tl, mv in self.trace:
            lines.append(f"{s},{tl:.12g},{mv:.12g}")
        return "\n".join(lines) + "\n"


def relax_graph(mg: MappedGraph, cfg: RelaxConfig = RelaxConfig()) -> RelaxResult:
    """Coordinate-descent relaxation toward a total-edge-length minimizer.

    Fixed-set images are preserved bitwise; each sweep visits interior
    vertices in ascending index order and moves each to the Fermat point of
    its neighbors' current images.
    """
    space = mg.space
    fixed_imgs = [mg.images[v] for v in sorted(mg.fixed)]
    if len(fixed_imgs) > 1 and space.spread(fixed_imgs) >= space.r_kappa:
        raise OutOfConvexityError(
            "fixed-set images do not fit in a ball of radius < R_kappa/2"
        )
    images = list(mg.images)
    free = [v for v in range(mg.mesh.n_vertices) if v not in mg.fixed]
    neighbor_lists = {v: mg.mesh.neighbors(v) for v in free}
    trace = []
    converged = False
    sweeps = 0
    for sweep in range(cfg.max_iters):
        max_move = 0.0
        for v in free:
            nbr_imgs = [images[u] for u in neighbor_lists[v]]
            new = space.fermat_point(nbr_imgs)
            if cfg.preserve_domination:
                new = _clip_to_nonexpanding(space, images[v], new, nbr_imgs)
            max_move = max(max_move, space.distance(images[v], new))
            images[v] = new
        sweeps = sweep + 1
        total = sum(
            space.distance(images[u], images[v]) for u, v in mg.mesh.edges
        )
        trace.append((sweeps, total, max_move))
        if max_move < cfg.tol_move:
            converged = True
            break
    return RelaxResult(mg.with_images(images), converged, sweeps, tuple(trace))


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


def edge_geodesic_defect(
    mg: MappedGraph, samples: int = 16, polylines: dict | None = None
) -> float:
    """Max over edges of |sampled image polyline length - endpoint distance|.

    By default each edge carries geodesic samples; explicit `polylines`
    (edge tuple -> point list) override that, e.g. for negative controls.
    """
    worst = 0.0
    for u, v in mg.mesh.edges:
        key = (int(u), int(v))
        if polylines and key in polylines:
            pts = polylines[key]
        else:
            pts = [
                mg.space.geodesic(mg.images[u], mg.images[v], i / samples)
                for i in range(samples + 1)
            ]
        d = mg.edge_length(u, v)
        if d < 1e-15 and len(pts) == 2:
            continue
        worst = max(worst, abs(mg.space.curve_length(pts) - d))
    return worst


@dataclass(frozen=True)
class VertexAngles:
    vertex: int
    angles: tuple
    angles_half_scale: tuple
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


def vertex_angle_sums(mg: MappedGraph, probe_scale: float | None = None) -> AngleReport:
    """Cyclic sums of Alexandrov comparison angles at interior vertices.

    Incident edges are taken in the cyclic order induced by the disc
    coordinates; each consecutive angle is the comparison angle in M_kappa of
    the triangle spanned at probe scale, with kappa the target's claimed
    curvature bound.
    """
    kappa = Kappa(
        mg.space.curvature_bound if math.isfinite(mg.space.curvature_bound) else 0.0
    )
    if probe_scale is None:
        lengths = mg.edge_lengths()
        pos = lengths[lengths > 1e-14]
        probe_scale = 1e-3 * float(pos.mean()) if pos.size else 1e-3
    entries = []
    for v in mg.mesh.interior_vertices():
        nbrs = mg.mesh.cyclic_neighbors(v)
        p = mg.images[v]
        flagged = any(mg.edge_length(v, u) < 1e-14 for u in nbrs) or len(nbrs) < 2
        angles, angles_half = [], []
        if not flagged:
            for i in range(len(nbrs)):
                q1 = mg.images[nbrs[i]]
                q2 = mg.images[nbrs[(i + 1) % len(nbrs)]]
                angles.append(_comparison_angle(mg.space, kappa, p, q1, q2, probe_scale))
                angles_half.append(
                    _comparison_angle(mg.space, kappa, p, q1, q2, probe_scale / 2.0)
                )
        total = float(sum(angles))
        entries.append(
            VertexAngles(
                vertex=v,
                angles=tuple(angles),
                angles_half_scale=tuple(angles_half),
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


def dominates(mg_f: MappedGraph, mg_g: MappedGraph, tol: float = 1e-9) -> DominanceReport:
    """Check f |> g rel Z: the induced length metric of f dominates that of g."""
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
        holds=shortfall <= tol,
        strict=excess > tol,
        max_shortfall=float(shortfall),
        max_excess=float(excess),
    )


@dataclass(frozen=True)
class NonBubblingReport:
    ok: bool
    checked_points: int
    offending: tuple


def non_bubbling(mg: MappedGraph, tol: float = 1e-9) -> NonBubblingReport:
    """For any image point hit by >= 3 vertices, every component of the
    complement subgraph must touch the fixed set."""
    n = mg.mesh.n_vertices
    # Cluster vertices whose images coincide within tol.
    cluster = [-1] * n
    centers = []
    for v in range(n):
        for ci, c in enumerate(centers):
            if mg.space.distance(mg.images[v], mg.images[c]) <= tol:
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

"""Sampled CAT(kappa) certification via comparison-triangle thinness.

A space oracle exposes `distance` and `geodesic`; for each sampled triple a
comparison triangle is built in the model surface and the distance between
points on two sides is compared against the model distance. Positive defects
witness violations of the curvature bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import GeometryError, NonUniqueGeodesicError, TooLargeTriangleError
from .mesh import MappedGraph
from .model import Kappa, build_comparison_triangle
from .spaces import MetricTree
from .steiner import (
    CHORD_BLOCK,
    SteinerGraph,
    _batch_distance,
    _batch_geodesic,
    append_nodes,
)


# Triples with a side below this are rejected as degenerate.
MIN_SIDE = 1e-6

# Equal steps per straight disc segment when the induced oracle weighs it.
CHORD_SAMPLES = 4
# Curve relaxation: at most RELAX_LEVELS probe-step levels of RELAX_PASSES
# red-black passes each, the step shrinking by RELAX_SHRINK per level; each
# point probes the RELAX_OFFSETS multiples of the step across its chord.
RELAX_LEVELS, RELAX_PASSES, RELAX_SHRINK = 10, 2, 0.5
RELAX_OFFSETS = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])


@dataclass(frozen=True)
class ThinnessSample:
    """One two-points-on-two-sides thinness measurement.

    `s` and `t` are the realized side fractions (arc position / side length)
    of the probed points on sides pq and pr; `sides` is (d(q,r), d(p,r),
    d(p,q)). The comparison distance can be recomputed against any kappa from
    these numbers alone.
    """

    s: float
    t: float
    sides: tuple
    measured: float
    compared: float
    defect: float


def _compared_distances(kappa: Kappa, sides, S, T) -> np.ndarray:
    """Model distances between the points at fractions S[i] on side AB and
    T[i] on side AC of the comparison triangle with side lengths
    `sides` = (a, b, c); S and T are row-aligned."""
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    for F in (S, T):
        outside = ~((F >= -1e-12) & (F <= 1.0 + 1e-12))
        if outside.any():
            raise ValueError(f"fraction {F[outside][0]} outside [0, 1]")
    tri = build_comparison_triangle(kappa, *sides)
    k = kappa.value
    if k > 0 and max(tri.sides[1:]) > kappa.r_kappa - 1e-9:
        raise NonUniqueGeodesicError("comparison side joins antipodal points")
    A, B, C = (np.broadcast_to(v.coords, (len(S), 3)) for v in tri.vertices)
    X = _batch_geodesic(k, A, B, np.clip(S, 0.0, 1.0))
    Y = _batch_geodesic(k, A, C, np.clip(T, 0.0, 1.0))
    return _batch_distance(k, X, Y)


def recompare(samples, kappa: Kappa):
    """Re-evaluate stored thinness samples against a different kappa."""
    samples = list(samples)
    groups: dict[tuple, list[int]] = {}
    for i, smp in enumerate(samples):
        groups.setdefault(smp.sides, []).append(i)
    out = [None] * len(samples)
    for sides, idx in groups.items():
        compared = _compared_distances(
            kappa, sides, [samples[i].s for i in idx], [samples[i].t for i in idx]
        )
        for i, c in zip(idx, compared.tolist()):
            out[i] = replace(samples[i], compared=c, defect=samples[i].measured - c)
    return out


def _distance_blocks(space, blocks):
    """Distance matrices of (sources, targets) blocks: in one batch where
    the space has `distance_blocks`, else one `distance` call per pair."""
    if hasattr(space, "distance_blocks"):
        return space.distance_blocks(blocks)
    return [[[space.distance(s, t) for t in targets] for s in sources]
            for sources, targets in blocks]


def thinness_defect(space, kappa: Kappa, triple, grid: int = 16):
    """Thinness samples of one triple on a grid x grid parameter lattice.

    Returns None (a skipped-triple marker) when the triple is degenerate or,
    for kappa > 0, when its perimeter reaches 2 R_kappa.
    """
    p, q, r = triple
    (dpq, dpr), (dqr,) = (rows[0] for rows in _distance_blocks(
        space, [([p], [q, r]), ([q], [r])]
    ))
    sides = (float(dqr), float(dpr), float(dpq))
    _require_finite(sides, "side", sides)
    if min(sides) < MIN_SIDE:
        return None
    # The three sides are independent upper bounds, so discretization error
    # can break the triangle inequality by a sliver.  Clamping the long side
    # down makes the comparison triangle thinner and defects larger, so the
    # check only gets stricter.
    excess = max(2.0 * max(sides) - sum(sides), 0.0)
    if excess > 0.0:
        if excess > 1e-3 * sum(sides):
            return None
        longest = max(range(3), key=lambda i: sides[i])
        clamped = list(sides)
        clamped[longest] = sum(sides) - max(sides)
        sides = tuple(clamped)
        dqr, dpr, dpq = sides
    if kappa.value > 0 and sum(sides) >= 2.0 * kappa.r_kappa - 1e-9:
        return None
    try:
        xs = [space.geodesic(p, q, (i + 1) / (grid + 1)) for i in range(grid)]
        ys = [space.geodesic(p, r, (j + 1) / (grid + 1)) for j in range(grid)]
    except NonUniqueGeodesicError:
        return None
    arc_a, arc_b, measured = (
        np.asarray(rows, dtype=float).ravel()
        for rows in _distance_blocks(space, [([p], xs), ([p], ys), (xs, ys)])
    )
    _require_finite(np.concatenate([arc_a, arc_b, measured]), "measured", sides)
    S = np.repeat(np.minimum(arc_a / dpq, 1.0), grid)
    T = np.tile(np.minimum(arc_b / dpr, 1.0), grid)
    compared = _compared_distances(kappa, sides, S, T)
    _require_finite(compared, "compared", sides)
    return [
        ThinnessSample(s=s, t=t, sides=sides, measured=m, compared=c, defect=m - c)
        for s, t, m, c in zip(S.tolist(), T.tolist(), measured.tolist(),
                              compared.tolist())
    ]


def _require_finite(values, what: str, sides):
    if not np.isfinite(values).all():
        raise GeometryError(
            f"non-finite {what} distance in the triple with sides {sides}"
        )


@dataclass(frozen=True)
class CertReport:
    """Aggregated thinness certification verdict for one space oracle.

    `verdict` is "pass" or "fail" against `tolerance`, or "inconclusive"
    when no triple was evaluated; only "pass" counts as passed.
    """

    kappa: float
    n_triples: int
    n_skipped: int
    n_samples: int
    max_defect: float
    mean_positive_defect: float
    tolerance: float
    verdict: str
    provenance: str
    seed: int
    refinement: int | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> str:
        payload = {
            "kappa": self.kappa,
            "n_triples": self.n_triples,
            "n_skipped": self.n_skipped,
            "n_samples": self.n_samples,
            "max_defect": self.max_defect,
            "mean_positive_defect": self.mean_positive_defect,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "provenance": self.provenance,
            "seed": self.seed,
            "refinement": self.refinement,
        }
        return json.dumps(payload, sort_keys=True)


def samples_csv(samples) -> str:
    lines = ["s,t,side_a,side_b,side_c,measured,compared,defect"]
    for smp in samples:
        a, b, c = smp.sides
        lines.append(
            f"{smp.s:.12g},{smp.t:.12g},{a:.12g},{b:.12g},{c:.12g},"
            f"{smp.measured:.12g},{smp.compared:.12g},{smp.defect:.12g}"
        )
    return "\n".join(lines) + "\n"


def _aggregate(
    kappa, all_samples, n_triples, n_skipped, tolerance, provenance, seed,
    refinement=None,
):
    defects = [smp.defect for smp in all_samples]
    positive = [d for d in defects if d > 0.0]
    max_defect = max(defects, default=0.0)
    # With every triple skipped there is no evidence either way.
    if n_triples == 0:
        verdict = "inconclusive"
    else:
        verdict = "pass" if max_defect <= tolerance else "fail"
    return CertReport(
        kappa=float(kappa.value),
        n_triples=n_triples,
        n_skipped=n_skipped,
        n_samples=len(all_samples),
        max_defect=float(max_defect),
        mean_positive_defect=float(np.mean(positive)) if positive else 0.0,
        tolerance=float(tolerance),
        verdict=verdict,
        provenance=provenance,
        seed=int(seed),
        refinement=refinement,
    )


def certify_cat(
    space,
    kappa: Kappa,
    triple_budget: int = 200,
    grid: int = 16,
    tolerance: float = 1e-6,
    seed: int = 0,
    collect_samples: bool = False,
):
    """Certify the thinness condition on seeded random triples of the space.

    Triples violating the kappa > 0 perimeter bound or degenerate ones are
    skipped (and counted), mirroring the restriction of the comparison
    criterion to small triangles.
    """
    rng = np.random.default_rng(seed)
    all_samples = []
    used = skipped = 0
    attempts = 0
    while used + skipped < triple_budget and attempts < 20 * triple_budget:
        attempts += 1
        triple = (
            space.random_point(rng),
            space.random_point(rng),
            space.random_point(rng),
        )
        samples = thinness_defect(space, kappa, triple, grid)
        if samples is None:
            skipped += 1
            continue
        used += 1
        all_samples.extend(samples)
    report = _aggregate(
        kappa, all_samples, used, skipped, tolerance,
        provenance=f"backend:{type(space).__name__}", seed=seed,
    )
    return (report, all_samples) if collect_samples else report


class InducedGraphSpace:
    """Geodesic oracle for the induced length metric of a mapped disc graph.

    Distances are shortest paths on the Steiner graph of the mesh
    (`steiner.SteinerGraph`) with `steiner` subdivision points per mesh edge,
    plus exact breakpoints on tree targets: subsegments along mesh edges are
    weighted by image geodesic chords, and chords between boundary nodes of
    one triangle, or of two triangles sharing an edge, by the image polyline
    length of the interpolated map along the straight disc segment.
    Geodesics are realized as shortest-path polylines; `geodesic(p, q, t)`
    returns the node nearest to arclength t along it.

    The interpolant fills each triangle from its corner images: the one of
    `steiner` on Euclidean, M_kappa and cone targets, and on tree targets the
    weighted Frechet mean, unique in CAT(0) spaces (Sturm 2003), in closed
    form on the tripod the corners span (`MetricTree.triangle_means`); it
    does not backtrack around branch points, which would inflate sampled
    lengths.  Both, and their distances, run on the backend's array
    interface (`spaces`); cones go point by point.
    """

    def __init__(self, mg: MappedGraph, steiner: int = 6):
        self.mg = mg
        self.space = mg.space
        self.steiner = int(steiner)
        self._cache: dict = {}
        self._cache_order: list = []
        self._curves: dict = {}
        self._curve_order: list = []
        self._aug = None
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self):
        mg = self.mg
        mesh = mg.mesh
        self._build_tri_geometry(mesh)
        images, space = mg.images, self.space
        node_images = list(images)
        node_xy = [np.asarray(c[:2], dtype=float) for c in mesh.coords]
        fracs, steps = [], []
        for u, v in mesh.edges:
            fr = [(i + 1) / (self.steiner + 1) for i in range(self.steiner)]
            if isinstance(space, MetricTree):
                # Place nodes exactly where the image geodesic crosses tree
                # vertices: paths hugging a branch-point fiber then hop along
                # exact branch-point nodes instead of paying a detour per
                # edge crossing.
                fr.extend(space.geodesic_breakpoints(images[u], images[v]))
            kept = []
            for f in sorted(f for f in fr if 1e-9 < f < 1.0 - 1e-9):
                if not kept or f - kept[-1] > 1e-9:
                    kept.append(f)
            chain = [images[u]] + [space.geodesic(images[u], images[v], f) for f in kept]
            chain.append(images[v])
            node_images.extend(chain[1:-1])
            node_xy.extend((1.0 - f) * node_xy[u] + f * node_xy[v] for f in kept)
            fracs.append(kept)
            steps.append([space.distance(a, b) for a, b in zip(chain, chain[1:])])
        self._core = SteinerGraph(mesh.n_vertices, mesh.edges, fracs, self._tris)
        self.node_images = node_images
        self.node_xy = np.array(node_xy)
        self.n_vertices = mesh.n_vertices
        self.n_nodes = self._core.n_nodes
        disc_l = [
            float(np.linalg.norm(self.node_xy[int(a)] - self.node_xy[int(b)]))
            for a, b in mesh.edges
        ]
        self._disc_h = max(disc_l) if disc_l else 1.0
        self._temp: list = []
        self.graph = self._core.csr(steps, self._chord_weights, self._quad_chords())

    def _build_tri_geometry(self, mesh):
        """Per-triangle caches: barycentric solvers, the backend's triangle
        tables and the point locator."""
        self._tris = [tuple(int(x) for x in t) for t in mesh.triangles]
        inv_stack, p0_stack = [], []
        for tri in self._tris:
            c0, c1, c2 = (np.asarray(mesh.coords[v][:2], dtype=float) for v in tri)
            inv_stack.append(np.linalg.inv(np.column_stack([c1 - c0, c2 - c0])))
            p0_stack.append(c0)
        self._inv_stack = np.array(inv_stack)
        self._p0_stack = np.array(p0_stack)
        self._tables = self.space.triangle_tables(
            [[self.mg.images[v] for v in tri] for tri in self._tris]
        )
        self._build_tri_buckets(mesh)

    def _images_at(self, tri_idx, bary):
        """Interpolant images, as the backend's array points, of disc points
        given by triangle and barycentrics."""
        return self.space.triangle_means(self._tables, tri_idx, bary)

    def _chain_lengths(self, tri_idx, bary, chains):
        """Image polyline lengths through disc points given by triangle and
        barycentrics; row c of `chains` indexes the CHORD_SAMPLES + 1 points
        of polyline c."""
        pts = self._images_at(tri_idx, bary)
        d = self.space.distance_arrays(pts[chains[:, :-1].ravel()], pts[chains[:, 1:].ravel()])
        return d.reshape(len(chains), CHORD_SAMPLES).sum(axis=1)

    def _located_lengths(self, tri_idx, bary, chains):
        """`_chain_lengths` of located points, their barycentrics clipped to
        the triangle."""
        bary = np.clip(bary, 0.0, None)
        bary /= bary.sum(axis=1, keepdims=True)
        return self._chain_lengths(tri_idx, bary, chains)

    def _chord_weights(self, tri_idx, S, E):
        """Image polyline lengths of straight segments between barycentric
        rows S and E of the triangles `tri_idx`."""
        lam = np.linspace(0.0, 1.0, CHORD_SAMPLES + 1)
        B = (1.0 - lam)[None, :, None] * S[:, None, :] + lam[None, :, None] * E[:, None, :]
        return self._chain_lengths(
            np.repeat(tri_idx, CHORD_SAMPLES + 1), B.reshape(-1, 3), _runs(len(S))
        )

    def _quad_chords(self):
        """Chords spanning pairs of triangles that share an edge, as (rows,
        cols, weights), or None on a mesh without interior edges.

        The straight disc segment between boundary nodes of the two triangles
        crosses the shared edge continuously, so these chords avoid the
        Steiner snap error at every other triangle crossing.
        """
        mesh = self.mg.mesh
        coords = mesh.coords
        lam = np.linspace(0.0, 1.0, CHORD_SAMPLES + 1)
        # off_edge[t][k]: the boundary nodes of triangle t off its side k,
        # with their xy.
        off_edge = []
        for ti, tri in enumerate(self._tris):
            nodes, B, sides = self._core.boundary(ti)
            p0, p1, p2 = (np.asarray(coords[v], dtype=float) for v in tri)
            xy = B[:, 0:1] * p0 + B[:, 1:2] * p1 + B[:, 2:3] * p2
            keep = [(sides & (1 << k)) == 0 for k in range(3)]
            off_edge.append([(nodes[m], xy[m]) for m in keep])

        interior = np.flatnonzero(mesh.edge_tris[:, 1] >= 0)
        owners = mesh.edge_tris[interior]
        # The side of each owner that is the shared edge.
        side = np.argmax(mesh.tri_edges[owners] == interior[:, None, None], axis=2)
        rows, cols, tri_idx, barys = [], [], [], []
        for e, (ta, tb), (ka, kb) in zip(interior, owners.tolist(), side.tolist()):
            nodes_a, XA = off_edge[ta][ka]
            nodes_b, XB = off_edge[tb][kb]
            if not len(nodes_a) or not len(nodes_b):
                continue
            # All chord sample points, chord by chord.
            flat = (
                (1.0 - lam)[None, None, :, None] * XA[:, None, None, :]
                + lam[None, None, :, None] * XB[None, :, None, :]
            ).reshape(-1, 2)
            # Orientation test against the shared edge line decides which
            # triangle's chart maps each sample point.
            pu, pv = (np.asarray(coords[v], dtype=float) for v in mesh.edges[e])
            edge_dir = pv - pu
            rel = np.mean(XA, axis=0) - pu
            sign_a = edge_dir[0] * rel[1] - edge_dir[1] * rel[0]
            rel = flat - pu
            use_a = (edge_dir[0] * rel[:, 1] - edge_dir[1] * rel[:, 0]) * sign_a >= 0
            bary = np.empty((len(flat), 3))
            for ti, mask in ((ta, use_a), (tb, ~use_a)):
                st = (flat[mask] - self._p0_stack[ti]) @ self._inv_stack[ti].T
                bary[mask] = np.column_stack([1.0 - st[:, 0] - st[:, 1], st])
            tri_idx.append(np.where(use_a, ta, tb))
            barys.append(bary)
            rows.append(np.repeat(nodes_a, len(nodes_b)))
            cols.append(np.tile(nodes_b, len(nodes_a)))
        if rows:
            tri_idx, bary = np.concatenate(tri_idx), np.concatenate(barys)
            # In blocks of CHORD_BLOCK chords, so the sample arrays stay a
            # few MB.
            n = CHORD_BLOCK * (CHORD_SAMPLES + 1)
            weights = [
                self._located_lengths(
                    tri_idx[i:i + n], bary[i:i + n],
                    _runs(len(bary[i:i + n]) // (CHORD_SAMPLES + 1)),
                )
                for i in range(0, len(bary), n)
            ]
            return np.concatenate(rows), np.concatenate(cols), np.concatenate(weights)

    def _build_tri_buckets(self, mesh):
        """Uniform-grid spatial index: disc cell -> candidate triangles.

        Cells are sized for about one triangle each.  Each triangle is filed,
        in index order, under every cell its bounding box overlaps, so a
        point's containing triangle is always among its cell's candidates.
        Each cell also stacks its candidates' barycentric solvers, so that
        locating a point gathers one row.
        """
        coords = np.asarray(mesh.coords, dtype=float)[:, :2]
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        cs = max(math.sqrt(float(np.prod(hi - lo)) / len(self._tris)), 1e-12)
        nx = max(1, int(np.ceil((hi[0] - lo[0]) / cs)))
        ny = max(1, int(np.ceil((hi[1] - lo[1]) / cs)))
        cells: dict[int, list[int]] = {}
        for ti, tri in enumerate(self._tris):
            pts = coords[list(tri)]
            i0, j0 = np.floor((pts.min(axis=0) - lo) / cs).astype(int)
            i1, j1 = np.floor((pts.max(axis=0) - lo) / cs).astype(int)
            for ci in range(max(i0, 0), min(i1, nx - 1) + 1):
                for cj in range(max(j0, 0), min(j1, ny - 1) + 1):
                    cells.setdefault(ci * ny + cj, []).append(ti)
        kmax = max(len(v) for v in cells.values())
        table = np.full((nx * ny, kmax), -1, dtype=int)
        for cell, tris in cells.items():
            table[cell, : len(tris)] = tris
        self._bucket_lo = lo
        self._bucket_cs = cs
        self._bucket_shape = (nx, ny)
        self._bucket_tris = table
        # Empty slots hold triangle 0's solver; `_locate_many` never picks them.
        safe = np.maximum(table, 0)
        self._bucket_inv = self._inv_stack[safe]
        self._bucket_p0 = self._p0_stack[safe]

    def _locate_many(self, pts):
        """Containing triangle and barycentric coordinates for many points.

        The triangle is the cell candidate with the largest smallest
        barycentric coordinate, the first such in index order.
        """
        pts = np.asarray(pts, dtype=float)
        ij = np.floor((pts - self._bucket_lo) / self._bucket_cs).astype(int)
        ix = np.clip(ij[:, 0], 0, self._bucket_shape[0] - 1)
        iy = np.clip(ij[:, 1], 0, self._bucket_shape[1] - 1)
        cell = ix * self._bucket_shape[1] + iy
        cand = self._bucket_tris[cell]  # (n, kmax)
        diff = pts[:, None, :] - self._bucket_p0[cell]
        st = np.einsum("nkij,nkj->nki", self._bucket_inv[cell], diff)
        bary = np.concatenate([1.0 - st.sum(axis=2, keepdims=True), st], axis=2)
        low = np.minimum(np.minimum(bary[:, :, 0], bary[:, :, 1]), bary[:, :, 2])
        best = np.argmax(np.where(cand >= 0, low, -np.inf), axis=1)
        rows = np.arange(len(pts))
        return cand[rows, best], bary[rows, best]

    # -- temporary measurement points --------------------------------------

    def _locate_tri(self, xy):
        """Triangle index whose barycentric coordinates of xy are largest."""
        tri_idx, _ = self._locate_many(np.asarray(xy, dtype=float)[None, :])
        return int(tri_idx[0])

    def _xy_segment_weights(self, starts_xy, ends_xy):
        """Image polyline lengths of straight disc segments."""
        S = np.asarray(starts_xy, dtype=float)
        E = np.asarray(ends_xy, dtype=float)
        lam = np.linspace(0.0, 1.0, CHORD_SAMPLES + 1)
        XY = (1.0 - lam)[None, :, None] * S[:, None, :] + lam[None, :, None] * E[:, None, :]
        tri_idx, bary = self._locate_many(XY.reshape(-1, 2))
        return self._located_lengths(tri_idx, bary, _runs(len(S)))

    # -- contour-following routes (tree targets) ---------------------------

    def _node_image(self, n):
        n = int(n)
        if n < self.n_nodes:
            return self.node_images[n]
        xy = self._temp[n - self.n_nodes]["xy"]
        ti, bb = self._locate_many(np.asarray(xy, dtype=float)[None, :])
        b = np.clip(bb[0], 0.0, None)[None, :]
        tri = self._tris[int(ti[0])]
        return self.space.barycenter_rows([self.mg.images[v] for v in tri], b)[0]

    def _edge_level_crossing(self, u, v, lam):
        """Disc point on mesh edge (u, v) whose image is lam, if any.

        The interpolant restricted to a mesh edge is the image geodesic
        with edge-proportional parameter, so the crossing is exact.
        """
        fu, fv = self.mg.images[u], self.mg.images[v]
        duv = self.space.distance(fu, fv)
        if duv < 1e-14:
            return None
        du = self.space.distance(fu, lam)
        if du > duv + 1e-9:
            return None
        dv = self.space.distance(lam, fv)
        if du + dv > duv + 1e-9:
            return None
        t = min(max(du / duv, 0.0), 1.0)
        return (1.0 - t) * self.node_xy[u] + t * self.node_xy[v]

    def _walk_contour(self, start_tri, edge, cxy, lam, ty, y_xy, limit):
        """March the level set lam from a crossing of mesh edge `edge` (an
        edge id) toward triangle ty."""
        mesh = self.mg.mesh
        poly = [cxy]
        prev_edge, cur = edge, _across(mesh, edge, start_tri)
        for _ in range(limit):
            if cur < 0:  # left the disc
                return None
            if cur == ty:
                return np.array(poly)
            cands = []
            for e in mesh.tri_edges[cur].tolist():
                if e == prev_edge:
                    continue
                xy2 = self._edge_level_crossing(*mesh.edges[e].tolist(), lam)
                if xy2 is not None:
                    cands.append((e, xy2))
            if not cands:
                return None
            # Ambiguity (non-monotone level inside a triangle) is resolved
            # toward y; any choice stays sound because every leg is measured.
            e, xy2 = min(
                cands, key=lambda c: float(np.linalg.norm(c[1] - y_xy))
            )
            poly.append(xy2)
            prev_edge, cur = e, _across(mesh, e, cur)
        return None

    def _fiber_route(self, x_xy, x_img, y_xy, y_img):
        """Length of a contour-following disc curve from x to y, or inf.

        Follows the level set of x's image through the triangulation, then
        hops to y inside y's triangle.  Relaxed curves pay a kink penalty
        per polyline point when they hug a fiber of a tree target (the
        length functional is V-shaped transversally, not quadratic); the
        marched contour has its kinks exactly on the mesh edges, so the
        only cost left is the genuine level variation.  Every leg is a
        straight disc segment sampled like any other chord, hence a sound
        upper bound whenever the march reaches y.
        """
        x_xy = np.asarray(x_xy, dtype=float)
        y_xy = np.asarray(y_xy, dtype=float)
        tx = self._locate_tri(x_xy)
        ty = self._locate_tri(y_xy)
        if tx == ty:
            return float("inf")
        mesh = self.mg.mesh
        limit = 4 * len(self._tris)
        best = float("inf")
        for e in mesh.tri_edges[tx].tolist():
            cxy = self._edge_level_crossing(*mesh.edges[e].tolist(), x_img)
            if cxy is None:
                continue
            poly = self._walk_contour(tx, e, cxy, x_img, ty, y_xy, limit)
            if poly is None:
                continue
            chain = np.vstack([x_xy[None, :], poly, y_xy[None, :]])
            w = self._xy_segment_weights(chain[:-1], chain[1:])
            best = min(best, float(w.sum()))
        return best

    def _fiber_post(self, sources, targets, out):
        """Improve measured rows with contour routes (tree targets only)."""
        if not isinstance(self.space, MetricTree):
            return out
        sinfo = [(self._node_pos(s), self._node_image(s)) for s in sources]
        tinfo = [(self._node_pos(q), self._node_image(q)) for q in targets]
        for i, (sxy, simg) in enumerate(sinfo):
            for j, (qxy, qimg) in enumerate(tinfo):
                cur = out[i][j]
                if cur <= self.space.distance(simg, qimg) + 1e-4:
                    continue
                cand = min(
                    self._fiber_route(sxy, simg, qxy, qimg),
                    self._fiber_route(qxy, qimg, sxy, simg),
                )
                if cand < cur:
                    out[i][j] = float(cand)
        return out

    def _add_temp_point(self, xy) -> int:
        """Register a continuous disc point as a temporary graph node."""
        xy = np.asarray(xy, dtype=float)
        ti = self._locate_tri(xy)
        mesh = self.mg.mesh
        nbrs = mesh.edge_tris[mesh.tri_edges[ti]].ravel()
        nodes, node_pos = [], []
        seen = set()
        for tj in [ti, *np.unique(nbrs[(nbrs >= 0) & (nbrs != ti)]).tolist()]:
            for node, bary, _ in zip(*self._core.boundary(tj)):
                if node in seen:
                    continue
                seen.add(node)
                nodes.append(node)
                node_pos.append(bary @ self.node_xy[list(self._tris[tj])])
        # Direct edges to nearby existing temp points; without them, close
        # pairs of temp points would be forced through far boundary nodes.
        near = [
            j for j, e in enumerate(self._temp)
            if np.linalg.norm(e["xy"] - xy) <= 3.0 * self._disc_h
        ]
        ends = np.array(node_pos + [self._temp[j]["xy"] for j in near])
        ws = self._xy_segment_weights(np.repeat(xy[None, :], len(ends), axis=0), ends)
        cols = nodes + [self.n_nodes + j for j in near]
        me = self.n_nodes + len(self._temp)
        self._temp.append({"xy": xy, "links": (np.full(len(cols), me), cols, ws)})
        return me

    def clear_temp(self):
        self._temp = []
        self._cache = {k: v for k, v in self._cache.items() if k[1] == 0}
        self._cache_order = [k for k in self._cache_order if k[1] == 0]
        self._aug = None

    # -- oracle interface -------------------------------------------------

    def _matrix(self):
        """Base graph, augmented with any temporary nodes."""
        t = len(self._temp)
        if t and (self._aug is None or self._aug[0] != t):
            links = zip(*(e["links"] for e in self._temp))
            self._aug = (t, append_nodes(self.graph, t, *map(np.concatenate, links)))
        return self._aug[1] if t else self.graph

    def _solve(self, source: int, base: bool = False):
        """Distances and predecessors from `source`, cached for the last 64
        (source, temp count) keys; `base` ignores the temporary nodes."""
        key = (int(source), 0 if base else len(self._temp))
        if key not in self._cache:
            self._cache[key] = dijkstra(
                self.graph if base else self._matrix(), directed=False,
                indices=key[0], return_predecessors=True,
            )
            self._cache_order.append(key)
            if len(self._cache_order) > 64:
                del self._cache[self._cache_order.pop(0)]
        return self._cache[key]

    def _node_pos(self, n):
        n = int(n)
        return self.node_xy[n] if n < self.n_nodes else self._temp[n - self.n_nodes]["xy"]

    def distance(self, p, q) -> float:
        return self.distances_from(p, [q])[0]

    def distances_from(self, p, targets):
        return self.distance_blocks([([p], targets)])[0][0]

    def distance_rows(self, sources, targets):
        return self.distance_blocks([(sources, targets)])[0]

    def distance_blocks(self, blocks):
        """Distance matrices of (sources, targets) blocks, refined by
        continuous curve shortening, with the curves of every block relaxed
        in one batch (`_relax_batch`).

        The graph distance and the relaxed-curve length are both genuine
        curve lengths of the interpolated map, hence upper bounds on the
        induced distance; their minimum strips the lateral staircase excess
        of pure graph paths.  A block of one source whose nodes are all mesh
        vertices relaxes the graph path of each pair on its own schedule and
        caches it for `geodesic`; any other block relaxes the straight
        segments between its sources and targets, refined as far as its
        longest segment needs.
        """
        plans, groups, fresh, lengths = [], [], [], {}
        for sources, targets in blocks:
            sources = [int(s) for s in sources]
            targets = [int(q) for q in targets]
            dists = [self._solve(s)[0] for s in sources]
            if len(sources) == 1 and max(sources + targets) < self.n_vertices:
                p = sources[0]
                for q in targets:
                    key = (min(p, q), max(p, q))
                    if q == p or key in lengths:
                        continue
                    if key in self._curves:
                        lengths[key] = float(self._curves[key][1][-1])
                    else:  # filled in after the batch
                        lengths[key] = None
                        fresh.append((key, len(groups)))
                        groups.append(self._curve_start(*key))
                plans.append((sources, targets, dists, [[q == p for q in targets]], None))
                continue
            sxy = np.reshape([self._node_pos(s) for s in sources], (-1, 2))
            txy = np.reshape([self._node_pos(q) for q in targets], (-1, 2))
            S = np.repeat(sxy, len(targets), axis=0)
            E = np.tile(txy, (len(sources), 1))
            same = np.linalg.norm(E - S, axis=1) < 1e-14
            plans.append((
                sources, targets, dists, same.reshape(len(sources), len(targets)),
                len(groups) if len(S) else None,
            ))
            if len(S):
                span = np.linalg.norm(E - S, axis=1).max()
                n_target = int(np.clip(np.ceil(span / (0.75 * self._disc_h)), 8, 96))
                lam = np.linspace(0.0, 1.0, min(8, n_target) + 1)
                groups.append((
                    (1.0 - lam)[None, :, None] * S[:, None, :]
                    + lam[None, :, None] * E[:, None, :],
                    n_target,
                ))
        relaxed = self._relax_lengths(groups)
        for key, g in fresh:
            lengths[key] = self._keep_curve(key, *relaxed[g])
        out = []
        for sources, targets, dists, same, g in plans:
            if g is None:  # vertex-pair curves, or no pairs
                lens = [[lengths.get((min(s, q), max(s, q))) for q in targets] for s in sources]
            else:
                lens = relaxed[g][1].sum(axis=1).reshape(same.shape)
            rows = [
                [
                    0.0 if same[i][j] else min(float(dists[i][q]), float(lens[i][j]))
                    for j, q in enumerate(targets)
                ]
                for i in range(len(sources))
            ]
            out.append(self._fiber_post(sources, targets, rows))
        return out

    def geodesic(self, p, q, t: float):
        """Temporary node at arclength fraction t of the shortened p-q curve.

        For 0 < t < 1 both endpoints must be mesh vertices.
        """
        if t <= 0.0:
            return int(p)
        if t >= 1.0:
            return int(q)
        for x in (p, q):
            if not 0 <= int(x) < self.n_vertices:
                raise ValueError(f"geodesic endpoint {int(x)} is not a mesh vertex")
        xy, arcs = self._shorten_curve(int(p), int(q))
        target = t * float(arcs[-1])
        idx = int(np.searchsorted(arcs, target))
        idx = min(max(idx, 1), len(arcs) - 1)
        lam = (target - arcs[idx - 1]) / max(arcs[idx] - arcs[idx - 1], 1e-15)
        return self._add_temp_point((1.0 - lam) * xy[idx - 1] + lam * xy[idx])

    def _shorten_curve(self, p, q):
        """Disc polyline of the continuous p-q geodesic with its arclengths.

        The graph shortest path only locates the geodesic to the Steiner
        spacing (its node chain staircases); the polyline is therefore
        relaxed by curve shortening of the sampled image length, which
        recovers the transverse position to optimization resolution.
        Results are cached for the last 16 vertex pairs.
        """
        key, flip = ((p, q), False) if p <= q else ((q, p), True)
        if key not in self._curves:
            self._keep_curve(key, *self._relax_lengths([self._curve_start(*key)])[0])
        xy, arcs = self._curves[key]
        if flip:
            xy = xy[::-1]
            arcs = arcs[-1] - arcs[::-1]
        return xy, arcs

    def _curve_start(self, a, b):
        """Graph shortest path from vertex a to b, resampled to the coarse
        stage, and the segment count it is refined to."""
        dist, pred = self._solve(a, base=True)
        path = [int(b)]
        while path[-1] != int(a):
            nxt = int(pred[path[-1]])
            if nxt < 0:
                raise ValueError("nodes are not connected")
            path.append(nxt)
        path.reverse()
        n_target = int(np.clip(np.ceil(float(dist[b]) / (0.5 * self._disc_h)), 8, 128))
        return _resample(self.node_xy[path][None], min(8, n_target)), n_target

    def _keep_curve(self, key, pts, seg):
        """Cache a relaxed vertex-pair curve; its length."""
        arcs = np.concatenate([[0.0], np.cumsum(seg[0])])
        self._curves[key] = (pts[0], arcs)
        self._curve_order.append(key)
        if len(self._curve_order) > 16:
            del self._curves[self._curve_order.pop(0)]
        return float(arcs[-1])

    def _relax_lengths(self, groups):
        """Relax (pts, n_target) groups in one batch: each group's relaxed
        polylines and their segments' image lengths, (curves, segments)."""
        if not groups:
            return []
        relaxed = self._relax_batch([(pts, 0.5 * self._disc_h, n) for pts, n in groups])
        seg = self._xy_segment_weights(
            np.concatenate([pts[:, :-1].reshape(-1, 2) for pts in relaxed]),
            np.concatenate([pts[:, 1:].reshape(-1, 2) for pts in relaxed]),
        )
        ends = np.cumsum([pts[:, 1:].size // 2 for pts in relaxed])[:-1]
        return [
            (pts, s.reshape(len(pts), -1)) for pts, s in zip(relaxed, np.split(seg, ends))
        ]

    def _relax_batch(self, groups):
        """Relax groups of polylines, coarse to fine, in lockstep.

        `groups` holds (pts, step0, n_target) triples, pts a batch of
        polylines (curves, points, xy).  A group relaxes in stages of at
        most RELAX_LEVELS probe-step levels, the first from step0, the step
        shrinking by RELAX_SHRINK per level; a stage ends early after two
        idle levels at a fine step.  While a group has fewer than n_target
        segments, each stage is followed by a finer one at twice the
        segments (at most n_target), resampled by arclength, from a quarter
        of the disc spacing: pointwise transverse relaxation damps only short
        lateral wavelengths, while the staircase bias of an initial graph
        path is long-wavelength, and relaxing a coarse polyline first makes
        those modes short relative to the spacing.

        Groups do not interact.  Each keeps its own stage, step and idle
        count, exactly as if relaxed alone, while one level of every
        unfinished group runs in the same half-sweeps (`_half_sweep`) over
        flat point rows.  Returns the relaxed pts of each group.
        """
        h = self._disc_h
        state = [[pts, step0, n_target, 0, 0] for pts, step0, n_target in groups]
        done = [None] * len(groups)
        active = list(range(len(groups)))
        shapes = plan = None
        while active:
            if shapes != tuple(state[g][0].shape for g in active):
                shapes = tuple(state[g][0].shape for g in active)
                plan = _sweep_plan(shapes)
            P = np.concatenate([state[g][0].reshape(-1, 2) for g in active])
            steps = np.array([state[g][1] for g in active])
            moved = np.zeros(len(active), dtype=bool)
            for _pass in range(RELAX_PASSES):
                for rows, group, starts, chains in plan:
                    moved |= self._half_sweep(P, rows, steps[group], starts, chains)
            ends = np.cumsum([c * n for c, n, _ in shapes])[:-1]
            still = []
            for g, part, mv in zip(active, np.split(P, ends), moved):
                pts, step, n_target, idle, level = state[g]
                pts = part.reshape(pts.shape)
                idle = 0 if mv else idle + 1
                level += 1
                # Two idle levels in a row at fine step: every point is
                # within the smallest probe of its optimum; stop shrinking.
                # At coarse steps idleness only means the probes overshoot
                # the error.
                if (idle >= 2 and step < 0.05 * h) or level == RELAX_LEVELS:
                    n_seg = pts.shape[1] - 1
                    if n_seg >= n_target:
                        done[g] = pts
                        continue
                    pts = _resample(pts, min(2 * n_seg, n_target))
                    # Finer stages only clean up what resampling reintroduced.
                    step, idle, level = 0.25 * h, 0, 0
                else:
                    step *= RELAX_SHRINK
                state[g] = [pts, step, n_target, idle, level]
                still.append(g)
            active = still
        return done

    def _half_sweep(self, P, rows, step, starts, chains):
        """Move the points `rows` of the flat polyline points P, in place;
        whether each group, rows from `starts` on, moved.

        Each point is tested against the chord of its two neighbours (red-
        black by index parity, so no two moved points are neighbours), at
        its own probe step.  Moving m points probes 5m candidates and
        measures the 10m segments joining them to the neighbours: it locates
        the 2m neighbours, the 5m candidates and the 30m interior segment
        samples, 37m distinct points, in one call and interpolates each
        once, then locates the m over-relaxed moves in a second call.
        """
        n_off = len(RELAX_OFFSETS)
        lam = np.linspace(0.0, 1.0, CHORD_SAMPLES + 1)[1:-1]
        prev = P[rows - 1]
        nxt = P[rows + 1]
        chord = nxt - prev
        norms = np.linalg.norm(chord, axis=1, keepdims=True)
        nrm = np.column_stack([-chord[:, 1], chord[:, 0]])
        nrm /= np.maximum(norms, 1e-15)
        base = P[rows]
        m = len(base)
        cands = (
            base[None, :, :]
            + (RELAX_OFFSETS[:, None] * step)[:, :, None] * nrm[None, :, :]
        ).reshape(-1, 2)
        half = len(cands)
        S = np.vstack([np.tile(prev, (n_off, 1)), cands])
        E = np.vstack([cands, np.tile(nxt, (n_off, 1))])
        between = (
            (1.0 - lam)[None, :, None] * S[:, None, :]
            + lam[None, :, None] * E[:, None, :]
        )
        tri_idx, bary = self._locate_many(
            np.vstack([prev, nxt, cands, between.reshape(-1, 2)])
        )
        inside = bary[2 * m:2 * m + half].min(axis=1) >= -1e-9
        w = self._located_lengths(tri_idx, bary, chains)
        vals = (w[:half] + w[half:]).reshape(n_off, m)
        vals[~inside.reshape(n_off, m)] = np.inf
        best = np.argmin(vals, axis=0)
        ar = np.arange(m)
        off = RELAX_OFFSETS[best] * step
        # Sub-probe parabolic refinement; without it, corrections smaller
        # than the probe spacing never happen and smooth lateral modes stall
        # at the quantization floor.
        inner = (best >= 1) & (best <= n_off - 2)
        bi = np.where(inner, best, 2)
        vm = np.nan_to_num(vals[bi - 1, ar], posinf=0.0)
        vb = vals[bi, ar]
        vp = np.nan_to_num(vals[bi + 1, ar], posinf=0.0)
        finite = np.isfinite(vals[bi - 1, ar]) & np.isfinite(vals[bi + 1, ar])
        denom = vm - 2.0 * vb + vp
        ok = inner & finite & (denom > 1e-18)
        shift = np.where(ok, 0.5 * (vm - vp) / np.where(ok, denom, 1.0), 0.0)
        probe = 0.5 * step  # probe spacing
        off = off + np.clip(shift * probe, -probe, probe)
        off = np.where(np.isfinite(vals[best, ar]), off, 0.0)
        # Over-relaxation: pointwise descent damps a lateral mode of
        # wavelength w only at rate ~(spacing/w)^2 per sweep; SOR turns that
        # into ~spacing/w. Scaled moves that leave the disc fall back to the
        # probe-checked move.
        sor = np.clip(1.8 * off, -step, step)
        _, sb = self._locate_many(base + sor[:, None] * nrm)
        off = np.where(sb.min(axis=1) >= -1e-9, sor, off)
        P[rows] = base + off[:, None] * nrm
        return np.maximum.reduceat(np.abs(off), starts) > 1e-4 * self._disc_h

    def random_point(self, rng) -> int:
        # Sample among original mesh vertices only.
        return int(rng.integers(self.n_vertices))


def _across(mesh, e, t):
    """The triangle across mesh edge e from triangle t, or -1."""
    a, b = mesh.edge_tris[e].tolist()
    return b if a == t else a


def _runs(n_chains):
    """`chains` rows of n_chains consecutive runs of CHORD_SAMPLES + 1 points."""
    return np.arange(n_chains * (CHORD_SAMPLES + 1)).reshape(n_chains, -1)


def _probe_chains(m, n_probes):
    """`chains` rows of the probe segments of a half-sweep of m points.

    The located rows are the m previous neighbours, the m next neighbours,
    the n_probes * m candidates (probe-major), then the CHORD_SAMPLES - 1
    interior samples of each segment in turn: n_probes * m segments from a
    previous neighbour to a candidate, then as many from a candidate to a
    next neighbour.
    """
    c = n_probes * m
    k = np.arange(c)
    chains = np.empty((2 * c, CHORD_SAMPLES + 1), dtype=int)
    chains[:, 0] = np.r_[k % m, 2 * m + k]
    chains[:, -1] = np.r_[2 * m + k, m + k % m]
    interior = np.arange(2 * c * (CHORD_SAMPLES - 1)).reshape(2 * c, -1)
    chains[:, 1:-1] = 2 * m + c + interior
    return chains


def _sweep_plan(shapes):
    """The two red-black half-sweeps, odd points first, of polyline groups
    of the given (curves, points, 2) shapes laid out as consecutive flat
    rows: per half-sweep the moved rows, each row's group, the first row of
    each group among them, and the probe `chains`."""
    firsts = np.cumsum([0] + [c * n for c, n, _ in shapes])
    plan = []
    for parity in (1, 0):
        rows = []
        for (c, n, _), first in zip(shapes, firsts):
            idxs = np.arange(1, n - 1)
            idxs = idxs[idxs % 2 == parity]
            rows.append((first + n * np.arange(c)[:, None] + idxs).ravel())
        sizes = [len(r) for r in rows]
        plan.append((
            np.concatenate(rows),
            np.repeat(np.arange(len(shapes)), sizes),
            np.cumsum([0] + sizes[:-1]),
            _probe_chains(sum(sizes), len(RELAX_OFFSETS)),
        ))
    return plan


def _resample(pts, n_seg):
    """Arclength resampling of a batch of polylines (curves, points, xy) to
    n_seg equal segments each."""
    seg = np.linalg.norm(np.diff(pts, axis=1), axis=2)
    s = np.concatenate([np.zeros((len(pts), 1)), np.cumsum(seg, axis=1)], axis=1)
    new = np.empty((len(pts), n_seg + 1, 2))
    for c in range(len(pts)):
        s_new = np.linspace(0.0, s[c, -1], n_seg + 1)
        new[c, :, 0] = np.interp(s_new, s[c], pts[c, :, 0])
        new[c, :, 1] = np.interp(s_new, s[c], pts[c, :, 1])
    return new


def certify_induced(
    mg: MappedGraph,
    kappa: Kappa,
    triple_budget: int = 200,
    grid: int = 8,
    tolerance: float = 5e-3,
    seed: int = 0,
    refinement: int | None = None,
    steiner: int = 6,
    collect_samples: bool = False,
    probes=None,
):
    """Certify the thinness condition on the induced length metric of a map.

    The induced metric is realized by the Steiner/chord-augmented graph of
    InducedGraphSpace; `refinement` (typically the mesh resolution) is
    recorded so defect-vs-refinement trends can be reported.

    `probes` optionally fixes the triples as parameter-domain positions
    (sequence of 3-point xy triples), each snapped to the nearest mesh
    vertex.  Refinement sweeps certify the same geometric triples that way,
    so defect trends across refinements are not confounded by sampling.
    """
    oracle = InducedGraphSpace(mg, steiner=steiner)
    probe_list = None
    if probes is not None:
        xy = np.asarray(mg.mesh.coords, dtype=float)[:, :2]
        probe_list = [
            tuple(
                int(np.argmin(((xy - np.asarray(p, dtype=float)[None, :2]) ** 2).sum(axis=1)))
                for p in tri
            )
            for tri in probes
        ]
        triple_budget = len(probe_list)
    rng = np.random.default_rng(seed)
    all_samples = []
    used = skipped = 0
    attempts = 0
    while used + skipped < triple_budget and attempts < 20 * triple_budget:
        attempts += 1
        if probe_list is not None:
            triple = probe_list[used + skipped]
        else:
            triple = (
                oracle.random_point(rng),
                oracle.random_point(rng),
                oracle.random_point(rng),
            )
        if len({int(x) for x in triple}) < 3:
            if probe_list is not None:
                skipped += 1
            continue
        samples = thinness_defect(oracle, kappa, triple, grid)
        oracle.clear_temp()
        if samples is None:
            skipped += 1
            continue
        used += 1
        all_samples.extend(samples)
    report = _aggregate(
        kappa, all_samples, used, skipped, tolerance,
        provenance=f"induced:{type(mg.space).__name__}", seed=seed,
        refinement=refinement,
    )
    return (report, all_samples) if collect_samples else report

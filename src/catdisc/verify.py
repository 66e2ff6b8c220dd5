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
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import GeometryError, NonUniqueGeodesicError, TooLargeTriangleError
from .mesh import MappedGraph
from .model import Kappa, build_comparison_triangle
from .spaces import EuclideanSpace, MetricTree, ModelSpace


def _batch_kappa(space):
    """Curvature value when the space supports vectorized chord evaluation."""
    if isinstance(space, EuclideanSpace):
        return 0.0
    if isinstance(space, ModelSpace):
        return float(space.kappa.value)
    return None


def _batch_geodesic(k: float, X, Y, T):
    """Vectorized constant-curvature geodesic points; X, Y (N,3), T (N,)."""
    T = np.asarray(T, dtype=float)[:, None]
    if k == 0.0:
        return X + T * (Y - X)
    if k > 0:
        s = math.sqrt(k)
        chord = np.linalg.norm(X - Y, axis=1)
        phi = 2.0 * np.arcsin(np.clip(0.5 * chord * s, 0.0, 1.0))[:, None]
        sl = np.sin(phi)
        safe = sl > 1e-12
        P = np.where(
            safe,
            (np.sin((1.0 - T) * phi) * X + np.sin(T * phi) * Y)
            / np.where(safe, sl, 1.0),
            X,
        )
        # Renormalize onto the radius 1/sqrt(k) sphere.
        return P / (s * np.linalg.norm(P, axis=1))[:, None]
    s = math.sqrt(-k)
    mink = X[:, 0] * Y[:, 0] + X[:, 1] * Y[:, 1] - X[:, 2] * Y[:, 2]
    psi = np.arccosh(np.maximum(-mink * (-k), 1.0))[:, None]
    sh = np.sinh(psi)
    safe = sh > 1e-12
    P = np.where(
        safe,
        (np.sinh((1.0 - T) * psi) * X + np.sinh(T * psi) * Y)
        / np.where(safe, sh, 1.0),
        X,
    )
    q = -(P[:, 0] ** 2 + P[:, 1] ** 2 - P[:, 2] ** 2)
    return P / np.sqrt(q * (-k))[:, None]


def _batch_distance(k: float, X, Y):
    """Vectorized constant-curvature distances between row-aligned points."""
    if k == 0.0:
        return np.linalg.norm(X - Y, axis=1)
    if k > 0:
        s = math.sqrt(k)
        chord = np.linalg.norm(X - Y, axis=1)
        return 2.0 * np.arcsin(np.clip(0.5 * chord * s, 0.0, 1.0)) / s
    s = math.sqrt(-k)
    # Stable half-chord form, matching model.model_distance.
    D = X - Y
    msq = np.maximum(
        (D[:, 0] ** 2 + D[:, 1] ** 2 - D[:, 2] ** 2) * (-k), 0.0
    )
    return 2.0 * np.arcsinh(0.5 * np.sqrt(msq)) / s


def _batch_bary_interp(k: float, corners, B):
    """Iterated-geodesic barycentric interpolation, vectorized over rows of B.

    `corners` (N, 3, d) holds each row's triangle corners: the point is taken
    on the geodesic from corner 0 to corner 1, then toward corner 2.
    """
    b0, b1, b2 = B[:, 0], B[:, 1], B[:, 2]
    denom = np.maximum(b0 + b1, 1e-15)
    M = _batch_geodesic(k, corners[:, 0], corners[:, 1], b1 / denom)
    return _batch_geodesic(k, M, corners[:, 2], b2)

# Triples with a side below this are rejected as degenerate.
MIN_SIDE = 1e-6


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


def _distance_row(space, p, targets):
    if hasattr(space, "distances_from"):
        return space.distances_from(p, targets)
    return [space.distance(p, q) for q in targets]


def _distance_rows(space, sources, targets):
    if hasattr(space, "distance_rows"):
        return space.distance_rows(sources, targets)
    return [_distance_row(space, p, targets) for p in sources]


def thinness_defect(space, kappa: Kappa, triple, grid: int = 16):
    """Thinness samples of one triple on a grid x grid parameter lattice.

    Returns None (a skipped-triple marker) when the triple is degenerate or,
    for kappa > 0, when its perimeter reaches 2 R_kappa.
    """
    p, q, r = triple
    dpq, dpr = _distance_row(space, p, [q, r])
    dqr = space.distance(q, r)
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
    arc_a = np.asarray(_distance_row(space, p, xs), dtype=float)
    arc_b = np.asarray(_distance_row(space, p, ys), dtype=float)
    measured = np.asarray(_distance_rows(space, xs, ys), dtype=float).ravel()
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

    Distances are shortest paths on the graph whose nodes are mesh vertices
    plus `steiner` subdivision points per mesh edge, with two families of
    weighted edges: subsegments along mesh edges (image geodesic chords) and
    intra-triangle chords between all boundary nodes of each triangle,
    weighted by the image polyline length of the interpolated map along the
    straight disc segment. Geodesics are realized as shortest-path polylines;
    `geodesic(p, q, t)` returns the node nearest to arclength t along it.

    The interpolant fills each triangle from its corner images: iterated
    geodesics on Euclidean and M_kappa targets, and on tree targets the
    weighted Frechet mean, unique in CAT(0) spaces (Sturm 2003), in closed
    form on the tripod the corners span (`MetricTree.tripod_means`); it does
    not backtrack around branch points, which would inflate sampled lengths.
    Both run on arrays with their backend's array distance; other targets
    (cones) go point by point.
    """

    def __init__(self, mg: MappedGraph, steiner: int = 6, chord_samples: int = 4):
        self.mg = mg
        self.space = mg.space
        self.steiner = int(steiner)
        self.chord_samples = int(chord_samples)
        # Curvature of the array kernel, or None for per-point backends.
        self._k = _batch_kappa(self.space)
        self._cache: dict = {}
        self._cache_order: list = []
        self._curves: dict = {}
        self._curve_order: list = []
        self._aug = None
        self._build()

    # -- construction -----------------------------------------------------

    def _tri_point(self, tri, bary):
        """Iterated-geodesic interpolant at one point (no array kernel)."""
        imgs = [self.mg.images[int(v)] for v in tri]
        b0, b1, b2 = bary
        if b0 + b1 < 1e-15:
            return imgs[2]
        m = self.space.geodesic(imgs[0], imgs[1], b1 / (b0 + b1))
        return self.space.geodesic(m, imgs[2], b2)

    def _build(self):
        mg = self.mg
        mesh = mg.mesh
        n = mesh.n_vertices
        k = self.steiner
        self._build_tri_geometry(mesh)
        node_images = list(mg.images)
        # One subdivision chain per mesh edge; nodes shared between the two
        # incident triangles.
        edge_nodes: dict[tuple[int, int], list[int]] = {}
        edge_fracs: dict[tuple[int, int], list[float]] = {}
        rows, cols, weights = [], [], []
        node_xy = [np.asarray(c[:2], dtype=float) for c in mesh.coords]
        tree_target = isinstance(self.space, MetricTree)
        for u, v in mesh.edges:
            u, v = int(u), int(v)
            fracs = [(i + 1) / (k + 1) for i in range(k)]
            if tree_target:
                # Place nodes exactly where the image geodesic crosses tree
                # vertices: paths hugging a branch-point fiber then hop along
                # exact branch-point nodes instead of paying a detour per
                # edge crossing.
                fracs.extend(
                    self.space.geodesic_breakpoints(mg.images[u], mg.images[v])
                )
            fracs = sorted(f for f in fracs if 1e-9 < f < 1.0 - 1e-9)
            kept = []
            for f in fracs:
                if not kept or f - kept[-1] > 1e-9:
                    kept.append(f)
            chain = [u]
            for frac in kept:
                node_images.append(self.space.geodesic(mg.images[u], mg.images[v], frac))
                node_xy.append((1.0 - frac) * node_xy[u] + frac * node_xy[v])
                chain.append(len(node_images) - 1)
            chain.append(v)
            edge_nodes[(u, v)] = chain
            edge_fracs[(u, v)] = [0.0] + kept + [1.0]
            for a, b in zip(chain, chain[1:]):
                w = self.space.distance(node_images[a], node_images[b])
                rows.append(a)
                cols.append(b)
                weights.append(w)

        # Intra-triangle chords between boundary nodes, weighted by the image
        # polyline of the interpolated map along the straight disc segment.
        def side_chain(a, b):
            key = (a, b) if a < b else (b, a)
            chain, fr = edge_nodes[key], edge_fracs[key]
            if a < b:
                return chain, fr
            return chain[::-1], [1.0 - f for f in fr[::-1]]

        tri_boundaries = []  # per triangle: list of (node, barycentric)
        for ti, (t0, t1, t2) in enumerate(self._tris):
            boundary = []  # (node, barycentric coords)
            for a, b, corner_bary, step in (
                (t0, t1, (1.0, 0.0, 0.0), (-1.0, 1.0, 0.0)),
                (t1, t2, (0.0, 1.0, 0.0), (0.0, -1.0, 1.0)),
                (t2, t0, (0.0, 0.0, 1.0), (1.0, 0.0, -1.0)),
            ):
                chain, fr = side_chain(a, b)
                for node, frac in zip(chain[:-1], fr):
                    bary = tuple(
                        corner_bary[d] + frac * step[d] for d in range(3)
                    )
                    boundary.append((node, bary))
            tri_boundaries.append(boundary)
            same_side = set()
            for a, b in ((t0, t1), (t1, t2), (t2, t0)):
                chain, _ = side_chain(a, b)
                for x in chain:
                    for y in chain:
                        same_side.add((x, y))
            starts, ends, chord_nodes = [], [], []
            for i in range(len(boundary)):
                for j in range(i):
                    ni, bi = boundary[i]
                    nj, bj = boundary[j]
                    if (ni, nj) in same_side:
                        continue
                    starts.append(bi)
                    ends.append(bj)
                    chord_nodes.append((ni, nj))
            if chord_nodes:
                ws = self._chord_weights(ti, starts, ends)
                for (ni, nj), w in zip(chord_nodes, ws):
                    rows.append(ni)
                    cols.append(nj)
                    weights.append(float(w))
        self._tri_boundaries = tri_boundaries
        self._add_quad_chords(rows, cols, weights)

        n_nodes = len(node_images)
        self.node_images = node_images
        self.node_xy = np.array(node_xy)
        self.n_vertices = n
        self.n_nodes = n_nodes
        disc_l = [
            float(np.linalg.norm(self.node_xy[int(a)] - self.node_xy[int(b)]))
            for a, b in mesh.edges
        ]
        self._disc_h = max(disc_l) if disc_l else 1.0
        self._temp: list = []
        # Duplicate entries would sum in CSR; keep the minimum weight instead.
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        order = np.lexsort((weights, hi, lo))
        lo, hi, w = lo[order], hi[order], np.asarray(weights)[order]
        first = np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
        lo, hi, w = lo[first], hi[first], w[first]
        self.graph = coo_matrix(
            (np.r_[w, w], (np.r_[lo, hi], np.r_[hi, lo])), shape=(n_nodes, n_nodes)
        ).tocsr()

    def _build_tri_geometry(self, mesh):
        """Per-triangle caches: barycentric solvers, adjacency, corner images
        and the point locator."""
        self._tris = [tuple(int(x) for x in t) for t in mesh.triangles]
        inv_stack, p0_stack = [], []
        for tri in self._tris:
            c0, c1, c2 = (np.asarray(mesh.coords[v][:2], dtype=float) for v in tri)
            inv_stack.append(np.linalg.inv(np.column_stack([c1 - c0, c2 - c0])))
            p0_stack.append(c0)
        self._inv_stack = np.array(inv_stack)
        self._p0_stack = np.array(p0_stack)
        nbrs: dict[int, set] = {ti: set() for ti in range(len(self._tris))}
        owner: dict[tuple[int, int], list[int]] = {}
        for ti, tri in enumerate(self._tris):
            for i in range(3):
                e = tuple(sorted((tri[i], tri[(i + 1) % 3])))
                owner.setdefault(e, []).append(ti)
        for owners in owner.values():
            if len(owners) == 2:
                nbrs[owners[0]].add(owners[1])
                nbrs[owners[1]].add(owners[0])
        self._tri_neighbors = {ti: sorted(s) for ti, s in nbrs.items()}
        self._edge_tris = {e: tuple(t) for e, t in owner.items()}
        # Corner images (n_tris, 3, d) or tripod tables for the array kernels.
        self._corners = self._tripods = None
        if isinstance(self.space, MetricTree):
            self._tripods = self.space.tripod_tables(
                [[self.mg.images[v] for v in tri] for tri in self._tris]
            )
        if self._k is not None:
            if isinstance(self.space, ModelSpace):
                verts = np.array([p.coords for p in self.mg.images])
            else:
                verts = np.array([np.asarray(p, dtype=float) for p in self.mg.images])
            self._corners = verts[np.array(self._tris)]
        self._build_tri_buckets(mesh)

    def _images_at(self, tri_idx, bary):
        """Interpolant images of disc points given by triangle and barycentrics.

        Array-kernel backends get one (N, d) array: a corner gather, or tree
        points (edge index, offset); other backends get a list of points.
        """
        if self._k is not None:
            return _batch_bary_interp(self._k, self._corners[tri_idx], bary)
        if self._tripods is not None:
            return self.space.tripod_means(self._tripods, tri_idx, bary)
        return [self._tri_point(self._tris[ti], b) for ti, b in zip(tri_idx, bary)]

    def _chain_lengths(self, pts, n_chains, m):
        """Image polyline lengths of `n_chains` consecutive runs of m + 1
        points."""
        if self._k is None and self._tripods is None:
            return np.array([
                self.space.curve_length(pts[ci * (m + 1):(ci + 1) * (m + 1)])
                for ci in range(n_chains)
            ])
        P = pts.reshape(n_chains, m + 1, -1)
        X, Y = P[:, :-1].reshape(-1, P.shape[2]), P[:, 1:].reshape(-1, P.shape[2])
        if self._k is None:
            return self.space.distance_arrays(X, Y).reshape(n_chains, m).sum(axis=1)
        return _batch_distance(self._k, X, Y).reshape(n_chains, m).sum(axis=1)

    def _chord_weights(self, ti, start_barys, end_barys):
        """Image polyline lengths of straight barycentric segments in
        triangle ti."""
        m = self.chord_samples
        S = np.asarray(start_barys, dtype=float)
        E = np.asarray(end_barys, dtype=float)
        lam = np.linspace(0.0, 1.0, m + 1)
        B = (1.0 - lam)[None, :, None] * S[:, None, :] + lam[None, :, None] * E[:, None, :]
        flat = B.reshape(-1, 3)
        if self._k is None:
            flat = np.clip(flat, 0.0, None)
        pts = self._images_at(np.full(len(flat), ti), flat)
        return self._chain_lengths(pts, len(S), m)

    def _add_quad_chords(self, rows, cols, weights):
        """Chords spanning pairs of triangles that share an edge.

        The straight disc segment between boundary nodes of the two triangles
        crosses the shared edge continuously, so these chords avoid the
        Steiner snap error at every other triangle crossing.
        """
        coords = self.mg.mesh.coords
        tris = self._tris
        m = self.chord_samples
        lam = np.linspace(0.0, 1.0, m + 1)

        def node_xy(ti, bary):
            p0, p1, p2 = (np.asarray(coords[v], dtype=float) for v in tris[ti])
            return bary[0] * p0 + bary[1] * p1 + bary[2] * p2

        def off_edge(ti, shared):
            """Boundary nodes of ti that do not lie on the shared edge."""
            return [
                (node, node_xy(ti, bary))
                for node, bary in self._tri_boundaries[ti]
                if not (
                    sum(bary[i] for i in range(3) if tris[ti][i] in shared)
                    > 1.0 - 1e-12
                )
            ]

        for e, owners in self._edge_tris.items():
            if len(owners) != 2:
                continue
            ta, tb = owners
            side_a = off_edge(ta, set(e))
            side_b = off_edge(tb, set(e))
            if not side_a or not side_b:
                continue
            XA = np.array([xy for _, xy in side_a])
            XB = np.array([xy for _, xy in side_b])
            # All chord sample points, chord by chord.
            flat = (
                (1.0 - lam)[None, None, :, None] * XA[:, None, None, :]
                + lam[None, None, :, None] * XB[None, :, None, :]
            ).reshape(-1, 2)
            # Orientation test against the shared edge line decides which
            # triangle's chart maps each sample point.
            pu, pv = (np.asarray(coords[v], dtype=float) for v in e)
            edge_dir = pv - pu
            rel = np.mean(XA, axis=0) - pu
            sign_a = edge_dir[0] * rel[1] - edge_dir[1] * rel[0]
            rel = flat - pu
            use_a = (edge_dir[0] * rel[:, 1] - edge_dir[1] * rel[:, 0]) * sign_a >= 0
            bary = np.empty((len(flat), 3))
            for ti, mask in ((ta, use_a), (tb, ~use_a)):
                st = (flat[mask] - self._p0_stack[ti]) @ self._inv_stack[ti].T
                bary[mask] = np.column_stack([1.0 - st[:, 0] - st[:, 1], st])
            bary = np.clip(bary, 0.0, None)
            bary /= bary.sum(axis=1, keepdims=True)
            pts = self._images_at(np.where(use_a, ta, tb), bary)
            ws = self._chain_lengths(pts, len(side_a) * len(side_b), m)
            pairs = ((na, nb) for na, _ in side_a for nb, _ in side_b)
            for (na, nb), w in zip(pairs, ws):
                rows.append(na)
                cols.append(nb)
                weights.append(float(w))

    def _build_tri_buckets(self, mesh):
        """Uniform-grid spatial index: disc cell -> candidate triangles.

        Cells are sized for about one triangle each.  Each triangle is filed,
        in index order, under every cell its bounding box overlaps, so a
        point's containing triangle is always among its cell's candidates.
        """
        coords = np.asarray(mesh.coords, dtype=float)[:, :2]
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        cs = max(math.sqrt(float(np.prod(hi - lo)) / len(self._tris)), 1e-12)
        nx = max(1, int(np.ceil((hi[0] - lo[0]) / cs)))
        ny = max(1, int(np.ceil((hi[1] - lo[1]) / cs)))
        cells: dict[tuple[int, int], list[int]] = {}
        for ti, tri in enumerate(self._tris):
            pts = coords[list(tri)]
            i0, j0 = np.floor((pts.min(axis=0) - lo) / cs).astype(int)
            i1, j1 = np.floor((pts.max(axis=0) - lo) / cs).astype(int)
            for ci in range(max(i0, 0), min(i1, nx - 1) + 1):
                for cj in range(max(j0, 0), min(j1, ny - 1) + 1):
                    cells.setdefault((ci, cj), []).append(ti)
        kmax = max(len(v) for v in cells.values())
        table = np.full((nx, ny, kmax), -1, dtype=int)
        for (ci, cj), tris in cells.items():
            table[ci, cj, : len(tris)] = tris
        self._bucket_lo = lo
        self._bucket_cs = cs
        self._bucket_shape = (nx, ny)
        self._bucket_table = table

    def _locate_many(self, pts):
        """Containing triangle and barycentric coordinates for many points.

        The triangle is the cell candidate with the largest smallest
        barycentric coordinate, the first such in index order.
        """
        pts = np.asarray(pts, dtype=float)
        ij = np.floor((pts - self._bucket_lo) / self._bucket_cs).astype(int)
        ix = np.clip(ij[:, 0], 0, self._bucket_shape[0] - 1)
        iy = np.clip(ij[:, 1], 0, self._bucket_shape[1] - 1)
        cand = self._bucket_table[ix, iy]  # (n, kmax)
        valid = cand >= 0
        safe = np.where(valid, cand, 0)
        diff = pts[:, None, :] - self._p0_stack[safe]
        st = np.einsum("nkij,nkj->nki", self._inv_stack[safe], diff)
        bary = np.concatenate([1.0 - st.sum(axis=2, keepdims=True), st], axis=2)
        low = np.minimum(np.minimum(bary[:, :, 0], bary[:, :, 1]), bary[:, :, 2])
        best = np.argmax(np.where(valid, low, -np.inf), axis=1)
        rows = np.arange(len(pts))
        return cand[rows, best], bary[rows, best]

    # -- temporary measurement points --------------------------------------

    def _locate_tri(self, xy):
        """Triangle index whose barycentric coordinates of xy are largest."""
        tri_idx, _ = self._locate_many(np.asarray(xy, dtype=float)[None, :])
        return int(tri_idx[0])

    def _bnd_node_xy(self, ti, bary):
        tri = self._tris[ti]
        pts = np.array([self.node_xy[v] for v in tri])
        return np.asarray(bary) @ pts

    def _xy_segment_weights(self, starts_xy, ends_xy, samples=None):
        """Image polyline lengths of straight disc segments."""
        m = self.chord_samples if samples is None else int(samples)
        S = np.asarray(starts_xy, dtype=float)
        E = np.asarray(ends_xy, dtype=float)
        lam = np.linspace(0.0, 1.0, m + 1)
        XY = (1.0 - lam)[None, :, None] * S[:, None, :] + lam[None, :, None] * E[:, None, :]
        tri_idx, bary = self._locate_many(XY.reshape(-1, 2))
        bary = np.clip(bary, 0.0, None)
        bary /= bary.sum(axis=1, keepdims=True)
        return self._chain_lengths(self._images_at(tri_idx, bary), len(S), m)

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
        """March the level set lam from an edge crossing toward triangle ty."""
        poly = [cxy]
        prev_edge = edge
        branch = [t for t in self._edge_tris.get(edge, ()) if t != start_tri]
        if not branch:
            return None
        cur = branch[0]
        for _ in range(limit):
            if cur == ty:
                return np.array(poly)
            tri = self._tris[cur]
            cands = []
            for i in range(3):
                e = tuple(sorted((tri[i], tri[(i + 1) % 3])))
                if e == prev_edge:
                    continue
                xy2 = self._edge_level_crossing(e[0], e[1], lam)
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
            branch = [t for t in self._edge_tris.get(e, ()) if t != cur]
            if not branch:
                return None
            prev_edge = e
            cur = branch[0]
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
        tri = self._tris[tx]
        limit = 4 * len(self._tris)
        best = float("inf")
        for i in range(3):
            e = tuple(sorted((tri[i], tri[(i + 1) % 3])))
            cxy = self._edge_level_crossing(e[0], e[1], x_img)
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
        cand = [ti] + self._tri_neighbors[ti]
        nodes, node_pos = [], []
        seen = set()
        for tj in cand:
            for node, bary in self._tri_boundaries[tj]:
                if node in seen:
                    continue
                seen.add(node)
                nodes.append(node)
                node_pos.append(self._bnd_node_xy(tj, bary))
        ws = self._xy_segment_weights(
            np.repeat(xy[None, :], len(nodes), axis=0), np.array(node_pos)
        )
        # Direct edges to nearby existing temp points; without them, close
        # pairs of temp points would be forced through far boundary nodes.
        temp_links = []
        near = [
            (j, e["xy"]) for j, e in enumerate(self._temp)
            if np.linalg.norm(e["xy"] - xy) <= 3.0 * self._disc_h
        ]
        if near:
            tws = self._xy_segment_weights(
                np.repeat(xy[None, :], len(near), axis=0),
                np.array([nxy for _, nxy in near]),
            )
            temp_links = [(j, float(w)) for (j, _), w in zip(near, tws)]
        self._temp.append(
            {"xy": xy, "tri": ti, "nodes": nodes, "weights": ws, "temps": temp_links}
        )
        return self.n_nodes + len(self._temp) - 1

    def clear_temp(self):
        self._temp = []
        self._cache = {k: v for k, v in self._cache.items() if k[1] == 0}
        self._cache_order = [k for k in self._cache_order if k[1] == 0]
        self._aug = None

    # -- oracle interface -------------------------------------------------

    def _matrix(self):
        """Base graph, augmented with any temporary nodes."""
        if not self._temp:
            return self.graph
        if getattr(self, "_aug", None) is not None and self._aug[0] == len(self._temp):
            return self._aug[1]
        t = len(self._temp)
        rows, cols, ws = [], [], []
        trows, tcols, tws = [], [], []
        for i, entry in enumerate(self._temp):
            for node, w in zip(entry["nodes"], entry["weights"]):
                rows.append(node)
                cols.append(i)
                ws.append(float(w))
            for j, w in entry["temps"]:
                trows.extend([i, j])
                tcols.extend([j, i])
                tws.extend([w, w])
        from scipy.sparse import bmat

        B = coo_matrix((ws, (rows, cols)), shape=(self.n_nodes, t))
        TT = coo_matrix((tws, (trows, tcols)), shape=(t, t)) if tws else None
        aug = bmat([[self.graph, B], [B.T, TT]], format="csr")
        self._aug = (t, aug)
        return aug

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
        """Distances refined by continuous curve shortening.

        The graph distance and the relaxed-curve length are both genuine
        curve lengths of the interpolated map, hence upper bounds on the
        induced distance; their minimum strips the lateral staircase excess
        of pure graph paths.
        """
        p, targets = int(p), [int(q) for q in targets]
        if p >= self.n_vertices or any(q >= self.n_vertices for q in targets):
            return self.distance_rows([p], targets)[0]
        dist, _ = self._solve(p)
        out = [
            0.0 if q == p else min(float(dist[q]), float(self._shorten_curve(p, q)[1][-1]))
            for q in targets
        ]
        return self._fiber_post([p], targets, [out])[0]

    def distance_rows(self, sources, targets):
        """Distance matrix with all source-target curves relaxed in one batch."""
        sources = [int(s) for s in sources]
        targets = [int(q) for q in targets]
        graph_rows = []
        for s in sources:
            dist, _ = self._solve(s)
            graph_rows.append([float(dist[q]) for q in targets])
        sxy = np.array([self._node_pos(s) for s in sources])
        txy = np.array([self._node_pos(q) for q in targets])
        S = np.repeat(sxy, len(targets), axis=0)
        E = np.tile(txy, (len(sources), 1))
        same = np.linalg.norm(E - S, axis=1) < 1e-14
        lens = self._relax_curves(S, E).reshape(len(sources), len(targets))
        same = same.reshape(len(sources), len(targets))
        out = [
            [
                0.0 if same[i][j] else min(graph_rows[i][j], float(lens[i][j]))
                for j in range(len(targets))
            ]
            for i in range(len(sources))
        ]
        return self._fiber_post(sources, targets, out)

    def geodesic(self, p, q, t: float):
        """Temporary node at arclength fraction t of the shortened p-q curve."""
        if t <= 0.0:
            return int(p)
        if t >= 1.0:
            return int(q)
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
        Results are cached per endpoint pair.
        """
        key, flip = ((p, q), False) if p <= q else ((q, p), True)
        if key not in self._curves:
            self._curves[key] = self._shorten_curve_impl(*key)
            self._curve_order.append(key)
            if len(self._curve_order) > 16:
                del self._curves[self._curve_order.pop(0)]
        xy, arcs = self._curves[key]
        if flip:
            xy = xy[::-1]
            arcs = arcs[-1] - arcs[::-1]
        return xy, arcs

    def _shorten_curve_impl(self, a, b):
        dist, pred = self._solve(a, base=True)
        path = [int(b)]
        while path[-1] != int(a):
            nxt = int(pred[path[-1]])
            if nxt < 0:
                raise ValueError("nodes are not connected")
            path.append(nxt)
        path.reverse()
        arcs = np.asarray(dist[path])
        xy = self.node_xy[path]
        total = float(arcs[-1])
        n_target = int(np.clip(np.ceil(total / (0.5 * self._disc_h)), 8, 128))

        def resample(points, n_seg):
            seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
            s = np.concatenate([[0.0], np.cumsum(seg)])
            s_new = np.linspace(0.0, s[-1], n_seg + 1)
            return np.column_stack(
                [np.interp(s_new, s, points[:, 0]), np.interp(s_new, s, points[:, 1])]
            )

        # Coarse-to-fine: pointwise transverse relaxation damps only short
        # lateral wavelengths, while the staircase bias of the initial graph
        # path is long-wavelength; relaxing a coarse polyline first makes
        # those modes short relative to the spacing.
        n_seg = min(8, n_target)
        pts = resample(np.column_stack([xy[:, 0], xy[:, 1]]), n_seg)
        step0 = 0.5 * self._disc_h
        while True:
            pts = self._relax_batch(pts[None, :, :], step0)[0]
            if n_seg >= n_target:
                break
            n_seg = min(2 * n_seg, n_target)
            pts = resample(pts, n_seg)
            # Finer stages only clean up what resampling reintroduced.
            step0 = 0.25 * self._disc_h
        seg = self._xy_segment_weights(pts[:-1], pts[1:])
        return pts, np.concatenate([[0.0], np.cumsum(seg)])

    def _relax_batch(self, pts, step0, span=1, levels=10, shrink=0.5, passes=2):
        """Transverse red-black descent of the sampled image length.

        `pts` holds a batch of polylines (curves, points, xy); curves do not
        interact, so all are relaxed in the same vectorized sweeps. Each
        point is tested against the chord of its neighbors `span` points
        away (red-black by span-block parity).
        """
        n_curves, n_pts, _ = pts.shape
        n_seg = n_pts - 1
        rel_offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        step = step0
        idle_levels = 0
        all_idxs = np.arange(1, n_seg)
        for _ in range(levels):
            moved = False
            for _pass in range(passes):
                for parity in (1, 0):
                    idxs = all_idxs[(all_idxs // span) % 2 == parity]
                    if idxs.size == 0:
                        continue
                    prev = pts[:, np.maximum(idxs - span, 0)].reshape(-1, 2)
                    nxt = pts[:, np.minimum(idxs + span, n_seg)].reshape(-1, 2)
                    chord = nxt - prev
                    norms = np.linalg.norm(chord, axis=1, keepdims=True)
                    nrm = np.column_stack([-chord[:, 1], chord[:, 0]])
                    nrm /= np.maximum(norms, 1e-15)
                    base = pts[:, idxs].reshape(-1, 2)
                    m = len(base)
                    cands = (
                        base[None, :, :]
                        + (rel_offsets * step)[:, None, None] * nrm[None, :, :]
                    ).reshape(-1, 2)
                    _, bb = self._locate_many(cands)
                    inside = bb.min(axis=1) >= -1e-9
                    # Longer spans need proportionally more length samples or
                    # the chord-length noise swamps the lateral signal.
                    w = self._xy_segment_weights(
                        np.vstack([np.tile(prev, (len(rel_offsets), 1)), cands]),
                        np.vstack([cands, np.tile(nxt, (len(rel_offsets), 1))]),
                        samples=min(self.chord_samples * span, 32),
                    )
                    half = len(cands)
                    vals = (w[:half] + w[half:]).reshape(len(rel_offsets), m)
                    vals[~inside.reshape(len(rel_offsets), m)] = np.inf
                    best = np.argmin(vals, axis=0)
                    ar = np.arange(m)
                    off = rel_offsets[best] * step
                    # Sub-probe parabolic refinement; without it, corrections
                    # smaller than the probe spacing never happen and smooth
                    # lateral modes stall at the quantization floor.
                    inner = (best >= 1) & (best <= len(rel_offsets) - 2)
                    bi = np.where(inner, best, 2)
                    vm = np.nan_to_num(vals[bi - 1, ar], posinf=0.0)
                    vb = vals[bi, ar]
                    vp = np.nan_to_num(vals[bi + 1, ar], posinf=0.0)
                    finite = np.isfinite(vals[bi - 1, ar]) & np.isfinite(
                        vals[bi + 1, ar]
                    )
                    denom = vm - 2.0 * vb + vp
                    ok = inner & finite & (denom > 1e-18)
                    shift = np.where(
                        ok, 0.5 * (vm - vp) / np.where(ok, denom, 1.0), 0.0
                    )
                    probe = 0.5 * step  # probe spacing
                    off = off + np.clip(shift * probe, -probe, probe)
                    off = np.where(np.isfinite(vals[best, ar]), off, 0.0)
                    # Over-relaxation: pointwise descent damps a lateral mode
                    # of wavelength w only at rate ~(spacing/w)^2 per sweep;
                    # SOR turns that into ~spacing/w. Scaled moves that leave
                    # the disc fall back to the probe-checked move.
                    sor = np.clip(1.8 * off, -step, step)
                    sor_pts = base + sor[:, None] * nrm
                    _, sb = self._locate_many(sor_pts)
                    off = np.where(sb.min(axis=1) >= -1e-9, sor, off)
                    if np.max(np.abs(off)) > 1e-4 * self._disc_h:
                        moved = True
                    pts[:, idxs] = (base + off[:, None] * nrm).reshape(
                        n_curves, len(idxs), 2
                    )
            # Two idle levels in a row at fine step: every point is within
            # the smallest probe of its optimum; stop shrinking. At coarse
            # steps idleness only means the probes overshoot the error.
            idle_levels = 0 if moved else idle_levels + 1
            if idle_levels >= 2 and step < 0.05 * self._disc_h:
                break
            step *= shrink
        return pts

    def _relax_curves(self, starts_xy, ends_xy):
        """Relaxed-curve image lengths between many xy pairs (straight init)."""
        S = np.asarray(starts_xy, dtype=float)
        E = np.asarray(ends_xy, dtype=float)
        span = np.linalg.norm(E - S, axis=1).max()
        n_target = int(np.clip(np.ceil(span / (0.75 * self._disc_h)), 8, 96))
        n_seg = min(8, n_target)
        lam = np.linspace(0.0, 1.0, n_seg + 1)
        pts = (1.0 - lam)[None, :, None] * S[:, None, :] + lam[None, :, None] * E[:, None, :]
        step0 = 0.5 * self._disc_h
        while True:
            pts = self._relax_batch(pts, step0)
            step0 = 0.25 * self._disc_h
            if n_seg >= n_target:
                break
            n_seg = min(2 * n_seg, n_target)
            # Arclength resampling per curve.
            seg = np.linalg.norm(np.diff(pts, axis=1), axis=2)
            s = np.concatenate([np.zeros((len(pts), 1)), np.cumsum(seg, axis=1)], axis=1)
            new = np.empty((len(pts), n_seg + 1, 2))
            for c in range(len(pts)):
                s_new = np.linspace(0.0, s[c, -1], n_seg + 1)
                new[c, :, 0] = np.interp(s_new, s[c], pts[c, :, 0])
                new[c, :, 1] = np.interp(s_new, s[c], pts[c, :, 1])
            pts = new
        w = self._xy_segment_weights(
            pts[:, :-1].reshape(-1, 2), pts[:, 1:].reshape(-1, 2)
        ).reshape(len(pts), n_seg)
        return w.sum(axis=1)

    def random_point(self, rng) -> int:
        # Sample among original mesh vertices only.
        return int(rng.integers(self.n_vertices))


def certify_induced(
    mg: MappedGraph,
    kappa: Kappa,
    triple_budget: int = 200,
    grid: int = 8,
    tolerance: float = 5e-3,
    seed: int = 0,
    refinement: int | None = None,
    steiner: int = 6,
    chord_samples: int = 4,
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
    oracle = InducedGraphSpace(mg, steiner=steiner, chord_samples=chord_samples)
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

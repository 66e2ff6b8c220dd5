"""The two curve components of the induced oracle, one per target family.

`verify.InducedGraphSpace` picks one at construction, `TreeRoutes` on tree
targets and `CurveRelaxation` on Euclidean, M_kappa and cone targets, and
asks it four things: the chain fractions of each mesh edge (`edge_fracs`); a
vertex pair's curve, now or as a group to relax (`pair_curve`); the curve
group of a block of other points, or None (`block_group`); and a last pass
over the measured rows (`finish_rows`).  Queued groups relax in one `relax`
call; where `graph_caps_pairs` is set, a vertex pair's graph distance also
bounds its entry.  A component keeps no state: each call is given the oracle,
so the oracle and its component form no reference cycle that would keep a
dropped oracle's graphs and caches alive until the garbage collector runs.
"""

import numpy as np

from .errors import GeometryError
from .spaces import TreePoint
from .steiner import CHORD_SAMPLES, _LAM

# Curve relaxation: at most RELAX_LEVELS probe-step levels of RELAX_PASSES
# red-black passes each, the step shrinking by RELAX_SHRINK per level; each
# point probes the RELAX_OFFSETS multiples of the step across its chord.
RELAX_LEVELS, RELAX_PASSES, RELAX_SHRINK = 10, 2, 0.5
RELAX_OFFSETS = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
# The weights of a chord's interior sample points at its start and its end,
# shaped to broadcast over (samples, xy); and the signs of a left normal.
_INNER_FROM, _INNER_TO = (1.0 - _LAM[1:-1])[:, None], _LAM[1:-1, None]
_LEFT = np.array([-1.0, 1.0])


class TreeRoutes:
    """Tree targets: exact breakpoint nodes and contour routes.

    Chain nodes also sit where the image geodesic of a mesh edge crosses
    tree vertices, so paths hugging a branch-point fiber hop along exact
    nodes instead of paying a detour per edge crossing.  Relaxed curves come
    out longer on trees, so nothing relaxes: a vertex pair's curve is its
    base-graph shortest path and its length is the pair's distance; any other
    entry is the graph distance.  Contour routes then shorten both kinds.
    """

    graph_caps_pairs = False

    def edge_fracs(self, oracle, fr):
        images, space = oracle.mg.images, oracle.space
        return [_chain_fracs([*fr, *space.geodesic_breakpoints(images[u], images[v])])
                for u, v in oracle.mg.mesh.edges.tolist()]

    def pair_curve(self, oracle, a, b, groups):
        """The base-graph shortest path from vertex a to b, now."""
        path, dist = oracle._graph_path(a, b)
        return oracle.node_xy[path], dist[path]

    def block_group(self, oracle, S, E):
        return None

    def _node_images(self, oracle, nodes, tri, bary):
        """Images of graph nodes, tree points; a temporary node's is the
        interpolant at its barycentrics `bary` of its triangle `tri`, where it
        lies, all of them from one `triangle_means` call."""
        out = [oracle.node_images[n] if n < oracle.n_nodes else None for n in nodes]
        temp = [i for i, n in enumerate(nodes) if n >= oracle.n_nodes]
        if temp:
            means = oracle._images_at(tri[temp], np.clip(bary[temp], 0.0, None))
            for i, (e, off) in zip(temp, means.tolist()):
                out[i] = TreePoint(*oracle.space.edges[int(e)][:2], off)
        return out

    def _edge_level_crossing(self, oracle, u, v, lam):
        """Disc point on mesh edge (u, v) whose image is lam, if any.

        The interpolant restricted to a mesh edge is the image geodesic
        with edge-proportional parameter, so the crossing is exact.
        """
        fu, fv = oracle.mg.images[u], oracle.mg.images[v]
        duv = oracle.space.distance(fu, fv)
        if duv < 1e-14:
            return None
        du = oracle.space.distance(fu, lam)
        if du > duv + 1e-9 or du + oracle.space.distance(lam, fv) > duv + 1e-9:
            return None
        t = min(max(du / duv, 0.0), 1.0)
        return (1.0 - t) * oracle.node_xy[u] + t * oracle.node_xy[v]

    def _walk_contour(self, oracle, start_tri, edge, cxy, lam, ty, y_xy):
        """March the level set lam from a crossing of mesh edge `edge` (an
        edge id) toward triangle ty, at most 4 steps per mesh triangle."""
        mesh = oracle.mg.mesh
        poly = [cxy]
        prev_edge, cur = edge, _across(mesh, edge, start_tri)
        for _ in range(4 * len(mesh.triangles)):
            if cur < 0:  # left the disc
                return None
            if cur == ty:
                return np.array(poly)
            cands = [(e, self._edge_level_crossing(oracle, *mesh.edges[e].tolist(), lam))
                     for e in mesh.tri_edges[cur].tolist() if e != prev_edge]
            cands = [c for c in cands if c[1] is not None]
            if not cands:
                return None
            # Ambiguity (non-monotone level inside a triangle) is resolved
            # toward y; any choice stays sound because every leg is measured.
            e, xy2 = min(cands, key=lambda c: float(np.linalg.norm(c[1] - y_xy)))
            poly.append(xy2)
            prev_edge, cur = e, _across(mesh, e, cur)
        return None

    def _fiber_route(self, oracle, x, y):
        """Shortest contour-following disc chain, with its arclengths, from
        x to y, each given as (disc point, image, triangle); or None.

        Follows the level set of x's image through the triangulation, then
        hops to y inside y's triangle.  Graph paths and relaxed curves pay
        for every excursion off a fiber of a tree target they hug (the
        length functional is V-shaped transversally, not quadratic); the
        marched contour has its kinks exactly on the mesh edges, so the
        only cost left is the genuine level variation.  Every leg is a
        straight disc segment sampled like any other chord, hence a sound
        upper bound whenever the march reaches y.
        """
        (x_xy, x_img, tx), (y_xy, _, ty) = x, y
        if tx == ty:
            return None
        mesh = oracle.mg.mesh
        best = None
        for e in mesh.tri_edges[tx].tolist():
            cxy = self._edge_level_crossing(oracle, *mesh.edges[e].tolist(), x_img)
            poly = None if cxy is None else self._walk_contour(oracle, tx, e, cxy, x_img, ty, y_xy)
            if poly is None:
                continue
            chain = np.vstack([x_xy[None, :], poly, y_xy[None, :]])
            arcs = _arcs(oracle._xy_segment_weights(chain[:-1], chain[1:]))
            if best is None or arcs[-1] < best[1][-1]:
                best = (chain, arcs)
        return best

    def finish_rows(self, oracle, sources, targets, out):
        """Improve measured rows with contour routes.

        A route that shortens a pair of mesh vertices becomes that pair's
        cached curve, so `geodesic` samples the curve `distance` reports.
        """
        nodes = [int(n) for n in (*sources, *targets)]
        xy = np.array([oracle._node_pos(n) for n in nodes])
        tri, bary = oracle._locate_many(xy)
        info = list(zip(xy, self._node_images(oracle, nodes, tri, bary), tri.tolist()))
        for i, x in enumerate(info[:len(sources)]):
            for j, y in enumerate(info[len(sources):]):
                cur = out[i][j]
                # Only entries at the 1-Lipschitz lower bound, up to
                # rounding, are skipped: any slack left here shows up in
                # full in geodesic samples and thinness defects.
                if cur <= oracle.space.distance(x[1], y[1]) + 1e-12:
                    continue
                routes = [self._fiber_route(oracle, x, y),
                          _reversed(self._fiber_route(oracle, y, x))]
                routes = [r for r in routes if r is not None and r[1][-1] < cur]
                if not routes:
                    continue
                route = min(routes, key=lambda r: r[1][-1])
                out[i][j] = float(route[1][-1])
                s, q = int(sources[i]), int(targets[j])
                if max(s, q) < oracle.n_vertices:
                    key = (min(s, q), max(s, q))
                    oracle._keep_curve(key, *(route if s < q else _reversed(route)))
        return out


class CurveRelaxation:
    """Euclidean, M_kappa and cone targets: curves shortened by relaxation.

    Chain nodes sit at the Steiner fractions alone.  A graph path only
    locates a geodesic to the Steiner spacing (its node chain staircases),
    so a vertex pair's curve is its graph path relaxed by curve shortening of
    the sampled image length; any other block relaxes the straight segments
    between its sources and targets.  Each entry is the smaller of the graph
    distance and the relaxed-curve length.
    """

    graph_caps_pairs = True

    def edge_fracs(self, oracle, fr):
        return [_chain_fracs(fr)] * len(oracle.mg.mesh.edges)

    def pair_curve(self, oracle, a, b, groups):
        """None: the graph path from vertex a to b joins `groups`, resampled
        to the coarse stage, with the segment count it is refined to."""
        path, dist = oracle._graph_path(a, b)
        n_target = int(np.clip(np.ceil(float(dist[b]) / (0.5 * oracle._disc_h)), 8, 128))
        groups.append((_resample(oracle.node_xy[path][None], min(8, n_target)), n_target))

    def block_group(self, oracle, S, E):
        """The straight segments from rows S to rows E, coarse, and the
        segment count they are refined to; None without segments."""
        if not len(S):
            return None
        span = np.linalg.norm(E - S, axis=1).max()
        n_target = int(np.clip(np.ceil(span / (0.75 * oracle._disc_h)), 8, 96))
        lam = np.linspace(0.0, 1.0, min(8, n_target) + 1)
        pts = (1.0 - lam)[None, :, None] * S[:, None, :] + lam[None, :, None] * E[:, None, :]
        return pts, n_target

    def finish_rows(self, oracle, sources, targets, out):
        return out

    def relax(self, oracle, groups):
        """Relax (pts, n_target) groups in one batch: each group's relaxed
        polylines and their segments' image lengths, (curves, segments)."""
        relaxed = self._relax_batch(oracle, [(pts, 0.5 * oracle._disc_h, n) for pts, n in groups])
        seg = oracle._xy_segment_weights(
            np.concatenate([pts[:, :-1].reshape(-1, 2) for pts in relaxed]),
            np.concatenate([pts[:, 1:].reshape(-1, 2) for pts in relaxed]),
        )
        ends = np.cumsum([pts[:, 1:].size // 2 for pts in relaxed])[:-1]
        return [(pts, s.reshape(len(pts), -1)) for pts, s in zip(relaxed, np.split(seg, ends))]

    def _relax_batch(self, oracle, groups):
        """Relax groups of polylines, coarse to fine, in lockstep.

        `groups` holds (pts, step0, n_target) triples, pts a batch of
        polylines (curves, points, xy).  A group relaxes in stages of
        RELAX_LEVELS levels, the first from step0; a stage ends early after
        two idle levels at a fine step.  While a group has fewer than n_target
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
        h = oracle._disc_h
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
                    moved |= self._half_sweep(oracle, P, rows, steps[group], starts, chains)
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

    def _half_sweep(self, oracle, P, rows, step, starts, chains):
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
        m = len(rows)
        # The located points: previous and next neighbours, candidates
        # (probe-major), then each probe segment's interior samples.
        X = np.empty(((2 + n_off + 2 * n_off * (CHORD_SAMPLES - 1)) * m, 2))
        prev, nxt, cands = X[:m], X[m:2 * m], X[2 * m:(2 + n_off) * m]
        prev[:] = P[rows - 1]
        nxt[:] = P[rows + 1]
        base = P[rows]
        chord = nxt - prev
        norms = np.sqrt(chord[:, 0] * chord[:, 0] + chord[:, 1] * chord[:, 1])
        nrm = chord[:, ::-1] * _LEFT
        nrm /= np.maximum(norms, 1e-15)[:, None]
        np.add(base, (RELAX_OFFSETS[:, None] * step)[:, :, None] * nrm,
               out=cands.reshape(n_off, m, 2))
        between = X[(2 + n_off) * m:].reshape(2, n_off, m, CHORD_SAMPLES - 1, 2)
        ends = cands.reshape(n_off, m, 1, 2)
        np.multiply(_INNER_TO, ends, out=between[0])
        between[0] += _INNER_FROM * prev[:, None, :]
        np.multiply(_INNER_FROM, ends, out=between[1])
        between[1] += _INNER_TO * nxt[:, None, :]
        tri_idx, bary = oracle._locate_many(X)
        w = oracle._located_lengths(tri_idx, bary, chains)
        half = n_off * m
        vals = (w[:half] + w[half:]).reshape(n_off, m)
        if np.isnan(vals).any():
            raise GeometryError("NaN probe length in curve relaxation")
        vals[~(_low(bary[2 * m:2 * m + half]) >= -1e-9).reshape(n_off, m)] = np.inf
        best = np.argmin(vals, axis=0)
        off = RELAX_OFFSETS[best] * step
        # Sub-probe parabolic refinement; without it, corrections smaller
        # than the probe spacing never happen and smooth lateral modes stall
        # at the quantization floor.
        inner = (best >= 1) & (best <= n_off - 2)
        flat = vals.ravel()
        bi = np.where(inner, best, 2) * m + np.arange(m)
        vm, vb, vp = flat.take(bi - m), flat.take(bi), flat.take(bi + m)
        finite = (vm < np.inf) & (vp < np.inf)
        vm, vp = np.where(finite, vm, 0.0), np.where(finite, vp, 0.0)
        denom = vm - 2.0 * vb + vp
        ok = inner & finite & (denom > 1e-18)
        shift = np.where(ok, 0.5 * (vm - vp) / np.where(ok, denom, 1.0), 0.0)
        probe = 0.5 * step  # probe spacing
        off = off + np.minimum(np.maximum(shift * probe, -probe), probe)
        off = np.where(vals.min(axis=0) < np.inf, off, 0.0)
        # Over-relaxation: pointwise descent damps a lateral mode of
        # wavelength w only at rate ~(spacing/w)^2 per sweep; SOR turns that
        # into ~spacing/w. Scaled moves that leave the disc fall back to the
        # probe-checked move.
        sor = np.minimum(np.maximum(1.8 * off, -step), step)
        _, sb = oracle._locate_many(base + sor[:, None] * nrm)
        off = np.where(_low(sb) >= -1e-9, sor, off)
        P[rows] = base + off[:, None] * nrm
        return np.maximum.reduceat(np.abs(off), starts) > 1e-4 * oracle._disc_h


def _chain_fracs(fr):
    """Chain-node fractions of one edge: those in (1e-9, 1 - 1e-9), sorted,
    each more than 1e-9 above the one before."""
    kept = []
    for f in sorted(f for f in fr if 1e-9 < f < 1.0 - 1e-9):
        if not kept or f - kept[-1] > 1e-9:
            kept.append(f)
    return kept


def _across(mesh, e, t):
    """The triangle across mesh edge e from triangle t, or -1."""
    a, b = mesh.edge_tris[e].tolist()
    return b if a == t else a


def _arcs(seg):
    """Arclengths at the points of a polyline with segment lengths seg."""
    return np.concatenate([[0.0], np.cumsum(seg)])


def _reversed(curve):
    """A (disc polyline, arclengths) curve traversed backwards, or None."""
    if curve is None:
        return None
    xy, arcs = curve
    return xy[::-1], arcs[-1] - arcs[::-1]


def _low(bary):
    """The smallest of each row of barycentric coordinates."""
    return np.minimum(np.minimum(bary[:, 0], bary[:, 1]), bary[:, 2])


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

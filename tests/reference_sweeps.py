"""Gauss-Seidel barycenter and Fermat-point sweeps written against the
`TargetSpace` interface only, as independent references for harmonic maps
and length minimizers."""


def barycenter_sweep(mesh, space, images):
    """One sweep over the interior vertices of `mesh` in ascending order,
    each moved in place to the barycenter of its neighbors' `images`;
    returns the largest move."""
    nbrs = {v: [] for v in mesh.interior_vertices()}
    for u, v in mesh.edges.tolist():
        for x, y in ((u, v), (v, u)):
            if x in nbrs:
                nbrs[x].append(y)
    worst = 0.0
    for v, nb in nbrs.items():
        new = space.barycenter([images[u] for u in nb])
        worst = max(worst, space.distance(images[v], new))
        images[v] = new
    return worst


def fermat_sweep(graph, space, images, fixed):
    """One sweep over the vertices of `graph` outside `fixed` in ascending
    order, each moved in place to the Fermat point of its neighbors'
    `images`; returns the largest move."""
    nbrs = {v: [] for v in range(graph.n_vertices) if v not in fixed}
    for u, v in graph.edges.tolist():
        for x, y in ((u, v), (v, u)):
            if x in nbrs:
                nbrs[x].append(y)
    worst = 0.0
    for v, nb in nbrs.items():
        new = space.fermat_point([images[u] for u in nb])
        worst = max(worst, space.distance(images[v], new))
        images[v] = new
    return worst

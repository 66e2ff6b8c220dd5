"""Per-layer tracing of catdisc from outside the package.

The tracer wraps public functions and methods where their callers look them
up (module globals such as ``catdisc.verify.dijkstra``, or methods on the
backend classes) and records, per layer, the number of calls, the inclusive
time of the outermost spans and the self time.  A span's self time is its
duration minus the durations of the wrapped calls nested directly inside it,
so self times of all layers add up to the traced time without overlap.

Wrappers are installed only for the duration of a traced round and removed
again, so untraced rounds and the correctness checks run the original code.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

import catdisc.cli
import catdisc.constructions
import catdisc.induced
import catdisc.mesh
import catdisc.minimize
import catdisc.model
import catdisc.polyhedral
import catdisc.spaces
import catdisc.verify

MODULES = (
    catdisc.cli,
    catdisc.constructions,
    catdisc.induced,
    catdisc.mesh,
    catdisc.minimize,
    catdisc.model,
    catdisc.polyhedral,
    catdisc.spaces,
    catdisc.verify,
)

# Unit of every per-layer metric; counts, times and ratios are per round.
PER_LAYER_UNITS = {
    "model.calls": "count",
    "model.self_s": "s",
    "spaces.model.self_s": "s",
    "spaces.cone.self_s": "s",
    "verify.thinness.triples": "count",
    "verify.thinness.skipped": "count",
    "verify.thinness.samples": "count",
    "verify.thinness.self_s": "s",
    "verify.thinness.used_ratio": "ratio",
    "verify.oracle.build_s": "s",
    "verify.oracle.nodes": "count",
    "verify.oracle.edges": "count",
    "verify.oracle.queries": "count",
    "verify.oracle.pairs": "count",
    "verify.oracle.query_s": "s",
    "verify.oracle.geodesic_calls": "count",
    "verify.oracle.geodesic_s": "s",
    "verify.dijkstra.calls": "count",
    "verify.dijkstra.s": "s",
    "verify.dijkstra.per_query": "calls/query",
    "spaces.tree.calls": "count",
    "spaces.tree.self_s": "s",
    "spaces.tree.bary_rows": "count",
    "spaces.tree.bary_rows_s": "s",
    "constructions.harmonic.sweeps": "count",
    "constructions.harmonic.self_s": "s",
    "constructions.harmonic.s_per_sweep": "s/sweep",
    "spaces.euclid.calls": "count",
    "spaces.euclid.fermat_calls": "count",
    "spaces.euclid.fermat_s": "s",
    "minimize.relax.sweeps": "count",
    "minimize.relax.self_s": "s",
    "minimize.relax.s_per_sweep": "s/sweep",
    "minimize.angles.self_s": "s",
    "mesh.neighbors.calls": "count",
    "mesh.neighbors.s": "s",
    "induced.self_s": "s",
    "polyhedral.build_s": "s",
    "polyhedral.lipschitz_s": "s",
    "polyhedral.distance_calls": "count",
    "cli.self_s": "s",
}

SPACE_METHODS = (
    "distance", "geodesic", "random_point", "barycenter", "curve_length",
    "spread", "point", "vertex_point", "geodesic_breakpoints",
)


@dataclass
class LayerStats:
    calls: int = 0
    # Calls not nested inside a call of the same layer.
    outer_calls: int = 0
    # Inclusive time of spans not nested inside a span of the same layer.
    incl_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0) + value


# Counter hooks run after each wrapped call with the call's arguments
# (`self` first for methods) and result; `outer` is False when the call is
# nested inside another call of the same layer.


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_thinness(stats, outer, args, kwargs, out):
    if out is None:
        stats.add("skipped", 1)
    else:
        stats.add("triples", 1)
        stats.add("samples", len(out))


def _count_oracle_build(stats, outer, args, kwargs, out):
    oracle = args[0]
    stats.add("nodes", oracle.n_nodes)
    stats.add("edges", oracle.graph.nnz)


def _count_query_pairs(method):
    def hook(stats, outer, args, kwargs, out):
        if not outer:
            return
        if method == "distance":
            stats.add("pairs", 1)
        elif method == "distances_from":
            stats.add("pairs", len(_arg(args, kwargs, 2, "targets")))
        else:
            stats.add("pairs", len(_arg(args, kwargs, 1, "sources"))
                      * len(_arg(args, kwargs, 2, "targets")))
    return hook


def _count_sweeps(stats, outer, args, kwargs, out):
    stats.add("sweeps", out.sweeps)


def _count_bary_rows(stats, outer, args, kwargs, out):
    stats.add("rows", len(_arg(args, kwargs, 2, "weight_rows")))


class Tracer:
    """Span timer over one traced round; `install` and `uninstall` bracket it."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self._stack: list[list] = []  # [time of nested spans] per open span
        self._depth: dict[str, int] = {}
        self._patched: list[tuple] = []

    def reset(self):
        self.layers = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, fn, hook=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = tracer.layers.get(layer)
            if stats is None:
                stats = tracer.layers[layer] = LayerStats()
            outer = tracer._depth.get(layer, 0) == 0
            tracer._depth[layer] = tracer._depth.get(layer, 0) + 1
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._stack.pop()
                tracer._depth[layer] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                stats.calls += 1
                stats.self_s += dt - frame[0]
                if outer:
                    stats.outer_calls += 1
                    stats.incl_s += dt
            if hook is not None:
                hook(stats, outer, args, kwargs, out)
            return out

        return wrapper

    def _patch_function(self, layer: str, original, hook=None, modules=MODULES):
        """Replace `original` in each of `modules` that binds it."""
        wrapped = self._wrap(layer, original, hook)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, name, value, True))
                    setattr(mod, name, wrapped)

    def _patch_method(self, layer: str, cls, name: str, hook=None):
        own = name in vars(cls)
        original = vars(cls)[name] if own else getattr(cls, name)
        self._patched.append((cls, name, original, own))
        setattr(cls, name, self._wrap(layer, original, hook))

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        sp, vf = catdisc.spaces, catdisc.verify
        model_fns = [
            fn for name, fn in vars(catdisc.model).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == "catdisc.model"
        ]
        for fn in model_fns:
            self._patch_function("model", fn)
        for layer, cls in (
            ("spaces.model", sp.ModelSpace),
            ("spaces.cone", sp.FlatCone),
            ("spaces.tree", sp.MetricTree),
            ("spaces.euclid", sp.EuclideanSpace),
        ):
            for name in SPACE_METHODS + ("fermat_point",):
                if not hasattr(cls, name):
                    continue
                if cls is sp.EuclideanSpace and name == "fermat_point":
                    self._patch_method("spaces.euclid.fermat", cls, name)
                else:
                    self._patch_method(layer, cls, name)
        self._patch_method(
            "spaces.tree.bary_rows", sp.MetricTree, "barycenter_rows",
            _count_bary_rows,
        )
        self._patch_function("verify.thinness", vf.thinness_defect, _count_thinness)
        for fn in (vf.certify_cat, vf.certify_induced, vf.recompare):
            self._patch_function("verify.thinness", fn)
        G = vf.InducedGraphSpace
        self._patch_method("verify.oracle.build", G, "__init__", _count_oracle_build)
        for name in ("distance", "distances_from", "distance_rows"):
            self._patch_method("verify.oracle.query", G, name, _count_query_pairs(name))
        self._patch_method("verify.oracle.geodesic", G, "geodesic")
        # Only the oracle's Dijkstra; induced and polyhedral bind the same
        # scipy function for their own graphs.
        self._patch_function("verify.dijkstra", vf.dijkstra, modules=(vf,))
        self._patch_function(
            "constructions.harmonic", catdisc.constructions.harmonic_relax,
            _count_sweeps,
        )
        self._patch_function("minimize.relax", catdisc.minimize.relax_graph, _count_sweeps)
        self._patch_function("minimize.angles", catdisc.minimize.vertex_angle_sums)
        for name in ("neighbors", "cyclic_neighbors"):
            self._patch_method("mesh.neighbors", catdisc.mesh.DiscMesh, name)
        ind = catdisc.induced
        for fn in (
            ind.vertex_distance_table, ind.induced_length_metric,
            ind.quotient_is_monotone, ind.connecting_metric_pairs,
            ind.connecting_metric, ind.compare_metrics,
        ):
            self._patch_function("induced", fn)
        self._patch_method("induced", ind.QuotientMetric, "distance")
        poly = catdisc.polyhedral
        self._patch_function("polyhedral.build", poly.build_polyhedral_disc)
        self._patch_function("polyhedral.lipschitz", poly.lipschitz_check)
        self._patch_method("polyhedral.distance", poly.SteinerComplexGraph, "distance_rows")
        self._patch_function("cli", catdisc.cli.main)

    def uninstall(self):
        for owner, name, original, own in reversed(self._patched):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patched = []
        self._stack = []
        self._depth = {}

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        L = self.layers
        get = lambda layer: L.get(layer, LayerStats())
        cnt = lambda layer, name: get(layer).counters.get(name, 0)
        ratio = lambda a, b: a / b if b else 0.0
        tree, rows = get("spaces.tree"), get("spaces.tree.bary_rows")
        euclid, fermat = get("spaces.euclid"), get("spaces.euclid.fermat")
        thin = get("verify.thinness")
        query, geo = get("verify.oracle.query"), get("verify.oracle.geodesic")
        dij = get("verify.dijkstra")
        harm, relax = get("constructions.harmonic"), get("minimize.relax")
        triples, skipped = cnt("verify.thinness", "triples"), cnt("verify.thinness", "skipped")
        return {
            "model.calls": get("model").calls,
            "model.self_s": get("model").self_s,
            "spaces.model.self_s": get("spaces.model").self_s,
            "spaces.cone.self_s": get("spaces.cone").self_s,
            "verify.thinness.triples": triples,
            "verify.thinness.skipped": skipped,
            "verify.thinness.samples": cnt("verify.thinness", "samples"),
            "verify.thinness.self_s": thin.self_s,
            "verify.thinness.used_ratio": ratio(triples, triples + skipped),
            "verify.oracle.build_s": get("verify.oracle.build").incl_s,
            "verify.oracle.nodes": cnt("verify.oracle.build", "nodes"),
            "verify.oracle.edges": cnt("verify.oracle.build", "edges"),
            "verify.oracle.queries": query.outer_calls,
            "verify.oracle.pairs": cnt("verify.oracle.query", "pairs"),
            "verify.oracle.query_s": query.incl_s,
            "verify.oracle.geodesic_calls": geo.calls,
            "verify.oracle.geodesic_s": geo.incl_s,
            "verify.dijkstra.calls": dij.calls,
            "verify.dijkstra.s": dij.incl_s,
            "verify.dijkstra.per_query": ratio(
dij.calls, query.outer_calls + geo.calls),
            "spaces.tree.calls": tree.calls + rows.calls,
            "spaces.tree.self_s": tree.self_s + rows.self_s,
            "spaces.tree.bary_rows": cnt("spaces.tree.bary_rows", "rows"),
            "spaces.tree.bary_rows_s": rows.incl_s,
            "constructions.harmonic.sweeps": cnt("constructions.harmonic", "sweeps"),
            "constructions.harmonic.self_s": harm.self_s,
            "constructions.harmonic.s_per_sweep": ratio(
                harm.incl_s, cnt("constructions.harmonic", "sweeps")
            ),
            "spaces.euclid.calls": euclid.calls + fermat.calls,
            "spaces.euclid.fermat_calls": fermat.calls,
            "spaces.euclid.fermat_s": fermat.incl_s,
            "minimize.relax.sweeps": cnt("minimize.relax", "sweeps"),
            "minimize.relax.self_s": relax.self_s,
            "minimize.relax.s_per_sweep": ratio(
                relax.incl_s, cnt("minimize.relax", "sweeps")
            ),
            "minimize.angles.self_s": get("minimize.angles").self_s,
            "mesh.neighbors.calls": get("mesh.neighbors").calls,
            "mesh.neighbors.s": get("mesh.neighbors").incl_s,
            "induced.self_s": get("induced").self_s,
            "polyhedral.build_s": get("polyhedral.build").incl_s,
            "polyhedral.lipschitz_s": get("polyhedral.lipschitz").incl_s,
            "polyhedral.distance_calls": get("polyhedral.distance").calls,
            "cli.self_s": get("cli").self_s,
        }

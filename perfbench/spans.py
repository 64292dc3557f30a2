"""Span tracing of ringmat from outside the package.

`Tracer.install` wraps the public functions of every layer module, plus a
few methods of the matrix and ring classes, and puts each wrapper into
every ringmat module namespace that bound the original (so
`from .smith import inner_rank` in graph, codes and cli is traced too).
A span records (name, start, end, parent) in flat arrays kept in memory;
`write` dumps them as JSON lines at the end.  A layer's self time is its
spans' duration minus the time covered by their child spans.  A call made
while a span of the same name is open is folded into the open span, so
recursion (snf on a transpose, the JSON writer) counts once.

Counts that happen inside loops the wrappers cannot see are derived from
arguments and results: pairs checked by is_clique, edges checked by
color_graph, matrices enumerated by a census, vertices of materialized
graphs.  Kernel cache statistics come from `cache_info()`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

LAYERS = ("ring", "matrix", "smith", "orbits", "graph", "cliques", "codes", "oracle", "io", "cli")

# Span names shared by several functions.  Every public function of cli is
# part of the one span "cli.main".
ALIASES = {
    "graph.exact_clique_number": "graph.exact_search",
    "graph.exact_independence_number": "graph.exact_search",
    **{f"io.{f}": "io.load" for f in ("load_matrix", "load_family", "load_matrices_csv",
                                       "matrix_from_obj", "family_from_obj", "matrix_from_csv_line")},
    **{f"io.{f}": "io.dump" for f in ("dumps_compact", "save_matrix", "save_family", "family_to_obj",
                                       "code_to_obj", "matrix_to_obj", "matrix_to_csv_line")},
}

# (layer, class, method, span name)
METHODS = (
    ("matrix", "Mat", "__init__", "matrix.mat_new"),
    ("matrix", "Mat", "__matmul__", "matrix.matmul"),
    ("matrix", "Mat", "is_invertible", "matrix.is_invertible"),
    ("ring", "RingSpec", "crt", "ring.crt"),
)

# Per-layer metrics reported by a traced run, with units and direction.
SPAN_METRICS = (
    "ring.ring_spec.self_s", "ring.factor_modulus.calls", "ring.factor_modulus.self_s",
    "ring.crt.calls", "ring.crt.self_s",
    "matrix.mat_new.calls", "matrix.mat_new.self_s", "matrix.matmul.calls", "matrix.matmul.self_s",
    "matrix.crt_lift_mat.self_s", "matrix.is_invertible.self_s",
    "smith.snf.calls", "smith.snf.self_s", "smith.verify_smith_form.self_s",
    "smith.inner_rank.calls", "smith.inner_rank.self_s", "smith.rank_via_projections.self_s",
    "orbits.census_by_enumeration.calls", "orbits.census_by_enumeration.self_s",
    "orbits.verify_orbit_product.self_s",
    "graph.build_graph.self_s", "graph.check_connectivity.self_s", "graph.exact_search.self_s",
    "graph.adjacent.calls",
    "cliques.is_clique.calls", "cliques.is_clique.self_s", "cliques.build_canonical_clique.self_s",
    "cliques.classify_max_clique.self_s", "cliques.verify_ekr.self_s",
    "codes.mrd_code.calls", "codes.mrd_code.self_s", "codes.verify_distance.calls",
    "codes.verify_distance.self_s", "codes.color_graph.self_s", "codes.clique_cover_complement.self_s",
    "oracle.exact_clique.self_s", "oracle.exact_mis.self_s",
    "io.load.self_s", "io.dump.self_s",
    "cli.main.self_s",
)
COUNTERS = ("orbits.matrices_enumerated", "graph.vertices_materialized", "cliques.pairs_checked",
            "codes.edges_checked")
KERNEL = ("smith.kernel.calls", "smith.kernel.misses", "smith.kernel.hit_ratio", "smith.kernel.cache_entries")
OVERHEAD = "trace.overhead_s"


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


PER_LAYER = (
    [(m, _unit(m), "lower") for m in SPAN_METRICS + COUNTERS]
    + [(m, _unit(m), "higher" if m.endswith("hit_ratio") else "lower") for m in KERNEL]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [(OVERHEAD, "s", "lower")]
)


def _count_census(tr, args, result):
    tr.counters["orbits.matrices_enumerated"] += result.total


def _count_graph(tr, args, result):
    if result.rho is not None:
        tr.counters["graph.vertices_materialized"] += result.spec.n_vertices
        tr.last_graph = result


def _count_pairs(tr, args, result):
    spec, family = args[0], args[1]
    if hasattr(family, "__len__"):
        n = len(family)
        tr.counters["cliques.pairs_checked"] += n * (n - 1) // 2 * spec.ring.t


def _count_edges(tr, args, result):
    g = tr.last_graph
    if result.verification == "edges" and g is not None and g.spec == result.spec:
        tr.counters["codes.edges_checked"] += result.spec.n_vertices * len(g.connection_ids)


DERIVED = {
    "orbits.census_by_enumeration": _count_census,
    "graph.build_graph": _count_graph,
    "cliques.is_clique": _count_pairs,
    "codes.color_graph": _count_edges,
}


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall, report."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []        # open span indexes
        self.child_time: list[float] = []  # time covered by children, per open span
        self.open_names: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.last_error: dict[str, BaseException] = {}
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}
        self.last_graph = None
        self._undo: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------------

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        self.stack.pop()
        covered = self.child_time.pop()
        dur = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - covered
        self.calls[name] = self.calls.get(name, 0) + 1
        self.open_names[name] -= 1
        if self.child_time:
            self.child_time[-1] += dur

    def _failed(self, name: str, exc: BaseException) -> None:
        """Count an exception once per layer it leaves, however many spans it crosses."""
        layer = name.split(".", 1)[0]
        if self.last_error.get(layer) is not exc:
            self.last_error[layer] = exc
            self.errors[layer] += 1

    def wrap(self, name: str, fn):
        tracer = self
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        derive = DERIVED.get(name)
        self.open_names.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.open_names[name]:
                return fn(*args, **kwargs)
            tracer.open_names[name] += 1
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            tracer.child_time.append(0.0)
            start = time.perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._failed(name, exc)
                raise
            finally:
                tracer._close(idx, name, start)
            if derive is not None:
                derive(tracer, args, result)
            return result

        return wrapper

    def reset_stack(self) -> None:
        """Forget spans left open by an op interrupted at its deadline."""
        now = time.perf_counter()
        for idx in self.stack:
            self.span_end[idx] = now
        self.stack.clear()
        self.child_time.clear()
        for name in self.open_names:
            self.open_names[name] = 0

    # --- installing ----------------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "ringmat" or name.startswith("ringmat."))}
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"ringmat.{layer}"]
            for fname, obj in vars(mod).items():
                if (fname.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                key = "cli.main" if layer == "cli" else f"{layer}.{fname}"
                replace[id(obj)] = self.wrap(ALIASES.get(key, key), obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(modules[f"ringmat.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- reporting -------------------------------------------------------------------

    def metrics(self, kernel_caches) -> dict[str, float]:
        """Every per-layer metric except the overhead, which needs an untraced pass."""
        out: dict[str, float] = {}
        for m in SPAN_METRICS:
            span, _, field = m.rpartition(".")
            out[m] = self.calls.get(span, 0) if field == "calls" else self.self_s.get(span, 0.0)
        out.update(self.counters)
        infos = [c.cache_info() for c in kernel_caches]
        hits = sum(i.hits for i in infos)
        misses = sum(i.misses for i in infos)
        out["smith.kernel.calls"] = hits + misses
        out["smith.kernel.misses"] = misses
        out["smith.kernel.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["smith.kernel.cache_entries"] = sum(i.currsize for i in infos)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def write(self, path: str, origin: float) -> None:
        """One JSON object per span: name, start and end in seconds from origin, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps({
                    "i": i, "name": self.names[self.span_name[i]], "parent": self.span_parent[i],
                    "start": round(self.span_start[i] - origin, 9), "end": round(self.span_end[i] - origin, 9),
                }) + "\n")

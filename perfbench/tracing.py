"""Tracing from outside the program: wraps the public functions of each
groupgraph module, where they are defined and wherever they were imported by
name, and records spans and counters.  Nothing under src/ changes; `uninstall`
puts every original object back.

A span is (id, name, start, end, parent id, op id, self time).  A span's self
time is its duration minus the time its direct children cover; a layer's is
the sum over its spans.  Hot leaf methods and tiny helpers record counters
only (Graph.neighbors also keeps a time total, charged to the caller as child
time).  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("linalg", "graph", "group_graph", "cohomology", "theorems", "foliation", "cli",
          "generators")

# leaf helpers called once per element: counted, their time stays with the caller
COUNT_ONLY = {
    "graph.edge", "graph.edge_key", "graph.parse_edge_key", "graph.incidence_key",
    "graph.parse_incidence_key", "linalg.frac", "linalg.frac_to_json", "linalg.mat_vec",
    "linalg.vec_add", "linalg.vec_sub", "linalg.vec_neg", "linalg.zeros", "linalg.identity",
    "group_graph.GroupHom.apply", "group_graph.FiniteGroup.mul",
}
COUNT_AND_TIME = {"graph.Graph.neighbors"}
# (class, method) pairs traced besides module-level functions
METHODS = {
    "graph": [("Graph", "neighbors")],
    "group_graph": [("GroupHom", "apply"), ("FiniteGroup", "mul"), ("GroupGraph", "from_json")],
    "foliation": [("FoliationSpec", "from_json"), ("ModuliReport", "dumps")],
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []  # open span ids
        self.child: list[float] = []  # child time covered, per open span
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()  # (name, exception type) -> count
        self.work: Counter = Counter()  # exact work counts computed from call inputs
        self.op_id = None
        self._next = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            tracer.child.append(0.0)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                tracer.errors[name, type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                covered = tracer.child.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - covered
                tracer.spans.append((sid, name, start, end, parent, tracer.op_id, dur - covered))
                if hook is not None:
                    hook(tracer, args, result)
                if tracer.child:
                    # hook time is tracer overhead: charge it to no layer
                    tracer.child[-1] += perf_counter() - start

        return traced

    def _counter(self, name, fn, timed):
        calls = self.calls
        if not timed:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        tracer = self

        def timed_call(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur
                if tracer.child:
                    tracer.child[-1] += dur
        return timed_call

    def wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._counter(name, fn, timed=False)
        if name in COUNT_AND_TIME:
            return self._counter(name, fn, timed=True)
        return self._span(name, fn, HOOKS.get(name))

    def op(self, op_id, fn, *args):
        """Run one benchmark op as a root span."""
        self.op_id = op_id
        try:
            return self._span("bench.op", fn, None)(*args)
        finally:
            self.op_id = None

    # -- installing --------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"groupgraph.{layer}") for layer in LAYERS}
        package = importlib.import_module("groupgraph")
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            for cls_name, meth in METHODS.get(layer, []):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                w = self.wrap(f"{layer}.{cls_name}.{meth}", fn)
                self._set(cls, meth, staticmethod(w) if isinstance(raw, staticmethod) else w)
        # rebind every by-name import, including the package's re-exports
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
        cli = modules["cli"]
        self._set(cli, "_emit", self._span("cli._emit", cli._emit, None))
        self._set(cli, "_dump", self._span("cli._dump", cli._dump, None))
        self._set(cli, "json", _JsonProxy(cli.json, self._span("cli.json.load", cli.json.load, None)))

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- reporting ---------------------------------------------------------

    def failures(self, name) -> int:
        return sum(n for (key, _), n in self.errors.items() if key == name)

    def self_under_cli(self, names) -> float:
        """Self time of the named spans when a cli function called them."""
        name_of = {s[0]: s[1] for s in self.spans}
        return sum(s[6] for s in self.spans
                   if s[1] in names and name_of.get(s[4], "").startswith("cli."))

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, t in self.self_s.items():
            out[name.split(".", 1)[0]] += t
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "self_s": self_s}) + "\n")


class _JsonProxy:
    """Stands in for the json module inside cli, with `load` traced."""

    def __init__(self, real, load):
        self._real = real
        self.load = load

    def __getattr__(self, attr):
        return getattr(self._real, attr)


# ---------------------------------------------------------------------------
# exact work counts, computed from each call's inputs


def _h1_bruteforce_hook(tracer, args, result):
    g = args[0]
    z1 = math.prod(g.eobj[e].order for e in g.base.edges)
    tracer.work["cohomology.z1_size"] += z1
    tracer.work["cohomology.c0_size"] += math.prod(g.vobj[v].order for v in g.base.vertices)
    tracer.work["cohomology.act_applications"] += z1 * sum(
        g.vobj[v].order - 1 for v in g.base.vertices)
    if result is not None:
        tracer.work["cohomology.classes"] += result.count


def _cut_component_sizes(spec) -> list[int]:
    """Vertex counts of the cut-components, by union-find over the spec."""
    invariant = {v for v, k in spec.vertex_kind.items() if k == "invariant"}
    parent = {v: v for v in invariant}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, kind in spec.edge_kind.items():
        if kind == "singular" and e[0] in invariant and e[1] in invariant:
            parent[find(e[0])] = find(e[1])
    return list(Counter(find(v) for v in invariant).values())


def _scan_hook(tracer, args, result):
    tracer.work["foliation.scan.paths"] += sum(n * (n - 1) for n in _cut_component_sizes(args[0]))


def _tf_red_hook(tracer, args, result):
    spec = args[0]
    tracer.work["foliation.tf_red.c1_dim"] += sum(
        spec.edge_tdim.get(e, 0) for e in spec.edge_kind if spec.is_red_edge(e))


def _rref_hook(tracer, args, result):
    m = args[0]
    tracer.work["linalg.rref.cells"] += len(m) * (len(m[0]) if m else 0)


HOOKS = {
    "cohomology.h1_finite_bruteforce": _h1_bruteforce_hook,
    "foliation.scan_typed_geodesics": _scan_hook,
    "foliation.build_tf_red": _tf_red_hook,
    "linalg.rref": _rref_hook,
}

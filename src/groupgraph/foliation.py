"""Analysis of decorated dual trees of reduced foliations.

The input is a tree whose vertices are exceptional-divisor components
(invariant or dicritical) and whose edges are intersection points (singular,
nodal or regular), decorated with holonomy data: group order or infinite per
invariant vertex, periodic order or non-periodic per incidence, and the
transverse-symmetry dimensions (0 or 1) on red elements.

The analyzer computes cut-components, the red subgraph, the finite-type
verdict with witnesses, and the moduli dimension of the universal deformation
parameter space, the latter three ways with an exact agreement assertion.
`analyze(spec)` validates and cuts a spec once; every stage is a property of
the `Analysis` it returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property

from .graph import (
    Edge,
    Graph,
    GraphError,
    components,
    connected_components,
    edge,
    edge_key,
    parse_edge_key,
    path_to_json,
    path_to_root,
    validate_tree,
)
from .group_graph import GroupGraph, VectorSpace, _is_int, is_regular
from .theorems import VerificationError, HypothesisViolated, regular_h1
from . import _jsontext, linalg


class FoliationError(ValueError):
    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


VERTEX_KINDS = ("invariant", "dicritical")
EDGE_KINDS = ("singular", "nodal", "regular")


@dataclass
class FoliationSpec:
    graph: Graph
    vertex_kind: dict
    holonomy_finite: dict  # invariant vertex -> bool
    vertex_order: dict  # green invariant vertex -> order
    vertex_tdim: dict  # red invariant vertex -> 0 | 1
    edge_kind: dict
    edge_holonomy: dict  # (vertex, edge) -> {"periodic": bool, "order": int | None}
    edge_tdim: dict  # red edge -> 0 | 1
    cs_index: dict = field(default_factory=dict)

    # -- classification helpers ------------------------------------------

    def is_invariant(self, v: str) -> bool:
        return self.vertex_kind.get(v) == "invariant"

    def is_red_vertex(self, v: str) -> bool:
        return self.is_invariant(v) and self.holonomy_finite.get(v) is False

    def red_edges(self) -> frozenset:
        """Edges with a non-periodic holonomy entry, whichever vertex it names."""
        return frozenset(f for (_, f), inc in self.edge_holonomy.items() if not inc["periodic"])

    def is_red_edge(self, e: Edge) -> bool:
        return e in self.red_edges()

    def incidence(self, v: str, e: Edge) -> dict | None:
        return self.edge_holonomy.get((v, e))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        vertices = {}
        for v in self.graph.sorted_vertices():
            entry: dict = {"kind": self.vertex_kind[v]}
            if self.vertex_kind[v] == "invariant":
                if self.holonomy_finite.get(v):
                    entry["holonomy"] = {"finite": True, "order": self.vertex_order[v]}
                elif v in self.holonomy_finite:
                    entry["holonomy"] = {"finite": False, "tdim": self.vertex_tdim[v]}
            if v in self.cs_index:
                entry["cs_index"] = self.cs_index[v]
            vertices[v] = entry
        edges = {}
        for e in self.graph.sorted_edges():
            entry = {"kind": self.edge_kind[e]}
            if e in self.edge_tdim:
                entry["tdim"] = self.edge_tdim[e]
            hol = {}
            for v in e:
                inc = self.incidence(v, e)
                if inc is not None:
                    hol[v] = (
                        {"periodic": True, "order": inc["order"]}
                        if inc["periodic"]
                        else {"periodic": False}
                    )
            if hol:
                entry["holonomy"] = hol
            edges[edge_key(e)] = entry
        return {"tree": self.graph.to_json(), "vertices": vertices, "edges": edges}

    @staticmethod
    def from_json(data: dict) -> "FoliationSpec":
        try:
            graph = Graph.from_json(data["tree"])
        except (KeyError, TypeError, GraphError) as exc:
            raise FoliationError(f"bad tree: {exc}") from exc
        vertex_kind, holonomy_finite, vertex_order, vertex_tdim, cs = {}, {}, {}, {}, {}
        for v, entry in _object(data.get("vertices", {}), "vertices").items():
            kind = _object(entry, f"vertex {v!r}").get("kind")
            if kind not in VERTEX_KINDS:
                raise FoliationError(f"vertex {v!r} has unknown kind {kind!r}")
            vertex_kind[v] = kind
            hol = entry.get("holonomy")
            if hol is not None:
                if _object(hol, f"holonomy of vertex {v!r}").get("finite"):
                    holonomy_finite[v] = True
                    vertex_order[v] = hol.get("order")
                else:
                    holonomy_finite[v] = False
                    vertex_tdim[v] = hol.get("tdim")
            if "cs_index" in entry:
                cs[v] = entry["cs_index"]
        edge_kind, edge_holonomy, edge_tdim = {}, {}, {}
        for key, entry in _object(data.get("edges", {}), "edges").items():
            e = parse_edge_key(key)
            kind = _object(entry, f"edge {key!r}").get("kind")
            if kind not in EDGE_KINDS:
                raise FoliationError(f"edge {key!r} has unknown kind {kind!r}")
            edge_kind[e] = kind
            if "tdim" in entry:
                edge_tdim[e] = entry["tdim"]
            for v, inc in _object(entry.get("holonomy", {}), f"holonomy of edge {key!r}").items():
                if _object(inc, f"holonomy of edge {key!r} at {v!r}").get("periodic"):
                    edge_holonomy[(v, e)] = {"periodic": True, "order": inc.get("order")}
                else:
                    edge_holonomy[(v, e)] = {"periodic": False, "order": None}
        return FoliationSpec(
            graph, vertex_kind, holonomy_finite, vertex_order, vertex_tdim,
            edge_kind, edge_holonomy, edge_tdim, cs,
        )


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise FoliationError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


# ---------------------------------------------------------------------------
# validation


def validate(spec: FoliationSpec) -> list[str]:
    """All structural invariants; an empty list means the spec is valid."""
    out = []
    g = spec.graph
    red_edges = spec.red_edges()
    if not validate_tree(g):
        out.append("dual graph is not a tree")
    for v in g.sorted_vertices():
        kind = spec.vertex_kind.get(v)
        if kind not in VERTEX_KINDS:
            out.append(f"vertex {v}: missing or unknown kind")
            continue
        if kind == "invariant":
            if v not in spec.holonomy_finite:
                out.append(f"vertex {v}: invariant vertex needs holonomy data")
            elif spec.holonomy_finite[v]:
                n = spec.vertex_order.get(v)
                if not _is_int(n) or n < 1:
                    out.append(f"vertex {v}: finite holonomy needs a positive order")
            else:
                t = spec.vertex_tdim.get(v)
                if not _is_int(t) or t not in (0, 1):
                    out.append(f"vertex {v}: infinite holonomy needs tdim 0 or 1")
        else:
            if v in spec.holonomy_finite:
                out.append(f"vertex {v}: dicritical vertex cannot carry holonomy")
    for e in g.sorted_edges():
        key = edge_key(e)
        kind = spec.edge_kind.get(e)
        if kind not in EDGE_KINDS:
            out.append(f"edge {key}: missing or unknown kind")
            continue
        dicritical = any(spec.vertex_kind.get(v) == "dicritical" for v in e)
        if kind == "singular" and dicritical:
            out.append(f"edge {key}: dicritical-incident edge cannot be singular")
        in_cut = kind == "singular" and not dicritical
        incs = [spec.incidence(v, e) for v in e]
        if in_cut:
            if any(i is None for i in incs):
                out.append(f"edge {key}: singular edge needs holonomy at both incidences")
                continue
        else:
            if any(i is not None for i in incs):
                out.append(f"edge {key}: holonomy data outside the cut graph")
            if e in spec.edge_tdim:
                out.append(f"edge {key}: tdim outside the cut graph")
            continue
        for v in e:
            inc = spec.incidence(v, e)
            if inc["periodic"]:
                n = inc.get("order")
                if not _is_int(n) or n < 1:
                    out.append(f"edge {key}: periodic holonomy at {v} needs a positive order")
                elif (spec.is_invariant(v) and spec.holonomy_finite.get(v)
                      and _is_int(spec.vertex_order[v]) and spec.vertex_order[v] % n != 0):
                    out.append(
                        f"edge {key}: order {n} at {v} does not divide the group order "
                        f"{spec.vertex_order[v]}"
                    )
            else:
                if not spec.is_red_vertex(v):
                    out.append(
                        f"edge {key}: non-periodic holonomy at {v} forces an infinite group"
                    )
        if e in red_edges:
            for v in e:
                if not spec.is_red_vertex(v):
                    out.append(f"edge {key}: red edge with non-red endpoint {v}")
            t = spec.edge_tdim.get(e)
            if not _is_int(t) or t not in (0, 1):
                out.append(f"edge {key}: red edge needs tdim 0 or 1")
            else:
                for v in e:
                    t_v = spec.vertex_tdim.get(v, 0)
                    if spec.is_red_vertex(v) and _is_int(t_v) and t_v > t:
                        out.append(
                            f"edge {key}: tdim at {v} exceeds the edge tdim (restrictions inject)"
                        )
        else:
            if e in spec.edge_tdim:
                out.append(f"edge {key}: tdim on a green edge")
    # entries naming nothing in the tree would otherwise be silently ignored
    for v in sorted(set(spec.vertex_kind) - g.vertices):
        out.append(f"vertex {v}: not in the tree")
    for e in sorted(set(spec.edge_kind) - g.edges):
        out.append(f"edge {edge_key(e)}: not in the tree")
    for v, e in sorted(k for k in spec.edge_holonomy if k[0] not in k[1]):
        out.append(f"edge {edge_key(e)}: holonomy at {v}, which is not an endpoint")
    return out


def _require_valid(spec: FoliationSpec):
    violations = validate(spec)
    if violations:
        raise FoliationError("invalid foliation spec", violations)


# ---------------------------------------------------------------------------
# cut graph and red subgraph


def cut_graph(spec: FoliationSpec) -> tuple[Graph, list[Graph]]:
    """Drop dicritical vertices, their edges, and nodal/regular edges; the
    connected pieces of what remains are the cut-components."""
    _require_valid(spec)
    vs = frozenset(v for v in spec.graph.vertices if spec.is_invariant(v))
    es = frozenset(
        e
        for e in spec.graph.edges
        if spec.edge_kind[e] == "singular" and all(v in vs for v in e)
    )
    cut = Graph(vs, es)
    comps = [
        Graph(frozenset(cvs), frozenset(ces)) for cvs, ces in connected_components(cut)
    ]
    return cut, comps


@dataclass(frozen=True)
class Analysis:
    """One analysis of a validated spec.  The fields are what every stage
    reads: the cut-components, the red subgraph (red vertices, red cut edges)
    and its part in each component, and the iso/not-iso class of each cut
    incidence.  Each later stage is a property, computed once, on first use,
    and shared by every reader."""

    spec: FoliationSpec
    comps: list[Graph]
    red: Graph
    red_per_comp: list[Graph]
    classes: dict

    @cached_property
    def scan(self) -> list[dict]:
        """The typed geodesics of every cut-component (see `_scan`)."""
        return _scan(self)

    @cached_property
    def finite_type(self) -> tuple[str, list[dict]]:
        """The finite-type verdict, and per cut-component a report with
        witnesses.

        A component with nonempty red part must have it connected and every
        outward holonomy group generated by the edge holonomy (equal orders); a
        component with empty red part needs a certificate vertex making the same
        condition hold along the order it induces.
        """
        reports = []
        for comp, red in zip(self.comps, self.red_per_comp):
            red_vs = red.vertices
            entry = {
                "component": comp.to_json(),
                "red": red.to_json(),
                "status": "ok",
                "certificate_vertex": None,
                "witnesses": [],
            }
            if red_vs:
                red_comps = connected_components(red)
                if len(red_comps) > 1:
                    entry["status"] = "fail"
                    entry["witnesses"].append(_disconnection_witness(comp, red_comps))
                else:
                    # the red part is one subtree, so each green vertex has a
                    # unique nearest red vertex: its parent chain toward red
                    parent = comp.bfs(sorted(red_vs))
                    failures = [
                        v for v in comp.sorted_vertices()
                        if v not in red_vs and self.classes[(v, edge(v, parent[v]))] == "not-iso"
                    ]
                    if failures:
                        entry["status"] = "fail"
                        for v in failures:
                            entry["witnesses"].append(_repulsivity_witness(self, parent, v))
            else:
                cert = None
                for v in comp.sorted_vertices():
                    if _certifies(self, comp, v):
                        cert = v
                        break
                if cert is None:
                    entry["status"] = "fail"
                    entry["witnesses"].append(
                        {"type": "untyped", "reason": "no-certificate-vertex",
                         "elements": comp.sorted_vertices()}
                    )
                else:
                    entry["certificate_vertex"] = cert
            reports.append(entry)
        finite = all(entry["status"] == "ok" for entry in reports)
        return ("finite" if finite else "not-finite"), reports

    @cached_property
    def entirely_green(self) -> list[list[str]]:
        """Cut-components with no red element at all."""
        return [
            comp.sorted_vertices()
            for comp, red in zip(self.comps, self.red_per_comp)
            if not red.vertices and not red.edges
        ]

    @cached_property
    def characterization(self) -> dict:
        """Whether the finite-type verdict agrees with the exhaustive scan for
        the four forbidden geodesic shapes: finite exactly when the scan finds
        none.  The characterization assumes no entirely-green cut-component;
        with one, the status is hypothesis-violated and nothing is compared."""
        if self.entirely_green:
            return {"status": "hypothesis-violated", "consistent": None}
        finite = self.finite_type[0] == "finite"
        return {"status": "ok", "consistent": finite == (not self.scan)}

    @cached_property
    def tf_red(self) -> GroupGraph:
        """The rational vector-space graph over the red subgraph: tdims as
        dimensions, identity restrictions exactly at the iso incidences, zero
        ones elsewhere (the two agree at dimension 0)."""
        spec, red = self.spec, self.red
        vobj = {v: VectorSpace(spec.vertex_tdim[v]) for v in red.vertices}
        eobj = {e: VectorSpace(spec.edge_tdim[e]) for e in red.edges}

        def matrix(v: str, e: Edge):
            dv, de = vobj[v].dim, eobj[e].dim
            return linalg.identity(dv) if self.classes[(v, e)] == "iso" else linalg.zeros(de, dv)

        gg = GroupGraph.assemble(red, "vector", vobj, eobj, matrix)
        ok, violations = is_regular(gg)
        if not ok:
            raise VerificationError(f"restricted symmetry graph is not regular: {violations}")
        return gg


def analyze(spec: FoliationSpec) -> Analysis:
    """The analysis of a spec, validated and cut once; raises FoliationError
    listing the violations of an invalid spec."""
    cut, comps = cut_graph(spec)  # validates
    red_es = spec.red_edges()
    red = Graph(
        frozenset(v for v in cut.vertices if spec.is_red_vertex(v)),
        frozenset(e for e in cut.edges if e in red_es),
    )
    red_per_comp = [
        Graph(comp.vertices & red.vertices, comp.edges & red.edges) for comp in comps
    ]
    classes = {}
    for v, e in cut.incidences():
        if e in red.edges:
            # validation guarantees red endpoints
            classes[(v, e)] = "iso" if spec.vertex_tdim[v] == spec.edge_tdim[e] else "not-iso"
        elif v in red.vertices:
            classes[(v, e)] = "not-iso"  # finite-dimensional stalk inside an infinite one
        else:
            classes[(v, e)] = (
                "iso"
                if spec.vertex_order[v] == spec.edge_holonomy[(v, e)]["order"]
                else "not-iso"
            )
    return Analysis(spec, comps, red, red_per_comp, classes)


# ---------------------------------------------------------------------------
# finite type


def _paths_from(comp: Graph, start: str):
    """All simple paths from a vertex in a tree component, as element lists."""
    out = []

    def walk(v, path, seen):
        for n in comp.neighbors(v):
            if n in seen:
                continue
            nxt = path + [edge(v, n), n]
            out.append(nxt)
            walk(n, nxt, seen | {n})

    walk(start, [start], {start})
    return out


def _classify_path(ctx: Analysis, path: list):
    """Match a path against the four forbidden geodesic shapes (or None)."""
    red_vs, classes = ctx.red.vertices, ctx.classes
    verts = path[0::2]
    edges = path[1::2]
    if len(verts) < 2 or verts[0] not in red_vs:
        return None
    if len(verts) == 2:
        v0, v1 = verts
        e0 = edges[0]
        if v1 in red_vs:
            if e0 not in ctx.red.edges:
                return 4
            return None
        if classes[(v1, e0)] == "not-iso":
            return 2  # the red side is never an isomorphism into a green edge
        return None
    interior = verts[1:-1]
    if any(v in red_vs for v in interior):
        return None
    last_v, prev_v, last_e = verts[-1], verts[-2], edges[-1]
    if last_v in red_vs:
        return 3
    if classes[(prev_v, last_e)] == "iso" and classes[(last_v, last_e)] == "not-iso":
        return 1
    return None


def _scan(ctx: Analysis) -> list[dict]:
    found = []
    for comp in ctx.comps:
        for start in comp.sorted_vertices():
            for path in _paths_from(comp, start):
                t = _classify_path(ctx, path)
                if t is not None:
                    found.append({"type": t, "elements": path_to_json(path)})
    found.sort(key=lambda w: (w["type"], json.dumps(w["elements"])))
    return found


def _certifies(ctx: Analysis, comp: Graph, v: str) -> bool:
    """Rooted at v, every non-root vertex generates its group along the
    parent edge: its incidence there is iso."""
    return all(
        ctx.classes[(n, edge(p, n))] == "iso" for n, p in comp.bfs([v]).items() if p is not None
    )


def _disconnection_witness(comp: Graph, red_comps) -> dict:
    """A minimal geodesic between two red pieces: type 4 when adjacent,
    type 3 otherwise.  Two disjoint subtrees of a tree are joined by exactly
    one shortest path, so one BFS from the second piece of a pair finds it."""
    best = None
    for i, (vs1, _) in enumerate(red_comps):
        for vs2, _ in red_comps[i + 1:]:
            parent = comp.bfs(vs2)
            path = min((path_to_root(parent, u) for u in vs1), key=len)
            if best is None or len(path) < len(best):
                best = path
    t = 4 if len(best) == 3 else 3
    return {"type": t, "elements": path_to_json(best)}


def _repulsivity_witness(ctx: Analysis, parent: dict, bad_vertex: str) -> dict:
    """Typed witness for a failing outward condition: the geodesic read from
    the red part toward the failing vertex, when it matches a listed shape;
    otherwise the first typed geodesic of the analysis's scan, else untyped.
    `parent` is the component's parent map toward its red part."""
    path = path_to_root(parent, bad_vertex)[::-1]  # red end first
    t = _classify_path(ctx, path)
    if t is not None:
        return {"type": t, "elements": path_to_json(path)}
    if ctx.scan:
        return ctx.scan[0]
    return {"type": "untyped", "reason": "generation-failure", "elements": path_to_json(path)}


def scan_typed_geodesics(spec: FoliationSpec) -> list[dict]:
    """Exhaustive scan of every geodesic in every cut-component for the four
    forbidden shapes."""
    return analyze(spec).scan


def is_finite_type(spec: FoliationSpec) -> tuple[str, list[dict]]:
    """The finite-type verdict with witnesses (see `Analysis.finite_type`)."""
    return analyze(spec).finite_type


def characterization_crosscheck(spec: FoliationSpec) -> bool:
    """Whether the finite-type verdict agrees with the exhaustive scan for
    the four forbidden geodesic shapes.  Requires no entirely-green
    cut-component."""
    ctx = analyze(spec)
    if ctx.entirely_green:
        raise HypothesisViolated("entirely green cut-components present", ctx.entirely_green)
    return ctx.characterization["consistent"]


# ---------------------------------------------------------------------------
# the restricted transverse-symmetry graph and the moduli dimension


def build_tf_red(spec: FoliationSpec) -> GroupGraph:
    """The restricted transverse-symmetry graph (see `Analysis.tf_red`)."""
    return analyze(spec).tf_red


def _contracted_rank(tf: GroupGraph) -> int:
    """Cycle rank after collapsing the whole off-support part to one fresh
    node, None, which no vertex name equals; loops and parallel edges count."""
    def node(v):
        return v if tf.vobj[v].dim > 0 else None

    nodes = {node(v) for v in tf.base.vertices}
    links = [(node(a), node(b)) for a, b in tf.base.edges if tf.eobj[(a, b)].dim > 0]
    return len(links) - len(nodes) + len(components(nodes, links))


@dataclass
class ModuliReport:
    cut_components: list
    red_subgraph: dict
    red_components: list
    finite_type: str
    components: list
    entirely_green: list
    characterization: dict
    tf_red: dict
    moduli_dim: object  # int or "infinite"
    basis_edges: list[str]
    cs_indices: dict
    active: dict | None = None

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def dumps(self) -> str:
        return _jsontext.dumps(self.to_json())


def moduli_dimension(spec: FoliationSpec) -> ModuliReport:
    """Full analysis: verdict, and the moduli dimension computed three ways
    (active edges, cochain rank, contracted-graph cycle rank) with exact
    agreement asserted."""
    ctx = analyze(spec)
    verdict, comp_reports = ctx.finite_type
    tf = ctx.tf_red

    active_json = None
    if verdict == "finite":
        # one call sums H1 over the red forest's trees and checks it against the rank
        st, res = regular_h1(tf)
        dim_active = res.dim
        dim_contracted = _contracted_rank(tf)
        if not (dim_active == dim_contracted == len(st.a_prime)):
            raise VerificationError(
                "moduli pipelines disagree: "
                f"active={dim_active} contracted={dim_contracted} basis={len(st.a_prime)}"
            )
        moduli = dim_active
        basis = [edge_key(e) for e in st.a_prime]
        active_json = st.to_json()
    else:
        moduli = "infinite"
        basis = []

    return ModuliReport(
        cut_components=[c.to_json() for c in ctx.comps],
        red_subgraph=ctx.red.to_json(),
        red_components=[c.to_json() for c in ctx.red_per_comp],
        finite_type=verdict,
        components=comp_reports,
        entirely_green=ctx.entirely_green,
        characterization=ctx.characterization,
        tf_red=tf.to_json(),
        moduli_dim=moduli,
        basis_edges=basis,
        cs_indices=dict(sorted(spec.cs_index.items())),
        active=active_json,
    )

"""Finite undirected graphs and trees.

Vertices are opaque strings; edges are unordered pairs of distinct vertices,
canonicalized as sorted 2-tuples.  Every "choose one" step picks the
lexicographically smallest candidate so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

Edge = tuple[str, str]

# '#' and '|' are reserved by the JSON key formats.
RESERVED = set("#|")


class GraphError(ValueError):
    pass


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def edge(a: str, b: str) -> Edge:
    if a == b:
        raise GraphError(f"self-loop at {a!r}")
    return (a, b) if a < b else (b, a)


def edge_key(e: Edge) -> str:
    return f"{e[0]}#{e[1]}"


def parse_edge_key(key: str) -> Edge:
    a, sep, b = key.partition("#")
    if not sep:
        raise GraphError(f"bad edge key {key!r}")
    return edge(a, b)


def incidence_key(v: str, e: Edge) -> str:
    return f"{v}|{edge_key(e)}"


def parse_incidence_key(key: str) -> tuple[str, Edge]:
    v, sep, ek = key.partition("|")
    if not sep:
        raise GraphError(f"bad incidence key {key!r}")
    return v, parse_edge_key(ek)


@dataclass(frozen=True)
class Graph:
    vertices: frozenset[str]
    edges: frozenset[Edge]

    def __post_init__(self):
        for v in self.vertices:
            if not v or any(c in RESERVED for c in v):
                raise GraphError(f"bad vertex identifier {v!r}")
        for e in self.edges:
            a, b = e
            if a == b:
                raise GraphError(f"self-loop at {a!r}")
            if a > b:
                raise GraphError(f"edge {e} not canonicalized")
            if a not in self.vertices or b not in self.vertices:
                raise GraphError(f"edge {e} has endpoint outside the vertex set")

    @staticmethod
    def make(vertices, edges) -> "Graph":
        return Graph(frozenset(vertices), frozenset(edge(a, b) for a, b in edges))

    # The cached properties below are built on first use and stored in the
    # instance __dict__, which the frozen dataclass allows; __eq__ and __hash__
    # see only the fields.  The public methods hand out fresh lists.

    @cached_property
    def _sorted_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def _sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def _incidences(self) -> tuple[tuple[str, Edge], ...]:
        return tuple((v, e) for e in self._sorted_edges for v in e)

    def sorted_vertices(self) -> list[str]:
        return list(self._sorted_vertices)

    def sorted_edges(self) -> list[Edge]:
        return list(self._sorted_edges)

    def incidences(self) -> list[tuple[str, Edge]]:
        """The oriented-edge set: every (v, e) with v an endpoint of e."""
        return list(self._incidences)

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def neighbors(self, v: str) -> tuple[str, ...]:
        """Sorted neighbours of v; empty for a vertex outside the graph."""
        return self._adjacency.get(v, ())

    def bfs(self, sources) -> dict[str, str | None]:
        """Breadth-first search from all sources at once (FIFO, sources in the
        given order, neighbours in sorted order).  Returns the parent map of
        the reached vertices in visit order; a source's parent is None."""
        parent = dict.fromkeys(sources)
        order = list(parent)
        for cur in order:  # grows while it is walked: the FIFO queue
            for n in self.neighbors(cur):
                if n not in parent:
                    parent[n] = cur
                    order.append(n)
        return parent

    def induced(self, vertices) -> "Graph":
        vs = frozenset(vertices)
        return Graph(vs, frozenset(e for e in self.edges if e[0] in vs and e[1] in vs))

    def to_json(self) -> dict:
        return {
            "vertices": self.sorted_vertices(),
            "edges": [[a, b] for a, b in self.sorted_edges()],
        }

    @staticmethod
    def from_json(data: dict) -> "Graph":
        """The inverse of `to_json`.  Vertices must be a JSON array of strings
        and each edge an array of two strings; anything else raises
        GraphError (a string is not read as a list of one-letter names)."""
        vertices, edges = data["vertices"], data["edges"]
        if not _strings(vertices):
            raise GraphError("vertices must be an array of strings")
        if not isinstance(edges, list) or not all(_strings(e) and len(e) == 2 for e in edges):
            raise GraphError("edges must be an array of two-string arrays")
        return Graph.make(vertices, edges)


@dataclass(frozen=True)
class Tree:
    """A connected acyclic Graph; construction validates tree-ness."""

    graph: Graph

    def __post_init__(self):
        if not validate_tree(self.graph):
            raise GraphError("graph is not a tree")

    @staticmethod
    def make(vertices, edges) -> "Tree":
        return Tree(Graph.make(vertices, edges))

    @property
    def vertices(self):
        return self.graph.vertices

    @property
    def edges(self):
        return self.graph.edges


@dataclass(frozen=True)
class GraphMorphism:
    """Vertex map such that every edge maps to an edge or collapses to a vertex."""

    source: Graph
    target: Graph
    vertex_map: tuple[tuple[str, str], ...]

    @staticmethod
    def make(source: Graph, target: Graph, vertex_map: dict) -> "GraphMorphism":
        return GraphMorphism(source, target, tuple(sorted(vertex_map.items())))

    def __post_init__(self):
        vm = self._vertex_dict
        if set(vm) != set(self.source.vertices):
            raise GraphError("vertex_map domain is not the source vertex set")
        for v, w in vm.items():
            if w not in self.target.vertices:
                raise GraphError(f"vertex {v!r} maps outside the target")
        for a, b in self.source.edges:
            fa, fb = vm[a], vm[b]
            if fa != fb and edge(fa, fb) not in self.target.edges:
                raise GraphError(f"edge {(a, b)} maps to the non-edge {(fa, fb)}")

    @cached_property
    def _vertex_dict(self) -> dict[str, str]:
        # Built once, like Graph._adjacency; __eq__ and __hash__ see only the fields.
        return dict(self.vertex_map)

    def apply(self, v: str) -> str:
        return self._vertex_dict[v]

    def apply_edge(self, e: Edge):
        """Image of an edge: a target Edge, or a vertex string when collapsed."""
        fa, fb = self._vertex_dict[e[0]], self._vertex_dict[e[1]]
        return fa if fa == fb else edge(fa, fb)

    def collapses(self, e: Edge) -> bool:
        return isinstance(self.apply_edge(e), str)

    def is_identity(self) -> bool:
        return (
            self.source == self.target
            and all(v == w for v, w in self.vertex_map)
        )

    @staticmethod
    def identity(g: Graph) -> "GraphMorphism":
        return GraphMorphism.make(g, g, {v: v for v in g.vertices})

    @staticmethod
    def inclusion(sub: Graph, ambient: Graph) -> "GraphMorphism":
        if not sub.vertices <= ambient.vertices or not sub.edges <= ambient.edges:
            raise GraphError("not a subgraph inclusion")
        return GraphMorphism.make(sub, ambient, {v: v for v in sub.vertices})

    def fiber(self, v: str) -> Graph:
        """Preimage subgraph of a target vertex: source vertices and collapsed edges."""
        vs = frozenset(u for u in self.source.vertices if self.apply(u) == v)
        es = frozenset(e for e in self.source.edges if self.apply_edge(e) == v)
        return Graph(vs, es)

    def edge_fiber(self, e: Edge) -> list[Edge]:
        return sorted(f for f in self.source.edges if self.apply_edge(f) == e)


def validate_tree(g: Graph) -> bool:
    """True iff g is connected and acyclic."""
    if not g.vertices:
        return False
    if len(g.edges) != len(g.vertices) - 1:
        return False
    return len(components(g.vertices, g.edges)) == 1


def components(nodes, links) -> list[list]:
    """Connected classes of hashable nodes joined by links (pairs of nodes),
    by union-find (Tarjan, J. ACM 22, 1975).  Members keep the input order;
    the classes are ordered by their first member."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    classes: dict = {}
    for n in parent:
        classes.setdefault(find(n), []).append(n)
    return list(classes.values())


def connected_components(g: Graph) -> list[tuple[list[str], list[Edge]]]:
    """Vertex partition plus induced edge partition, ordered by smallest vertex."""
    comps = components(g.sorted_vertices(), g.edges)
    where = {v: i for i, vs in enumerate(comps) for v in vs}
    edges = [[] for _ in comps]
    for e in g.sorted_edges():
        edges[where[e[0]]].append(e)
    return list(zip(comps, edges))


def _check_subtree(t: Tree, r) -> frozenset[str]:
    rset = frozenset(r)
    if not rset:
        raise GraphError("empty subtree")
    if not rset <= t.vertices:
        raise GraphError("subtree vertices not in the tree")
    induced = t.graph.induced(rset)
    if not validate_tree(induced):
        raise GraphError("vertex set does not induce a subtree")
    return rset


def path_to_root(parent: dict, v: str) -> list:
    """Element path [v, edge, parent, ..., root] along a parent map from bfs."""
    path = [v]
    while parent[v] is not None:
        path += [edge(v, parent[v]), parent[v]]
        v = parent[v]
    return path


def path_to_json(path) -> list:
    """An element path as JSON: vertices as strings, edges as [a, b]."""
    return [c if isinstance(c, str) else [c[0], c[1]] for c in path]


def subtree_parents(t: Tree, r) -> dict[str, str | None]:
    """Parent map toward a subtree: each outside vertex maps to its neighbour
    on the geodesic to r, each vertex of r to None.  The subtree is connected,
    so the nearest vertex of r, and the first edge toward it, are unique."""
    return t.graph.bfs(sorted(_check_subtree(t, r)))


def outward_incidences(t: Tree, r) -> list[tuple[str, Edge]]:
    """(far vertex, its first edge toward the subtree), one per vertex outside
    r, in vertex order."""
    parent = subtree_parents(t, r)
    return [(v, edge(v, p)) for v, p in sorted(parent.items()) if p is not None]


def contraction_vertex_name(sub_vertices, taken=frozenset()) -> str:
    name = "+".join(sorted(sub_vertices))
    while name in taken:
        name += "+"
    return name


def contract(t: Tree, sub) -> tuple[Tree, GraphMorphism]:
    """Contract a subtree to a fresh vertex; returns the tree and the canonical map.

    Edges inside the subtree disappear; edges adjacent to it are renamed to end
    at the fresh vertex; all other edges survive unchanged.
    """
    rset = _check_subtree(t, sub)
    fresh = contraction_vertex_name(rset, t.vertices - rset)
    vm = {v: (fresh if v in rset else v) for v in t.vertices}
    new_vertices = set(vm.values())
    new_edges = set()
    for a, b in t.edges:
        fa, fb = vm[a], vm[b]
        if fa != fb:
            new_edges.add(edge(fa, fb))
    out = Tree.make(new_vertices, new_edges)
    return out, GraphMorphism.make(t.graph, out.graph, vm)

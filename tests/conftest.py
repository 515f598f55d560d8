import itertools

from dataclasses import dataclass
from fractions import Fraction

import pytest

from groupgraph import linalg
from groupgraph.cohomology import Cochain0, Cocycle1
from groupgraph.graph import (
    Graph,
    GraphError,
    GraphMorphism,
    edge,
    edge_key,
    parse_incidence_key,
    validate_tree,
)
from groupgraph.group_graph import (
    CARRIERS,
    FiniteGroup,
    GroupGraph,
    GroupGraphError,
    GroupGraphMorphism,
    GroupHom,
    SubGroupGraph,
    VectorSpace,
)


def constant_group_graph(base: Graph, obj) -> GroupGraph:
    """The same object everywhere with identity restrictions."""
    carrier = next(name for name, cls in CARRIERS.items() if isinstance(obj, cls))
    vobj = {v: obj for v in base.vertices}
    eobj = {e: obj for e in base.edges}
    restrictions = {(v, e): GroupHom.identity(obj) for v, e in base.incidences()}
    return GroupGraph(base, carrier, vobj, eobj, restrictions)


def compose_graph_morphisms(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    """outer o inner (inner applied first)."""
    if inner.target != outer.source:
        raise GraphError("morphisms do not compose")
    vm = {v: outer.apply(inner.apply(v)) for v in inner.source.vertices}
    return GraphMorphism.make(inner.source, outer.target, vm)


def identity_morphism(g: GroupGraph) -> GroupGraphMorphism:
    """The identity of a group-graph, over the identity of its base."""
    return GroupGraphMorphism(
        GraphMorphism.identity(g.base), g, g,
        {s: GroupHom.identity(g.obj(s)) for s in g.stars()},
    )


def compose_morphisms(outer: GroupGraphMorphism, inner: GroupGraphMorphism) -> GroupGraphMorphism:
    """inner applied first: outer o inner, over inner.over o outer.over."""
    if inner.target is not outer.source and inner.target.to_json() != outer.source.to_json():
        raise GroupGraphError("group-graph morphisms do not compose")
    over = compose_graph_morphisms(inner.over, outer.over)
    maps = {}
    for star in outer.target.stars():
        img = outer.over.apply(star) if isinstance(star, str) else outer.over.apply_edge(star)
        maps[star] = outer.maps[star].compose(inner.maps[img])
    return GroupGraphMorphism(over, inner.source, outer.target, maps)


def value_from_json(obj, data):
    """An element of a carrier object read from its JSON value, the inverse of
    `obj.value_to_json`; a value of the wrong form raises GroupGraphError."""
    if isinstance(obj, FiniteGroup):
        if isinstance(data, int) and not isinstance(data, bool) and 0 <= data < obj.order:
            return data
        raise GroupGraphError(f"element {data!r} is not an index below {obj.order}")
    try:
        if isinstance(data, list) and len(data) == obj.dim:
            return [linalg.frac(c) for c in data]
    except (TypeError, ValueError):
        pass
    raise GroupGraphError(f"value {data!r} is not a list of {obj.dim} rationals")


def cochain_from_json(g: GroupGraph, data: dict) -> Cochain0:
    """The inverse of `Cochain0.to_json`."""
    if set(data) != set(g.base.vertices):
        raise GroupGraphError("cochain is not total over the vertices")
    return Cochain0(g, {v: value_from_json(g.vobj[v], x) for v, x in data.items()})


def cocycle_from_json(g: GroupGraph, data: dict) -> Cocycle1:
    """The inverse of `Cocycle1.to_json`: both incidences of every edge are
    read, and a head value that is not the inverse of its tail value raises
    GroupGraphError."""
    raw = {parse_incidence_key(key): x for key, x in data.items()}
    if set(raw) != set(g.base.incidences()):
        raise GroupGraphError("cocycle is not total over the incidences")
    tail = []
    for e in g.base.sorted_edges():
        grp = g.eobj[e]
        x, y = (value_from_json(grp, raw[(v, e)]) for v in e)
        if grp.mul(x, y) != grp.identity():
            raise GroupGraphError(f"antisymmetry fails at {edge_key(e)}")
        tail.append(x)
    return Cocycle1(g, tail)


def trivial_cocycle(g: GroupGraph) -> Cocycle1:
    """The cocycle with the identity on every edge."""
    return Cocycle1(g, (g.eobj[e].identity() for e in g.base.sorted_edges()))


def is_trivial_cocycle(z: Cocycle1) -> bool:
    eobj = z.graph.eobj
    return all(x == eobj[e].identity() for e, x in zip(z.graph.base.sorted_edges(), z.tail))


def is_trivial_sub(k: SubGroupGraph) -> bool:
    """Whether a sub-group-graph is the identity (finite) or zero (vector)
    sub-object on every star."""
    if k.parent.carrier == "finite":
        return all(len(x) == 1 for x in k.subs.values())
    return all(len(x) == 0 for x in k.subs.values())


def is_abelian(grp) -> bool:
    """Whether a FiniteGroup's Cayley table is symmetric."""
    return all(grp.mul(a, b) == grp.mul(b, a) for a in range(grp.order) for b in range(a))


def vector_gg(vertices, edges, vdims, edims, mats=None):
    """Build a vector-carrier group-graph.

    mats maps (vertex, edge-pair) to a matrix; missing supported incidences
    with equal dims default to the identity, everything else to zero.
    """
    g = Graph.make(vertices, edges)
    mats = {} if mats is None else {
        (v, tuple(sorted(e))): m for (v, e), m in mats.items()
    }
    vobj = {v: VectorSpace(vdims[v]) for v in g.vertices}
    eobj = {e: VectorSpace(edims[tuple(sorted(e))]) for e in g.edges}
    restrictions = {}
    for v, e in g.incidences():
        key = (v, e)
        if key in mats:
            m = linalg.mat(mats[key])
        elif vobj[v].dim == eobj[e].dim:
            m = linalg.identity(vobj[v].dim)
        else:
            m = linalg.zeros(eobj[e].dim, vobj[v].dim)
        restrictions[key] = GroupHom(vobj[v], eobj[e], m, validate=False)
    return GroupGraph(g, "vector", vobj, eobj, restrictions)


def finite_gg(vertices, edges, vgroups, egroups, homs=None):
    """Build a finite-carrier group-graph; missing incidences default to the
    identity when the groups coincide, else to the trivial hom."""
    g = Graph.make(vertices, edges)
    homs = {} if homs is None else {
        (v, tuple(sorted(e))): h for (v, e), h in homs.items()
    }
    vobj = {v: vgroups[v] for v in g.vertices}
    eobj = {e: egroups[tuple(sorted(e))] for e in g.edges}
    restrictions = {}
    for v, e in g.incidences():
        key = (v, e)
        if key in homs:
            restrictions[key] = GroupHom(vobj[v], eobj[e], homs[key])
        elif vobj[v] == eobj[e]:
            restrictions[key] = GroupHom.identity(vobj[v])
        else:
            restrictions[key] = GroupHom.trivial(vobj[v], eobj[e])
    return GroupGraph(g, "finite", vobj, eobj, restrictions)


def act_tail(g, fam, tail):
    """Action of a vertex family on a tail tuple, every edge rebuilt."""
    out = []
    for idx, e in enumerate(g.base.sorted_edges()):
        a, b = e
        grp = g.eobj[e]
        ra = g.restriction(a, e).apply(fam[a])
        rb = g.restriction(b, e).apply(fam[b])
        out.append(grp.mul(grp.mul(grp.inv(ra), tail[idx]), rb))
    return tuple(out)


def single_moves(g):
    """Every family with one non-identity value: the all-element move set."""
    vs = g.base.sorted_vertices()
    for v in vs:
        for x in range(1, g.vobj[v].order):
            fam = {u: 0 for u in vs}
            fam[v] = x
            yield fam


def oracle_h1(g):
    """The slow orbit search: materialize Z1, collect each orbit's members,
    take their minima and renumber with the privileged class first.
    Returns (representative tuples, class index)."""
    edges = g.base.sorted_edges()
    all_tails = list(itertools.product(*(range(g.eobj[e].order) for e in edges)))
    moves = list(single_moves(g))
    seen = {}
    orbits = []
    for start in all_tails:
        if start in seen:
            continue
        cls = len(orbits)
        queue = [start]
        seen[start] = cls
        members = [start]
        while queue:
            cur = queue.pop()
            for fam in moves:
                nxt = act_tail(g, fam, cur)
                if nxt not in seen:
                    seen[nxt] = cls
                    members.append(nxt)
                    queue.append(nxt)
        orbits.append(members)
    reps = [min(members) for members in orbits]
    trivial = tuple(0 for _ in edges)
    order = sorted(range(len(reps)), key=lambda i: (reps[i] != reps[seen[trivial]], reps[i]))
    renum = {old: new for new, old in enumerate(order)}
    return [reps[i] for i in order], {t: renum[c] for t, c in seen.items()}


def dense_rref(m):
    """Reduced row echelon form by full-row operations on every entry (test
    oracle for linalg.rref); returns (R, pivot column indices)."""
    r = [row[:] for row in m]
    nrows = len(r)
    ncols = len(r[0]) if r else 0
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, nrows) if r[i][col] != 0), None)
        if pivot is None:
            continue
        r[row], r[pivot] = r[pivot], r[row]
        inv = 1 / r[row][col]
        r[row] = [x * inv for x in r[row]]
        for i in range(nrows):
            if i != row and r[i][col] != 0:
                f = r[i][col]
                r[i] = [a - f * b for a, b in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return r, pivots


def greedy_extend_to_basis(vectors, dim):
    """Slow oracle: add e_i, in coordinate order, whenever it raises the rank."""
    rows = [v[:] for v in vectors]
    current = linalg.rank(rows)
    chosen = []
    for i in range(dim):
        e = [Fraction(1 if j == i else 0) for j in range(dim)]
        cand = rows + [e]
        if linalg.rank(cand) > current:
            rows = cand
            current += 1
            chosen.append(i)
        if current == dim:
            break
    return chosen


def solve(m, b, ncols):
    """One solution of m x = b by rref of the augmented matrix, or None when
    inconsistent (test oracle for the class coordinates)."""
    aug = [row[:] + [bv] for row, bv in zip(m, b)]
    r, pivots = linalg.rref(aug)
    pivots_in_cols = [p for p in pivots if p < ncols]
    if len(pivots_in_cols) != len(pivots):
        return None  # pivot in the augmented column
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots_in_cols):
        x[p] = r[i][ncols]
    return x


def in_span(vectors, v) -> bool:
    """v in span(vectors), by one `solve` (test oracle for SubGroupGraph)."""
    if not v:
        return True
    if not vectors:
        return all(x == 0 for x in v)
    return solve(linalg.transpose(vectors), v, len(vectors)) is not None


def rank_mod_p(int_rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over the p-element field (test oracle)."""
    rows = [[x % p for x in row] for row in int_rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rk = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if rows[i][col] % p != 0), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        inv = pow(rows[row][col], -1, p)
        rows[row] = [(x * inv) % p for x in rows[row]]
        for i in range(nrows):
            if i != row and rows[i][col] % p != 0:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[row])]
        rk += 1
        row += 1
        if row == nrows:
            break
    return rk


@pytest.fixture
def segment_010():
    """Segment a--b with trivial vertex spaces and a line on the edge."""
    return vector_gg(
        ["a", "b"], [("a", "b")], {"a": 0, "b": 0}, {("a", "b"): 1}
    )


# --- geodesics to a subtree and the partial order they induce: the slow
# oracle of theorems.check_repulsive, which reads one parent map instead


@dataclass(frozen=True)
class Geodesic:
    """Alternating vertex/edge sequence (c0, ..., cl), minimal, elements distinct."""

    elements: tuple

    def __post_init__(self):
        els = self.elements
        if not els:
            raise GraphError("empty geodesic")
        if len(set(els)) != len(els):
            raise GraphError("geodesic repeats an element")
        for i, c in enumerate(els):
            is_vertex = i % 2 == 0
            if is_vertex != isinstance(c, str):
                raise GraphError("geodesic does not alternate vertex/edge")
            if i > 0:
                prev = els[i - 1]
                v, e = (c, prev) if is_vertex else (prev, c)
                if v not in e:
                    raise GraphError("consecutive geodesic elements not incident")


def geodesic_to_subtree(t, r, v) -> Geodesic:
    """Unique minimal path from v whose last element lies in r, avoiding r
    before: a BFS from v until the subtree is hit, then the path walked back.
    When v is in r the geodesic is the single element v."""
    rset = frozenset(r)
    if not rset or not rset <= t.vertices or not validate_tree(t.graph.induced(rset)):
        raise GraphError("vertex set does not induce a subtree")
    if v not in t.vertices:
        raise GraphError(f"vertex {v!r} not in the tree")
    if v in rset:
        return Geodesic((v,))
    prev = {}
    queue = [v]
    seen = {v}
    hit = None
    while queue:
        cur = queue.pop(0)
        if cur in rset:
            hit = cur
            break
        for n in t.graph.neighbors(cur):
            if n not in seen:
                seen.add(n)
                prev[n] = (cur, edge(cur, n))
                queue.append(n)
    path = [hit]
    cur = hit
    while cur != v:
        p, e = prev[cur]
        path.append(e)
        path.append(p)
        cur = p
    path.reverse()
    return Geodesic(tuple(path))


def precedes(t, r, v, w) -> bool:
    """The partial order: v precedes w iff the geodesic of v lies inside that of w."""
    inner, outer = geodesic_to_subtree(t, r, v), geodesic_to_subtree(t, r, w)
    return set(inner.elements) <= set(outer.elements)

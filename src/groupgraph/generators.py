"""Seeded random instance families for the verifier suites.

Every generator takes a random.Random so the CLI selfcheck and the tests can
replay any failure from its seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import linalg
from .graph import (
    Graph, GraphMorphism, Tree, connected_components, contract, edge_key, outward_incidences,
)
from .group_graph import (
    FiniteGroup,
    GroupGraph,
    GroupHom,
    SubGroupGraph,
    VectorSpace,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    trivial_group,
)


def random_tree(rng: random.Random, n: int, prefix: str = "v") -> Tree:
    """Random labelled tree: each new vertex attaches to a uniform earlier one."""
    names = [f"{prefix}{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((names[rng.randrange(i)], names[i]))
    return Tree.make(names, edges)


def random_invertible_matrix(rng: random.Random, d: int):
    if d == 0:
        return []
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        if linalg.rank(m) == d:
            return m


def random_matrix(rng: random.Random, rows: int, cols: int):
    return [[Fraction(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]


def random_surjective_matrix(rng: random.Random, rows: int, cols: int):
    """Full row rank; requires cols >= rows."""
    if rows == 0:
        return []
    while True:
        m = random_matrix(rng, rows, cols)
        if linalg.rank(m) == rows:
            return m


# ---------------------------------------------------------------------------
# regular instances


def random_regular_vector(rng: random.Random, max_vertices: int = 10, dims=(0, 1, 2)) -> GroupGraph:
    """Regular rational group-graph over a random tree: supported incident
    pairs share a dimension and carry invertible restrictions."""
    n = rng.randint(2, max_vertices)
    t = random_tree(rng, n)
    vdim = {v: rng.choice(dims) for v in t.graph.sorted_vertices()}
    edim = {}
    for a, b in t.graph.sorted_edges():
        choices = {0}
        da, db = vdim[a], vdim[b]
        if da == 0 and db == 0:
            choices |= {d for d in dims if d > 0}
        elif da == 0 or db == 0 or da == db:
            choices.add(max(da, db))
        edim[(a, b)] = rng.choice(sorted(choices))
    vobj = {v: VectorSpace(vdim[v]) for v in t.vertices}
    eobj = {e: VectorSpace(edim[e]) for e in t.graph.sorted_edges()}
    restrictions = {}
    for v, e in t.graph.incidences():
        dv, de = vdim[v], edim[e]
        if dv > 0 and de > 0:
            m = random_invertible_matrix(rng, dv)  # dv == de by construction
        else:
            m = linalg.zeros(de, dv)
        restrictions[(v, e)] = GroupHom(vobj[v], eobj[e], m, validate=False)
    return GroupGraph(t.graph, "vector", vobj, eobj, restrictions)


_GROUP_POOL: list[tuple[str, FiniteGroup]] | None = None
_AUT_CACHE: dict[str, list[tuple[int, ...]]] = {}


def group_pool() -> list[tuple[str, FiniteGroup]]:
    global _GROUP_POOL
    if _GROUP_POOL is None:
        klein, _ = direct_product_group([cyclic_group(2), cyclic_group(2)])
        z2z4, _ = direct_product_group([cyclic_group(2), cyclic_group(4)])
        _GROUP_POOL = [
            ("Z2", cyclic_group(2)),
            ("Z3", cyclic_group(3)),
            ("Z4", cyclic_group(4)),
            ("Z5", cyclic_group(5)),
            ("Z6", cyclic_group(6)),
            ("Z7", cyclic_group(7)),
            ("Z8", cyclic_group(8)),
            ("V4", klein),
            ("Z2xZ4", z2z4),
            ("D3", dihedral_group(3)),
            ("D4", dihedral_group(4)),
        ]
    return _GROUP_POOL


def automorphisms_of(name: str, grp: FiniteGroup) -> list[tuple[int, ...]]:
    if name not in _AUT_CACHE:
        _AUT_CACHE[name] = grp.automorphisms()
    return _AUT_CACHE[name]


def random_regular_finite(
    rng: random.Random, max_vertices: int = 6, max_order: int = 8
) -> GroupGraph:
    """Regular finite group-graph: one group on the support, automorphism
    restrictions between supported pairs."""
    pool = [(name, g) for name, g in group_pool() if g.order <= max_order]
    name, grp = rng.choice(pool)
    auts = automorphisms_of(name, grp)
    n = rng.randint(2, max_vertices)
    t = random_tree(rng, n)
    triv = trivial_group()
    vobj = {v: (grp if rng.random() < 0.7 else triv) for v in t.graph.sorted_vertices()}
    eobj = {e: (grp if rng.random() < 0.7 else triv) for e in t.graph.sorted_edges()}
    restrictions = {}
    for v, e in t.graph.incidences():
        if vobj[v].order > 1 and eobj[e].order > 1:
            restrictions[(v, e)] = GroupHom(grp, grp, rng.choice(auts), validate=False)
        else:
            restrictions[(v, e)] = GroupHom.trivial(vobj[v], eobj[e])
    return GroupGraph(t.graph, "finite", vobj, eobj, restrictions)


# ---------------------------------------------------------------------------
# repulsive subtrees


def random_connected_subset(rng: random.Random, t: Tree, size: int) -> frozenset[str]:
    start = rng.choice(sorted(t.vertices))
    chosen = {start}
    while len(chosen) < size:
        boundary = sorted(
            n for v in chosen for n in t.graph.neighbors(v) if n not in chosen
        )
        if not boundary:
            break
        chosen.add(rng.choice(boundary))
    return frozenset(chosen)


def _times(src: FiniteGroup, tgt: FiniteGroup, c: int) -> GroupHom:
    """The map x -> c*x mod |tgt| between cyclic groups."""
    return GroupHom(src, tgt, tuple((c * x) % tgt.order for x in range(src.order)), validate=False)


def _cyclic_hom(rng: random.Random, src: FiniteGroup, tgt: FiniteGroup) -> GroupHom:
    """A random homomorphism between cyclic groups."""
    n, m = src.order, tgt.order
    g = math.gcd(n, m)
    return _times(src, tgt, (m // g) * rng.randrange(g))


def _surjective_cyclic_hom(rng: random.Random, src: FiniteGroup, tgt: FiniteGroup) -> GroupHom:
    """Surjective hom onto a cyclic group whose order divides |src|."""
    m = tgt.order
    units = [c for c in range(1, m + 1) if math.gcd(c, m) == 1]
    return _times(src, tgt, rng.choice(units) if m > 1 else 0)


def random_repulsive_instance(
    rng: random.Random, carrier: str, max_vertices: int = 7
) -> tuple[GroupGraph, frozenset[str]]:
    """A group-graph over a tree with a subtree made repulsive by
    construction: outward restrictions are surjective."""
    n = rng.randint(2, max_vertices)
    t = random_tree(rng, n)
    rset = random_connected_subset(rng, t, rng.randint(1, n))
    constrained = set(outward_incidences(t, rset))
    if carrier == "vector":
        vdim = {v: rng.randint(0, 2) for v in t.graph.sorted_vertices()}
        edim = {e: rng.randint(0, 2) for e in t.graph.sorted_edges()}
        for v, e in constrained:
            edim[e] = min(edim[e], vdim[v])
        vobj = {v: VectorSpace(vdim[v]) for v in t.vertices}
        eobj = {e: VectorSpace(edim[e]) for e in edim}
        restrictions = {}
        for v, e in t.graph.incidences():
            if (v, e) in constrained:
                m = random_surjective_matrix(rng, edim[e], vdim[v])
            else:
                m = random_matrix(rng, edim[e], vdim[v])
            restrictions[(v, e)] = GroupHom(vobj[v], eobj[e], m, validate=False)
        return GroupGraph(t.graph, "vector", vobj, eobj, restrictions), rset
    orders = [1, 2, 3, 4, 6]
    vord = {v: rng.choice(orders) for v in t.graph.sorted_vertices()}
    eord = {e: rng.choice(orders) for e in t.graph.sorted_edges()}
    for v, e in sorted(constrained):
        eord[e] = rng.choice([d for d in orders if vord[v] % d == 0])
    groups = {o: cyclic_group(o) for o in orders}
    vobj = {v: groups[vord[v]] for v in t.vertices}
    eobj = {e: groups[eord[e]] for e in eord}
    restrictions = {}
    for v, e in t.graph.incidences():
        hom = _surjective_cyclic_hom if (v, e) in constrained else _cyclic_hom
        restrictions[(v, e)] = hom(rng, vobj[v], eobj[e])
    return GroupGraph(t.graph, "finite", vobj, eobj, restrictions), rset


def random_nonrepulsive_instance(
    rng: random.Random, max_vertices: int = 6
) -> tuple[GroupGraph, frozenset[str]]:
    """Negative control: at least one outward restriction fails surjectivity."""
    while True:
        n = rng.randint(2, max_vertices)
        t = random_tree(rng, n)
        rset = random_connected_subset(rng, t, rng.randint(1, n - 1))
        constrained = outward_incidences(t, rset)
        if not constrained:
            continue
        vdim = {v: rng.randint(0, 2) for v in t.graph.sorted_vertices()}
        edim = {e: rng.randint(0, 2) for e in t.graph.sorted_edges()}
        bad_v, bad_e = constrained[rng.randrange(len(constrained))]
        edim[bad_e] = rng.randint(1, 2)
        vobj = {v: VectorSpace(vdim[v]) for v in t.vertices}
        eobj = {e: VectorSpace(edim[e]) for e in edim}
        restrictions = {}
        for v, e in t.graph.incidences():
            if (v, e) == (bad_v, bad_e):
                m = linalg.zeros(edim[e], vdim[v])  # certainly not surjective
            else:
                m = random_matrix(rng, edim[e], vdim[v])
            restrictions[(v, e)] = GroupHom(vobj[v], eobj[e], m, validate=False)
        return GroupGraph(t.graph, "vector", vobj, eobj, restrictions), rset


# ---------------------------------------------------------------------------
# exact sequences over trees


def random_exact_sequence(
    rng: random.Random, max_vertices: int = 4, good: bool = True
) -> tuple[GroupGraph, SubGroupGraph]:
    """A group-graph with a normal sub-group-graph.  With good=True the sub's
    restrictions are surjective onto the sub; otherwise one incidence is
    deliberately spoiled (containment still holds, surjectivity fails)."""
    n = rng.randint(2, max_vertices)
    t = random_tree(rng, n)
    if good and rng.random() < 0.4:
        # dihedral family: automorphism restrictions, characteristic kernel
        grp = dihedral_group(4)
        auts = automorphisms_of("D4", grp)
        sub = frozenset({0, 1, 2, 3}) if rng.random() < 0.5 else frozenset({0, 2})
        vobj = {v: grp for v in t.vertices}
        eobj = {e: grp for e in t.graph.sorted_edges()}
        restrictions = {
            (v, e): GroupHom(grp, grp, rng.choice(auts), validate=False)
            for v, e in t.graph.incidences()
        }
        g = GroupGraph(t.graph, "finite", vobj, eobj, restrictions)
        return g, SubGroupGraph(g, {s: sub for s in g.stars()})
    # cyclic family: Z_m everywhere, kernel the subgroup generated by d
    m, d = rng.choice([(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3)])
    grp = cyclic_group(m)
    sub = frozenset(range(0, m, d))
    good_cs = [c for c in range(1, m) if math.gcd(c, m // d) == 1]
    bad_cs = [c for c in range(1, m) if math.gcd(c, m // d) > 1]
    incidences = t.graph.incidences()
    spoiled = rng.randrange(len(incidences)) if not good else None
    restrictions = {}
    for i, (v, e) in enumerate(incidences):
        c = rng.choice(bad_cs if i == spoiled else good_cs)
        restrictions[(v, e)] = _times(grp, grp, c)
    vobj = {v: grp for v in t.vertices}
    eobj = {e: grp for e in t.graph.sorted_edges()}
    g = GroupGraph(t.graph, "finite", vobj, eobj, restrictions)
    return g, SubGroupGraph(g, {s: sub for s in g.stars()})


# ---------------------------------------------------------------------------
# direct-image pairs


def random_finite_group_graph(rng: random.Random, t: Tree, max_order: int = 4) -> GroupGraph:
    orders = [o for o in (1, 2, 3, 4) if o <= max_order]
    vord = {v: rng.choice(orders) for v in t.graph.sorted_vertices()}
    eord = {e: rng.choice(orders) for e in t.graph.sorted_edges()}
    groups = {o: cyclic_group(o) for o in orders}
    vobj = {v: groups[vord[v]] for v in t.vertices}
    eobj = {e: groups[eord[e]] for e in eord}
    restrictions = {
        (v, e): _cyclic_hom(rng, vobj[v], eobj[e]) for v, e in t.graph.incidences()
    }
    return GroupGraph(t.graph, "finite", vobj, eobj, restrictions)


def random_vector_group_graph(rng: random.Random, t: Tree, max_dim: int = 2) -> GroupGraph:
    vdim = {v: rng.randint(0, max_dim) for v in t.graph.sorted_vertices()}
    edim = {e: rng.randint(0, max_dim) for e in t.graph.sorted_edges()}
    vobj = {v: VectorSpace(vdim[v]) for v in t.vertices}
    eobj = {e: VectorSpace(edim[e]) for e in edim}
    restrictions = {
        (v, e): GroupHom(vobj[v], eobj[e], random_matrix(rng, edim[e], vdim[v]), validate=False)
        for v, e in t.graph.incidences()
    }
    return GroupGraph(t.graph, "vector", vobj, eobj, restrictions)


def random_direct_image_pair(
    rng: random.Random, max_vertices: int = 5
) -> tuple[GraphMorphism, GroupGraph]:
    n = rng.randint(2, max_vertices)
    t = random_tree(rng, n)
    if rng.random() < 0.5:
        g = random_finite_group_graph(rng, t, max_order=3)
    else:
        g = random_vector_group_graph(rng, t)
    if rng.random() < 0.2:
        return GraphMorphism.identity(t.graph), g
    sub = random_connected_subset(rng, t, rng.randint(2, n))
    _, c = contract(t, sub)
    return c, g


# ---------------------------------------------------------------------------
# foliation specs


_GREEN_ORDERS = [2, 3, 4, 6, 8, 12]


def _decorate_green(rng, spec: dict, v: str) -> int:
    n = rng.choice(_GREEN_ORDERS)
    spec["vertices"][v] = {"kind": "invariant", "holonomy": {"finite": True, "order": n}}
    return n


def _decorate_red(rng, spec: dict, v: str) -> int:
    t = rng.choice([0, 1])
    spec["vertices"][v] = {"kind": "invariant", "holonomy": {"finite": False, "tdim": t}}
    return t


def _proper_divisor(rng: random.Random, n: int) -> int:
    return rng.choice([d for d in range(1, n + 1) if n % d == 0])


def random_foliation_spec(
    rng: random.Random, max_vertices: int = 12, require_red: bool = False
) -> dict:
    """A valid spec of finite type by construction.

    Per cut-component a connected red core is chosen (forced nonempty when
    require_red); core-internal edges are red so the red part stays connected;
    every outward first-edge order equals the vertex order; remaining
    incidence orders are free divisors.
    """
    n = rng.randint(2, max_vertices)
    t = random_tree(rng, n, prefix="D")
    g = t.graph
    spec: dict = {"tree": g.to_json(), "vertices": {}, "edges": {}}

    dicritical = set()
    if not require_red:
        dicritical = {v for v in g.sorted_vertices() if rng.random() < 0.10}
    for v in sorted(dicritical):
        spec["vertices"][v] = {"kind": "dicritical"}

    edge_kinds = {}
    for e in g.sorted_edges():
        if any(v in dicritical for v in e):
            edge_kinds[e] = "regular"
        elif require_red:
            edge_kinds[e] = "singular"
        else:
            r = rng.random()
            edge_kinds[e] = "singular" if r < 0.8 else ("nodal" if r < 0.9 else "regular")

    cut_vs = frozenset(v for v in g.vertices if v not in dicritical)
    cut_es = frozenset(
        e for e in g.edges if edge_kinds[e] == "singular" and all(v in cut_vs for v in e)
    )
    tdims: dict = {}
    reds: set[str] = set()
    red_edges: set = set()

    for comp_vs, comp_es in connected_components(Graph(cut_vs, cut_es)):
        comp = Tree(Graph(frozenset(comp_vs), frozenset(comp_es)))
        core: frozenset[str] = frozenset()
        if require_red or rng.random() < 0.75:
            core = random_connected_subset(rng, comp, rng.randint(1, len(comp_vs)))
        for v in sorted(core):
            reds.add(v)
            tdims[v] = _decorate_red(rng, spec, v)
        for e in comp.graph.sorted_edges():
            if all(v in core for v in e):
                red_edges.add(e)  # keeps the red part connected
        for v in sorted(comp.vertices - core):
            _decorate_green(rng, spec, v)
        anchor = core if core else frozenset({rng.choice(sorted(comp_vs))})
        constrained = set(outward_incidences(comp, anchor))
        for e in comp.graph.sorted_edges():
            entry: dict = {"kind": "singular", "holonomy": {}}
            if e in red_edges:
                tmax = max(tdims[e[0]], tdims[e[1]])
                entry["tdim"] = rng.choice([tmax, 1])
                entry["holonomy"][e[0]] = {"periodic": False}
                entry["holonomy"][e[1]] = {"periodic": False}
            else:
                for v in e:
                    if v in reds:
                        entry["holonomy"][v] = {
                            "periodic": True, "order": rng.choice([1, 2, 3, 4, 5, 6])
                        }
                    else:
                        n_v = spec["vertices"][v]["holonomy"]["order"]
                        if (v, e) in constrained:
                            entry["holonomy"][v] = {"periodic": True, "order": n_v}
                        else:
                            entry["holonomy"][v] = {
                                "periodic": True, "order": _proper_divisor(rng, n_v)
                            }
            spec["edges"][edge_key(e)] = entry

    for e in g.sorted_edges():
        key = edge_key(e)
        if key not in spec["edges"]:
            spec["edges"][key] = {"kind": edge_kinds[e]}
    return spec


def random_injected_spec(rng: random.Random, gtype: int) -> dict:
    """A valid spec whose single cut-component contains a forbidden geodesic
    of the requested type, so it is not of finite type."""
    if gtype == 1:
        n_mid = rng.randint(1, 3)
        pattern = [f"P{i}" for i in range(n_mid + 2)]
        red_idx = {0}
    elif gtype == 2:
        pattern = ["P0", "P1"]
        red_idx = {0}
    elif gtype == 3:
        n_mid = rng.randint(1, 3)
        pattern = [f"P{i}" for i in range(n_mid + 2)]
        red_idx = {0, len(pattern) - 1}
    elif gtype == 4:
        pattern = ["P0", "P1"]
        red_idx = {0, 1}
    else:
        raise ValueError(f"unknown geodesic type {gtype}")

    vertices = list(pattern)
    edges = [(pattern[i], pattern[i + 1]) for i in range(len(pattern) - 1)]
    for i in range(rng.randint(0, 5)):
        host = rng.choice(vertices)
        name = f"X{i}"
        vertices.append(name)
        edges.append((host, name))
    g = Graph.make(vertices, edges)
    spec: dict = {"tree": g.to_json(), "vertices": {}, "edges": {}}

    red_set = {pattern[i] for i in red_idx}
    orders: dict[str, int] = {}
    for v in vertices:
        if v in red_set:
            _decorate_red(rng, spec, v)
        else:
            orders[v] = _decorate_green(rng, spec, v)  # always >= 2: room for not-iso

    def green_entry(v, iso: bool) -> dict:
        if v in red_set:
            return {"periodic": True, "order": rng.choice([1, 2, 3])}
        n_v = orders[v]
        if iso:
            return {"periodic": True, "order": n_v}
        return {"periodic": True, "order": rng.choice([d for d in range(1, n_v) if n_v % d == 0])}

    for a, b in g.sorted_edges():
        e = (a, b)
        entry: dict = {"kind": "singular", "holonomy": {}}
        if a in pattern and b in pattern:
            ia, ib = pattern.index(a), pattern.index(b)
            near, far = (a, b) if ia < ib else (b, a)
            is_last = max(ia, ib) == len(pattern) - 1
            if gtype == 1 and is_last:
                entry["holonomy"][near] = green_entry(near, iso=True)
                entry["holonomy"][far] = green_entry(far, iso=False)
            elif gtype == 2:
                entry["holonomy"][near] = green_entry(near, iso=False)
                entry["holonomy"][far] = green_entry(far, iso=False)
            else:
                entry["holonomy"][a] = green_entry(a, iso=bool(rng.getrandbits(1)))
                entry["holonomy"][b] = green_entry(b, iso=bool(rng.getrandbits(1)))
        else:
            entry["holonomy"][a] = green_entry(a, iso=bool(rng.getrandbits(1)))
            entry["holonomy"][b] = green_entry(b, iso=bool(rng.getrandbits(1)))
        spec["edges"][edge_key(e)] = entry
    return spec

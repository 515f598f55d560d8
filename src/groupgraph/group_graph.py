"""Group-graphs over a graph in two carriers.

A group-graph assigns a group object to every vertex and edge of a base graph
and a restriction homomorphism vertex -> edge to every incidence.  Carriers:

* "finite": small finite groups given by a Cayley table over element indices
  0..order-1, identity always at index 0;
* "vector": finite-dimensional vector spaces over exact rationals, morphisms
  as matrices.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .graph import (
    Edge,
    Graph,
    GraphMorphism,
    components,
    edge_key,
    incidence_key,
    parse_edge_key,
    parse_incidence_key,
)

GROUP_ORDER_CAP = 24  # the largest finite group order a JSON input may give
DEFAULT_PRODUCT_ORDER_BUDGET = 4096
CAYLEY_TABLE_CELLS = 1 << 20  # the most cells a built group table may hold


class GroupGraphError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured budget; carries the sizes."""

    def __init__(self, message: str, sizes: dict):
        super().__init__(message)
        self.sizes = sizes


class VerificationError(RuntimeError):
    """An internal consistency assertion that must never fire did fire."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true is not 1


# ---------------------------------------------------------------------------
# carriers
#
# The group object of a star is its carrier: both classes answer the element
# operations mul, inv and identity() (written multiplicatively) and write
# element values as JSON, so cochain code never asks which carrier it is.


class FiniteGroup:
    """Finite group as a Cayley table over indices 0..order-1, identity = 0."""

    def __init__(self, order: int, table, validate: bool = True):
        self.order = order
        self.table = tuple(tuple(row) for row in table)
        if validate:
            self._validate()

    def _validate(self):
        n = self.order
        if not _is_int(n) or n < 1 or len(self.table) != n or any(len(r) != n for r in self.table):
            raise GroupGraphError("Cayley table shape does not match the order")
        for row in self.table:
            for x in row:
                if not (_is_int(x) and 0 <= x < n):
                    raise GroupGraphError("Cayley table entry out of range")
        if any(self.table[0][j] != j for j in range(n)) or any(
            self.table[i][0] != i for i in range(n)
        ):
            raise GroupGraphError("element 0 is not the identity")
        for i in range(n):
            if 0 not in self.table[i]:
                raise GroupGraphError(f"element {i} has no inverse")
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise GroupGraphError("Cayley table is not associative")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        """The inverse of each element, by index."""
        return tuple(row.index(0) for row in self.table)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, chosen greedily: each element, in index order,
        that the subgroup generated by the earlier picks does not contain.
        Each pick at least doubles that subgroup, so there are at most log2
        of the order of them."""
        gens: list[int] = []
        sub = {0}
        for x in range(1, self.order):
            if x in sub:
                continue
            gens.append(x)
            stack = list(sub)
            while stack:
                y = stack.pop()
                for s in gens:
                    z = self.table[y][s]
                    if z not in sub:
                        sub.add(z)
                        stack.append(z)
        return tuple(gens)

    @cached_property
    def conjugacy(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per element: a label of its conjugacy class (the class's smallest
        element) and the order of its centralizer."""
        n, t, inv = self.order, self.table, self.inverses
        label, centralizer = [-1] * n, [0] * n
        for p in range(n):
            if label[p] < 0:
                conjugates = {t[t[inv[z]][p]][z] for z in range(n)}
                for q in conjugates:
                    label[q], centralizer[q] = p, n // len(conjugates)
        return tuple(label), tuple(centralizer)

    def identity(self) -> int:
        return 0

    def value_to_json(self, x: int) -> int:
        return x

    def is_trivial(self) -> bool:
        return self.order == 1

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    def is_subgroup(self, elems) -> bool:
        """Whether elems, of any values, form a subgroup of this group."""
        s = set(elems)
        if 0 not in s or not all(_is_int(a) and 0 <= a < self.order for a in s):
            return False
        t, inv = self.table, self.inverses
        return all(t[a][b] in s and inv[a] in s for a in s for b in s)

    def is_normal(self, elems) -> bool:
        s = set(elems)
        t, inv = self.table, self.inverses
        return all(t[t[g][k]][inv[g]] in s for g in range(self.order) for k in s)

    def quotient(self, normal_elems) -> tuple["FiniteGroup", tuple[int, ...]]:
        """Quotient by a normal subgroup; returns (group, projection index map)."""
        k = frozenset(normal_elems)
        if not self.is_subgroup(k):
            raise GroupGraphError("not a subgroup")
        if not self.is_normal(k):
            raise GroupGraphError("subgroup is not normal")
        # each coset is met first at its smallest element, so the cosets are
        # numbered in the order of their minima, the identity coset first
        t, index, reps = self.table, {}, []
        for x in range(self.order):
            if x not in index:
                for h in k:
                    index[t[x][h]] = len(reps)
                reps.append(x)
        proj = tuple(index[x] for x in range(self.order))
        table = [[proj[t[a][b]] for b in reps] for a in reps]
        return FiniteGroup(len(reps), table, validate=False), proj

    def automorphisms(self) -> list[tuple[int, ...]]:
        """All automorphisms as permutation tuples (brute force; small orders only)."""
        n = self.order
        orders = [self.element_order(a) for a in range(n)]
        perms = []
        for p in itertools.permutations(range(1, n)):
            perm = (0,) + p
            if any(orders[perm[a]] != orders[a] for a in range(1, n)):
                continue
            if all(
                perm[self.table[a][b]] == self.table[perm[a]][perm[b]]
                for a in range(n)
                for b in range(n)
            ):
                perms.append(perm)
        return perms

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.order == other.order
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.order, self.table))

    def to_json(self) -> dict:
        return {"order": self.order, "table": [list(r) for r in self.table]}

    @staticmethod
    def from_json(data: dict) -> "FiniteGroup":
        order = data["order"]
        if not _is_int(order):
            raise GroupGraphError(f"group order {order!r} is not an integer")
        if order > GROUP_ORDER_CAP:
            raise BudgetExceeded(
                f"finite group order {order} exceeds the cap {GROUP_ORDER_CAP}",
                {"order": order, "cap": GROUP_ORDER_CAP},
            )
        return FiniteGroup(order, data["table"])


def trivial_group() -> FiniteGroup:
    return FiniteGroup(1, ((0,),), validate=False)


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(n, table, validate=False)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element i + n*j is rotation^i * flip^j."""

    def mul(x, y):
        i1, j1 = x % n, x // n
        i2, j2 = y % n, y // n
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        return i + n * ((j1 + j2) % 2)

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return FiniteGroup(2 * n, table, validate=False)


def direct_product_group(
    factors: list[FiniteGroup], budget: int = DEFAULT_PRODUCT_ORDER_BUDGET
) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """Direct product plus the element tuples in index order (identity first)."""
    order = 1
    for f in factors:
        order *= f.order
    if order > budget:
        raise BudgetExceeded(
            f"product group order {order} exceeds budget {budget}",
            {"order": order, "budget": budget},
        )
    _check_table_cells(order)
    elems = list(itertools.product(*(range(f.order) for f in factors)))
    return _componentwise_group(factors, elems), elems


def _check_table_cells(order: int):
    """Raise before a Cayley table of the given order would exceed its cell cap."""
    cells = order ** 2
    if cells > CAYLEY_TABLE_CELLS:
        raise BudgetExceeded(
            f"Cayley table of {order} elements ({cells} cells) exceeds budget "
            f"{CAYLEY_TABLE_CELLS}",
            {"cells": cells, "budget": CAYLEY_TABLE_CELLS},
        )


def _componentwise_group(factors: list[FiniteGroup], elems: list[tuple[int, ...]]) -> FiniteGroup:
    """The group on element tuples of the factors, closed under the
    componentwise product, identity first; the index of a tuple is its
    position in elems.  The caller checks the table size first."""
    pos = {t: i for i, t in enumerate(elems)}
    table = [
        [pos[tuple(f.mul(x, y) for f, x, y in zip(factors, a, b))] for b in elems]
        for a in elems
    ]
    return FiniteGroup(len(elems), table, validate=False)


@dataclass(frozen=True)
class VectorSpace:
    """Q^dim as an additive group: mul is the vector sum, inv the negation."""

    dim: int

    def __post_init__(self):
        if not _is_int(self.dim) or self.dim < 0:
            raise GroupGraphError(f"dimension {self.dim!r} is not a non-negative integer")

    def mul(self, a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        return linalg.vec_add(a, b)

    def inv(self, a: list[Fraction]) -> list[Fraction]:
        return linalg.vec_neg(a)

    def identity(self) -> list[Fraction]:
        return [Fraction(0)] * self.dim

    def value_to_json(self, x: list[Fraction]) -> list:
        return [linalg.frac_to_json(c) for c in x]

    def is_trivial(self) -> bool:
        return self.dim == 0

    def to_json(self) -> dict:
        return {"dim": self.dim}

    @staticmethod
    def from_json(data: dict) -> "VectorSpace":
        return VectorSpace(data["dim"])


CARRIERS = {"finite": FiniteGroup, "vector": VectorSpace}


def obj_from_json(carrier: str, data: dict):
    if carrier not in CARRIERS:
        raise GroupGraphError(f"unknown carrier {carrier!r}")
    return CARRIERS[carrier].from_json(data)


class GroupHom:
    """Homomorphism between two objects of the same carrier.

    Finite carrier: an element map checked exhaustively against the tables.
    Vector carrier: a (target dim x source dim) rational matrix.
    """

    def __init__(self, source, target, data, validate: bool = True):
        self.source = source
        self.target = target
        if isinstance(source, FiniteGroup) != isinstance(target, FiniteGroup):
            raise GroupGraphError("mixed carriers in a homomorphism")
        self.kind = "finite" if isinstance(source, FiniteGroup) else "vector"
        if self.kind == "finite":
            self.data = tuple(data)
        else:
            self.data = [[linalg.frac(x) for x in row] for row in data]
        if validate:
            self._validate()

    def _validate(self):
        if self.kind == "finite":
            if len(self.data) != self.source.order:
                raise GroupGraphError("element map has wrong length")
            if any(not (_is_int(x) and 0 <= x < self.target.order) for x in self.data):
                raise GroupGraphError("element map value out of range")
            for a in range(self.source.order):
                for b in range(self.source.order):
                    if self.data[self.source.mul(a, b)] != self.target.mul(
                        self.data[a], self.data[b]
                    ):
                        raise GroupGraphError("map is not a homomorphism")
        else:
            if len(self.data) != self.target.dim:
                raise GroupGraphError("matrix has wrong number of rows")
            if any(len(r) != self.source.dim for r in self.data):
                raise GroupGraphError("matrix has wrong number of columns")

    def apply(self, x):
        if self.kind == "finite":
            return self.data[x]
        return linalg.mat_vec(self.data, x)

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        if self.kind != inner.kind or inner.target != self.source:
            raise GroupGraphError("homomorphisms do not compose")
        if self.kind == "finite":
            return GroupHom(
                inner.source, self.target,
                tuple(self.data[x] for x in inner.data), validate=False,
            )
        rows, mid, cols = self.target.dim, self.source.dim, inner.source.dim
        if mid == 0:
            data = linalg.zeros(rows, cols)  # zero-row factors lose their width
        else:
            data = linalg.mat_mul(self.data, inner.data)
        return GroupHom(inner.source, self.target, data, validate=False)

    def is_surjective(self) -> bool:
        if self.kind == "finite":
            return len(set(self.data)) == self.target.order
        return linalg.rank(self.data) == self.target.dim

    def is_injective(self) -> bool:
        if self.kind == "finite":
            return len(set(self.data)) == self.source.order
        return linalg.rank(self.data) == self.source.dim

    def is_iso(self) -> bool:
        if self.kind == "finite":
            return self.is_surjective() and self.is_injective()
        return self.source.dim == self.target.dim and self.is_injective()  # one rank

    def kernel(self):
        """Finite: the frozenset of elements sent to 0.  Vector: a null space basis."""
        if self.kind == "finite":
            return frozenset(x for x in range(self.source.order) if self.data[x] == 0)
        return linalg.kernel_basis(self.data, self.source.dim)

    def image(self):
        """Finite: the frozenset of elements hit.  Vector: a column space basis."""
        if self.kind == "finite":
            return frozenset(self.data)
        cols = linalg.transpose(self.data, self.source.dim)
        return linalg.row_space_basis(cols)

    def equal_maps(self, other: "GroupHom") -> bool:
        if self.kind != other.kind:
            return False
        return self.data == other.data

    @staticmethod
    def identity(obj) -> "GroupHom":
        if isinstance(obj, FiniteGroup):
            return GroupHom(obj, obj, tuple(range(obj.order)), validate=False)
        return GroupHom(obj, obj, linalg.identity(obj.dim), validate=False)

    def to_json(self) -> dict:
        if self.kind == "finite":
            return {"map": list(self.data)}
        return {"matrix": linalg.matrix_to_json(self.data)}

    @staticmethod
    def from_json(source, target, data: dict) -> "GroupHom":
        if "map" in data:
            return GroupHom(source, target, data["map"])
        return GroupHom(source, target, linalg.matrix_from_json(data["matrix"]))


# ---------------------------------------------------------------------------
# group-graphs


class GroupGraphView:
    """A group-graph compiled once, in time linear in its incidences, for the
    cochain kernels.  Vertices and edges are numbered in sorted order; side 0
    of an edge is its tail (the smaller endpoint) and side 1 its head.  Each
    group caches its own inverses, generators and conjugacy classes."""

    def __init__(self, g: "GroupGraph"):
        self.vertices = g.base.sorted_vertices()
        self.edges = g.base.sorted_edges()
        self.vpos = {v: i for i, v in enumerate(self.vertices)}
        self.epos = {e: i for i, e in enumerate(self.edges)}
        self.vgroups = [g.vobj[v] for v in self.vertices]
        self.egroups = [g.eobj[e] for e in self.edges]
        # per edge: the positions of its ends, and the restriction data
        # (`GroupHom.data`) at them; per vertex: (edge index, side) in edge order
        self.ends = [(self.vpos[a], self.vpos[b]) for a, b in self.edges]
        self.rho = [(g.restriction(e[0], e).data, g.restriction(e[1], e).data) for e in self.edges]
        self.incident: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for i, ends in enumerate(self.ends):
            for side, v in enumerate(ends):
                self.incident[v].append((i, side))


class GroupGraph:
    def __init__(self, base: Graph, carrier: str, vobj: dict, eobj: dict, restrictions: dict):
        if not isinstance(carrier, str) or carrier not in CARRIERS:
            raise GroupGraphError(f"unknown carrier {carrier!r}")
        self.base = base
        self.carrier = carrier
        self.vobj = dict(vobj)
        self.eobj = {parse_edge_key(edge_key(e)): o for e, o in eobj.items()}
        self.restrictions = dict(restrictions)
        self._validate()

    def _validate(self):
        want = CARRIERS[self.carrier]
        if set(self.vobj) != set(self.base.vertices):
            raise GroupGraphError("vertex assignment is not total")
        if set(self.eobj) != set(self.base.edges):
            raise GroupGraphError("edge assignment is not total")
        for obj in list(self.vobj.values()) + list(self.eobj.values()):
            if not isinstance(obj, want):
                raise GroupGraphError("carrier is not homogeneous")
        incidences = set(self.base.incidences())
        if set(self.restrictions) != incidences:
            raise GroupGraphError("restriction assignment is not total")
        for (v, e), hom in self.restrictions.items():
            if hom.source != self.vobj[v] or hom.target != self.eobj[e]:
                raise GroupGraphError(f"restriction at {incidence_key(v, e)} has wrong endpoints")

    def obj(self, star):
        return self.vobj[star] if isinstance(star, str) else self.eobj[star]

    def restriction(self, v: str, e: Edge) -> GroupHom:
        return self.restrictions[(v, e)]

    def stars(self) -> list:
        return self.base.sorted_vertices() + self.base.sorted_edges()

    view = cached_property(GroupGraphView)  # built once: nothing mutates a group-graph

    @cached_property
    def _irregular_incidences(self) -> tuple[tuple[str, Edge], ...]:
        """The in-support incidences whose restriction is not an isomorphism
        (see `is_regular`), found once: nothing mutates a group-graph after
        construction."""
        supp = set(support(self))
        return tuple(
            (v, e)
            for v, e in self.base.incidences()
            if v in supp and e in supp and not self.restriction(v, e).is_iso()
        )

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "carrier": self.carrier,
            "vertices": {v: o.to_json() for v, o in sorted(self.vobj.items())},
            "edges": {edge_key(e): o.to_json() for e, o in sorted(self.eobj.items())},
            "restrictions": {
                incidence_key(v, e): h.to_json()
                for (v, e), h in sorted(self.restrictions.items())
            },
        }

    @staticmethod
    def from_json(data: dict) -> "GroupGraph":
        """Parse a group-graph; malformed JSON raises GroupGraphError."""
        try:
            base = Graph.from_json(data["base"])
            carrier = data["carrier"]
            vobj = {v: obj_from_json(carrier, o) for v, o in data["vertices"].items()}
            eobj = {parse_edge_key(k): obj_from_json(carrier, o) for k, o in data["edges"].items()}
            restrictions = {}
            for key, h in data["restrictions"].items():
                v, e = parse_incidence_key(key)
                if v not in vobj or e not in eobj:
                    raise GroupGraphError(f"restriction {key!r} names a star with no object")
                restrictions[(v, e)] = GroupHom.from_json(vobj[v], eobj[e], h)
        except KeyError as exc:
            raise GroupGraphError(f"missing key {exc}") from exc
        except (TypeError, AttributeError) as exc:  # a value of the wrong JSON type
            raise GroupGraphError(f"malformed group-graph: {exc}") from exc
        return GroupGraph(base, carrier, vobj, eobj, restrictions)

    @staticmethod
    def assemble(base: Graph, carrier: str, vobj: dict, eobj: dict, data) -> "GroupGraph":
        """The group-graph whose restriction at each incidence (v, e) is the
        trusted hom vobj[v] -> eobj[e] with `data(v, e)` as its `GroupHom.data`
        (an element map or a matrix).  `data` is called once per incidence in
        `base.incidences()` order, so a generator that draws inside it draws in
        that order in every process."""
        restrictions = {
            (v, e): GroupHom(vobj[v], eobj[e], data(v, e), validate=False)
            for v, e in base.incidences()
        }
        return GroupGraph(base, carrier, vobj, eobj, restrictions)


class GroupGraphMorphism:
    """Morphism of group-graphs over a graph morphism.

    Conventions: `over` maps the base of `target` into the base of `source`;
    the per-star maps go G_{over(star)} -> G'_star for stars of target's base.
    The commuting-square law (with identity restriction on collapsed edges) is
    checked at construction.
    """

    def __init__(self, over: GraphMorphism, source: GroupGraph, target: GroupGraph,
                 maps: dict):
        self.over = over
        self.source = source
        self.target = target
        self.maps = dict(maps)
        self._validate()

    def _validate(self):
        if self.source.base != self.over.target or self.target.base != self.over.source:
            raise GroupGraphError("morphism bases do not match the graph morphism")
        stars = set(self.target.base.vertices) | set(self.target.base.edges)
        if set(self.maps) != stars:
            raise GroupGraphError("star maps are not total")
        for star in stars:
            img = self.over.apply(star) if isinstance(star, str) else self.over.apply_edge(star)
            hom = self.maps[star]
            if hom.source != self.source.obj(img) or hom.target != self.target.obj(star):
                raise GroupGraphError("star map has wrong endpoints")
        for v, e in self.target.base.incidences():
            lhs = self.target.restriction(v, e).compose(self.maps[v])
            img_e = self.over.apply_edge(e)
            if isinstance(img_e, str):
                rhs = self.maps[e]  # collapsed edge: the upstairs restriction is the identity
            else:
                rhs = self.maps[e].compose(self.source.restriction(self.over.apply(v), img_e))
            if not lhs.equal_maps(rhs):
                raise GroupGraphError(f"square at {incidence_key(v, e)} does not commute")

    def is_over_identity(self) -> bool:
        return self.over.is_identity()

    @cached_property
    def push_plan(self) -> list[tuple[int, bool, GroupHom] | None]:
        """How a cocycle tail is pushed to the target, per edge e of the
        target's sorted edges: None where `over` collapses e (the identity is
        pushed), else the position of over(e) among the source's sorted
        edges, whether over(e)'s tail is the image of e's head (the value is
        inverted first), and the edge map."""
        pos = self.source.view.epos
        plan = []
        for e in self.target.base.sorted_edges():
            img = self.over.apply_edge(e)
            if isinstance(img, str):
                plan.append(None)
            else:
                plan.append((pos[img], self.over.apply(e[0]) != img[0], self.maps[e]))
        return plan


# ---------------------------------------------------------------------------
# operations


def pullback(phi: GraphMorphism, g: GroupGraph) -> tuple[GroupGraph, GroupGraphMorphism]:
    """Pull a group-graph on phi's target back to phi's source.

    Objects are copied along phi; a collapsed edge gets the identity
    restriction.  Also returns the canonical morphism given by identity maps.
    """
    if g.base != phi.target:
        raise GroupGraphError("group-graph does not live on the morphism target")
    vobj = {v: g.vobj[phi.apply(v)] for v in phi.source.vertices}
    eobj = {e: g.obj(phi.apply_edge(e)) for e in phi.source.edges}

    def data(v: str, e: Edge):
        img = phi.apply_edge(e)
        if isinstance(img, str):
            return GroupHom.identity(vobj[v]).data
        return g.restriction(phi.apply(v), img).data

    pb = GroupGraph.assemble(phi.source, g.carrier, vobj, eobj, data)
    canonical = GroupGraphMorphism(
        phi, g, pb, {s: GroupHom.identity(pb.obj(s)) for s in pb.stars()}
    )
    return pb, canonical


def _h0_subgroup_finite(g: GroupGraph, sub: Graph, budget: int):
    """Compatible families over a subgraph, in lexicographic order (that of
    `itertools.product` over the sorted vertices); returns (tuples, vertex order)."""
    vs = sorted(sub.vertices)
    size = math.prod(g.vobj[v].order for v in vs)
    if size > budget:
        raise BudgetExceeded(
            f"H0 enumeration of {size} families exceeds budget {budget}",
            {"candidates": size, "budget": budget},
        )
    pos = {v: i for i, v in enumerate(vs)}  # in the subgraph, not in g.view
    sides = [(g.view.rho[g.view.epos[e]], pos[e[0]], pos[e[1]]) for e in sub.sorted_edges()]
    out = [
        t
        for t in itertools.product(*(range(g.vobj[v].order) for v in vs))
        if all(ra[t[i]] == rb[t[j]] for (ra, rb), i, j in sides)
    ]
    return out, vs


def _difference_map(g: GroupGraph, sub: Graph):
    """Sparse rows ({column: nonzero}) of the difference map
    c -> rho_a(c_a) - rho_b(c_b) over the sorted edges (a, b) of a subgraph
    (vector carrier): one row per coordinate of G_e, columns in blocks over the
    sorted vertices.  H0 is its kernel, and its column space is B1 in tail
    coordinates.  Returns (rows, vertex offsets, column count, edge offsets);
    `linalg.dense` turns the rows into a matrix."""
    voffs, ncols = {}, 0
    for v in sorted(sub.vertices):
        voffs[v] = ncols
        ncols += g.vobj[v].dim
    rows, eoffs = [], {}
    for e in sub.sorted_edges():
        a, b = e  # distinct, so the two blocks do not overlap
        eoffs[e] = len(rows)
        ra, rb = g.restriction(a, e).data, g.restriction(b, e).data
        for i in range(g.eobj[e].dim):
            row = {voffs[a] + j: x for j, x in enumerate(ra[i]) if x}
            row.update((voffs[b] + j, -x) for j, x in enumerate(rb[i]) if x)
            rows.append(row)
    return rows, voffs, ncols, eoffs


def _h0_basis_vector(g: GroupGraph, sub: Graph):
    """Kernel basis of the difference map on a subgraph; returns (basis, vertex offsets)."""
    rows, offs, ncols, _ = _difference_map(g, sub)
    return linalg.kernel_basis(linalg.dense(rows, ncols), ncols), offs


def _fiber_h0(g: GroupGraph, fiber: Graph, budget: int):
    """H0 of g over a vertex fiber as a group object, plus its projection
    GroupHom to each fiber vertex."""
    if g.carrier == "finite":
        tuples, vs = _h0_subgroup_finite(g, fiber, budget)
        _check_table_cells(len(tuples))
        grp = _componentwise_group([g.vobj[v] for v in vs], tuples)
        return grp, {
            v: GroupHom(grp, g.vobj[v], [t[i] for t in tuples], validate=False)
            for i, v in enumerate(vs)
        }
    basis, offs = _h0_basis_vector(g, fiber)
    space = VectorSpace(len(basis))
    return space, {
        v: GroupHom(space, g.vobj[v], [[b[o + i] for b in basis] for i in range(g.vobj[v].dim)],
                    validate=False)
        for v, o in offs.items()
    }


def _product(carrier: str, factors: list, budget: int):
    """Product of group objects, its projection to each factor, and the
    pairing (source, one hom per factor) -> the data of the hom into the
    product."""
    if carrier == "finite":
        prod, elems = direct_product_group(factors, budget)
        pos = {t: i for i, t in enumerate(elems)}

        def pair(source, homs):
            return [pos[tuple(h.data[x] for h in homs)] for x in range(source.order)]

        projs = [GroupHom(prod, f, [t[k] for t in elems], validate=False)
                 for k, f in enumerate(factors)]
        return prod, projs, pair
    prod, projs, off = VectorSpace(sum(f.dim for f in factors)), [], 0
    unit = linalg.identity(prod.dim)
    for f in factors:  # block sum: factor f owns the coordinates off .. off + f.dim
        projs.append(GroupHom(prod, f, unit[off: off + f.dim], validate=False))
        off += f.dim

    def pair(source, homs):  # stacked rows: zeros(0, n) for an empty fiber
        return [row for h in homs for row in h.data]

    return prod, projs, pair


def direct_image(
    phi: GraphMorphism, g: GroupGraph, budget: int = DEFAULT_PRODUCT_ORDER_BUDGET
) -> tuple[GroupGraph, GroupGraphMorphism]:
    """Direct image along phi plus the canonical projection morphism.

    Vertex objects are compatible families (H0) over the vertex fibers, edge
    objects are products over the edge fibers; empty fibers carry the trivial
    object.  Every restriction and projection is a composition of g's
    restrictions with the fiber projections: the restriction at (v', e') pairs
    rho_x o proj_x over the edges e of the fiber of e', x the endpoint of e
    over v'; a collapsed edge e maps by rho_min(e) o proj_min(e).
    """
    if g.base != phi.source:
        raise GroupGraphError("group-graph does not live on the morphism source")
    tgt = phi.target
    vobj, proj = {}, {}
    for v2 in tgt.sorted_vertices():
        vobj[v2], projs = _fiber_h0(g, phi.fiber(v2), budget)
        proj.update(projs)
    edge_fiber = {e2: phi.edge_fiber(e2) for e2 in tgt.sorted_edges()}
    eobj, eproj, pair = {}, {}, {}
    for e2, fe in edge_fiber.items():
        eobj[e2], projs, pair[e2] = _product(g.carrier, [g.eobj[e] for e in fe], budget)
        eproj.update(zip(fe, projs))

    def via(x: str, e: Edge) -> GroupHom:  # H0 of x's fiber -> G_x -> G_e
        return g.restriction(x, e).compose(proj[x])

    out = GroupGraph.assemble(tgt, g.carrier, vobj, eobj, lambda v2, e2: pair[e2](vobj[v2], [
        via(e[0] if phi.apply(e[0]) == v2 else e[1], e) for e in edge_fiber[e2]
    ]))

    # canonical projection j: direct image -> g, over phi
    maps = {v: proj[v] for v in g.base.sorted_vertices()}
    for e in g.base.sorted_edges():
        maps[e] = via(min(e), e) if phi.collapses(e) else eproj[e]
    return out, GroupGraphMorphism(phi, out, g, maps)


class SubGroupGraph:
    """A componentwise sub-object of a group-graph, restriction-stable.

    Finite carrier: a frozenset of element indices per star.  Vector carrier:
    a list of basis vectors per star.
    """

    def __init__(self, parent: GroupGraph, subs: dict):
        self.parent = parent
        if set(subs) != set(parent.base.vertices) | set(parent.base.edges):
            raise GroupGraphError("sub-assignment is not total")
        self.subs = {s: self._checked(s, x) for s, x in subs.items()}
        for v, e in parent.base.incidences():
            images = [parent.restriction(v, e).apply(x) for x in self.subs[v]]
            if parent.carrier == "finite":
                stable = all(y in self.subs[e] for y in images)
            else:  # subs[e] is independent: the images lie in its span iff they add no rank
                stable = linalg.rank(self.subs[e] + images) == len(self.subs[e])
            if not stable:
                raise GroupGraphError(f"restriction at {incidence_key(v, e)} leaves the sub")

    def _checked(self, s, x):
        """The sub at star s, checked against G_s before a closure test or an
        elimination reads it."""
        obj = self.parent.obj(s)
        if self.parent.carrier == "finite":
            elems = frozenset(x)
            if not obj.is_subgroup(elems):
                raise GroupGraphError(f"not a subgroup at {s}")
            return elems
        vectors = [[linalg.frac(c) for c in vec] for vec in x]
        if any(len(vec) != obj.dim for vec in vectors):
            raise GroupGraphError(f"basis vector of wrong length at {s}")
        return linalg.row_space_basis(vectors)


def quotient_with_projection(g: GroupGraph, k: SubGroupGraph) -> tuple[GroupGraph, GroupGraphMorphism]:
    """Componentwise quotient G/K plus the projection morphism over the identity.
    `FiniteGroup.quotient` refuses a star whose sub is not normal; on the
    vector carrier every subspace is normal."""
    if k.parent is not g and k.parent.to_json() != g.to_json():
        raise GroupGraphError("sub-group-graph does not belong to this group-graph")
    # per star: the quotient object and the data of the projection onto it
    if g.carrier == "finite":
        made = {s: g.obj(s).quotient(k.subs[s]) for s in g.stars()}
        objs = {s: q for s, (q, _) in made.items()}
        qmaps = {s: proj for s, (_, proj) in made.items()}

        def data(v: str, e: Edge):  # each coset of G_v through its smallest element
            rho, proj_v = g.restriction(v, e).data, qmaps[v]
            return [qmaps[e][rho[proj_v.index(c)]] for c in range(objs[v].order)]
    else:
        # the rows span the functionals that kill K_s: a surjection with kernel K_s
        qmaps = {s: linalg.kernel_basis(k.subs[s], g.obj(s).dim) for s in g.stars()}
        secs = {s: linalg.quotient_section(k.subs[s], g.obj(s).dim) for s in g.stars()}
        objs = {s: VectorSpace(len(qmaps[s])) for s in g.stars()}

        def data(v: str, e: Edge):
            return linalg.mat_mul(qmaps[e], linalg.mat_mul(g.restriction(v, e).data, secs[v]))
    vobj = {v: objs[v] for v in g.base.vertices}
    eobj = {e: objs[e] for e in g.base.edges}
    quo = GroupGraph.assemble(g.base, g.carrier, vobj, eobj, data)
    maps = {s: GroupHom(g.obj(s), objs[s], qmaps[s], validate=False) for s in g.stars()}
    proj = GroupGraphMorphism(GraphMorphism.identity(g.base), g, quo, maps)
    return quo, proj


def quotient(g: GroupGraph, k: SubGroupGraph) -> GroupGraph:
    return quotient_with_projection(g, k)[0]


def tensor(t: GroupGraph, w: VectorSpace) -> GroupGraph:
    """Tensor a vector-space graph with a fixed space: dims multiply, maps Kronecker."""
    if t.carrier != "vector":
        raise GroupGraphError("tensor requires the vector carrier")
    d, unit = w.dim, linalg.identity(w.dim)
    vobj = {v: VectorSpace(o.dim * d) for v, o in t.vobj.items()}
    eobj = {e: VectorSpace(o.dim * d) for e, o in t.eobj.items()}
    return GroupGraph.assemble(t.base, "vector", vobj, eobj, lambda v, e: linalg.kron(
        t.restriction(v, e).data, (t.eobj[e].dim, t.vobj[v].dim), unit, (d, d)
    ))


def support(g: GroupGraph) -> list:
    """Stars with a nontrivial object, vertices first then edges, sorted."""
    return [s for s in g.stars() if not g.obj(s).is_trivial()]


def support_components(g: GroupGraph) -> list[list]:
    """Path-connected components of the support, each in star order."""
    supp = support(g)
    inside = set(supp)
    links = [(v, e) for v, e in g.base.incidences() if v in inside and e in inside]
    return components(supp, links)


def is_regular(g: GroupGraph) -> tuple[bool, list[tuple[str, Edge]]]:
    """A group-graph is regular when in-support restrictions are isomorphisms."""
    violations = list(g._irregular_incidences)
    return not violations, violations


def remove_offsupport_edges(g: GroupGraph) -> tuple[GroupGraph, GraphMorphism]:
    """Drop every edge carrying a trivial group; cohomology is unchanged."""
    keep = [e for e in g.base.sorted_edges() if not g.eobj[e].is_trivial()]
    smaller = Graph(g.base.vertices, frozenset(keep))
    inclusion = GraphMorphism.inclusion(smaller, g.base)
    restricted, _ = pullback(inclusion, g)
    return restricted, inclusion


def as_over_identity(m: GroupGraphMorphism) -> GroupGraphMorphism:
    """The associated morphism over the identity: pullback source, same maps."""
    if m.is_over_identity():
        return m
    pb, _ = pullback(m.over, m.source)
    return GroupGraphMorphism(
        GraphMorphism.identity(m.target.base), pb, m.target, m.maps
    )


def kernel_of(m: GroupGraphMorphism) -> SubGroupGraph:
    """Componentwise kernels; a sub of the source (of its pullback when the
    morphism is not over the identity)."""
    mm = as_over_identity(m)
    return SubGroupGraph(mm.source, {s: mm.maps[s].kernel() for s in mm.source.stars()})


def image_of(m: GroupGraphMorphism) -> SubGroupGraph:
    """Componentwise images; a sub of the target."""
    mm = as_over_identity(m)
    return SubGroupGraph(mm.target, {s: mm.maps[s].image() for s in mm.target.stars()})

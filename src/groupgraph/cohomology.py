"""H0 and H1 of group-graphs.

Vector carrier: exact linear algebra on the abelian cochain complex.
Finite carrier: class and family counts come from one sum-product
elimination (Burnside's lemma for H1), which builds neither Z1 nor C0.
Exhaustive cocycle enumeration and orbit partition under the vertex-family
action stay as the brute-force oracle, and serve representatives, class
indices and induced maps.

Cocycles are identified with one value per edge through the deterministic
orientation tail = lexicographically smaller endpoint; the partner value is
forced by antisymmetry.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import linalg
from .graph import incidence_key
from .group_graph import (
    BudgetExceeded,
    GroupGraph,
    GroupGraphMorphism,
    GroupGraphError,
    VerificationError,
    _difference_map,
    _h0_basis_vector,
    _h0_subgroup_finite,
)

DEFAULT_ENUM_BUDGET = 10**7


def _check_dense_cells(stage: str, cells: int, budget: int):
    """Raise BudgetExceeded before a vector-carrier stage builds dense
    matrices of `cells` entries in all, when that exceeds the budget.  A
    vertex or edge dimension is not bounded by the size of the input."""
    if cells > budget:
        raise BudgetExceeded(
            f"{stage}: {cells} dense matrix cells exceed budget {budget}",
            {"cells": cells, "budget": budget},
        )


class Cochain0:
    """A family (g_v), one group element per vertex."""

    def __init__(self, g: GroupGraph, values: dict):
        if set(values) != set(g.base.vertices):
            raise GroupGraphError("cochain is not total over the vertices")
        self.graph = g
        self.values = dict(values)

    def to_json(self) -> dict:
        vobj = self.graph.vobj
        return {v: vobj[v].value_to_json(x) for v, x in sorted(self.values.items())}


class Cocycle1:
    """An antisymmetric family (g_{v,e}) over the oriented incidences, stored
    as its tail: one value per edge of `g.base.sorted_edges()`, taken at the
    edge's smaller endpoint.  The value at the other endpoint is the inverse
    of the tail value, derived where it is needed."""

    def __init__(self, g: GroupGraph, tail):
        self.graph = g
        self.tail = tuple(tail)
        if len(self.tail) != len(g.base.edges):
            raise GroupGraphError("cocycle is not total over the edges")

    def to_json(self) -> dict:
        """Both incidences of every edge, the head value as the tail's inverse."""
        eobj = self.graph.eobj
        values = {}
        for e, x in zip(self.graph.base.sorted_edges(), self.tail):
            values[(e[0], e)] = x
            values[(e[1], e)] = eobj[e].inv(x)
        return {
            incidence_key(v, e): eobj[e].value_to_json(x) for (v, e), x in sorted(values.items())
        }


def coboundary_action(c: Cochain0, z: Cocycle1, g: GroupGraph) -> Cocycle1:
    """Act by a vertex family: t -> rho_a(c_a)^-1 t rho_b(c_b) on the tail
    value t of every edge (a, b)."""
    if c.graph is not g or z.graph is not g:
        if c.graph.to_json() != g.to_json() or z.graph.to_json() != g.to_json():
            raise GroupGraphError("shape mismatch between cochain, cocycle and group-graph")
    tail = []
    for e, x in zip(g.base.sorted_edges(), z.tail):
        a, b = e
        grp = g.eobj[e]
        ra = g.restriction(a, e).apply(c.values[a])
        rb = g.restriction(b, e).apply(c.values[b])
        tail.append(grp.mul(grp.mul(grp.inv(ra), x), rb))
    return Cocycle1(g, tail)


@dataclass
class CohomologyResult:
    kind: str  # "h0" | "h1"
    carrier: str
    dim: int | None = None  # vector carrier
    count: int | None = None  # finite carrier h1: number of classes
    representatives: list | None = None  # finite h1: canonical orbit minima
    order: int | None = None  # finite h0: subgroup order
    elements: list | None = None  # finite h0: compatible families
    # internal cross-referencing state (not serialized)
    _class_index: dict | None = field(default=None, repr=False)
    # vector carrier: returns (basis, `_b1_echelon` data or None), called on
    # the first read of `basis` or `_b1_echelon`
    _build_bases: Callable[[], tuple[list, tuple | None]] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def _bases(self) -> tuple[list | None, tuple | None]:
        if self._build_bases is None:
            return None, None
        basis, b1_echelon = self._build_bases()
        if len(basis) != self.dim:
            raise VerificationError(f"basis of {len(basis)} vectors disagrees with dim {self.dim}")
        return basis, b1_echelon

    @property
    def basis(self) -> list | None:
        """Vector carrier: Cocycle1 (h1) or Cochain0 (h0), built on first read."""
        return self._bases[0]

    @property
    def _b1_echelon(self) -> tuple[list, list[int]]:
        """`h1_class_coordinates`' data, built with the basis: B1's echelon
        rows as (t, nonzero entries off t), and the free positions."""
        if self._bases[1] is None:
            raise GroupGraphError("result carries no coboundary data (B1 basis)")
        return self._bases[1]

    def size(self):
        """Uniform handle on the result size: dimension or class count."""
        return self.dim if self.carrier == "vector" else self.count

    def to_json(self) -> dict:
        out = {"kind": self.kind, "carrier": self.carrier}
        if self.dim is not None:
            out["dim"] = self.dim
        if self.basis is not None:
            out["basis"] = [b.to_json() for b in self.basis]
        if self.count is not None:
            out["count"] = self.count
        if self.representatives is not None:
            out["representatives"] = [r.to_json() for r in self.representatives]
        if self.order is not None:
            out["order"] = self.order
        if self.elements is not None:
            out["elements"] = [c.to_json() for c in self.elements]
        return out


def h0(g: GroupGraph, budget: int = DEFAULT_ENUM_BUDGET) -> CohomologyResult:
    """Compatible vertex families: the kernel of the difference map, or an
    exhaustive filter."""
    if g.carrier == "vector":
        # the difference map, dim C1 x dim C0, and at most dim C0 kernel
        # vectors of dim C0 entries
        ncols = sum(o.dim for o in g.vobj.values())
        cells = (sum(o.dim for o in g.eobj.values()) + ncols) * ncols
        _check_dense_cells("H0 basis", cells, budget)
        basis, offs = _h0_basis_vector(g, g.base)
        cochains = [
            Cochain0(g, {v: vec[offs[v]: offs[v] + g.vobj[v].dim] for v in offs})
            for vec in basis
        ]
        return CohomologyResult(
            "h0", "vector", dim=len(basis), _build_bases=lambda: (cochains, None)
        )
    tuples, vs = _h0_subgroup_finite(g, g.base, budget)
    found = [Cochain0(g, dict(zip(vs, t))) for t in tuples]
    return CohomologyResult("h0", "finite", order=len(found), elements=found)


def h1_vector(g: GroupGraph, budget: int = DEFAULT_ENUM_BUDGET) -> CohomologyResult:
    """dim H1 = dim Z1 - rank of the coboundary.  B1 is the column space of
    the difference map (the coboundary up to sign), and its rank comes from
    sparse elimination (`linalg.sparse_rank`).  On first read one dense
    `linalg.last_entry_echelon` of the transposed map gives B1's echelon rows
    and the basis: the unit vectors (in the tail coordinates concatenated over
    the edges) at the free positions, those no row has as its t.  That is the
    greedy completion of B1 in coordinate order, which skips e_i exactly when
    some vector of B1 has its last nonzero entry at i.  The size is checked
    against the budget before, and the basis length against `dim` after."""
    if g.carrier != "vector":
        raise GroupGraphError("h1_vector requires the vector carrier")
    rows, _, ncols, eoffs = _difference_map(g, g.base)
    etotal = len(rows)

    def bases():
        # the difference map, dim C1 x dim C0, and at most dim C1 basis
        # vectors of dim C1 entries
        _check_dense_cells("H1 basis", (ncols + etotal) * etotal, budget)
        echelon = linalg.last_entry_echelon(linalg.transpose(linalg.dense(rows, ncols), ncols))
        b1 = [(t, [(j, x) for j, x in enumerate(row) if x and j != t]) for t, row in echelon]
        spanned = {t for t, _ in b1}
        free = [i for i in range(etotal) if i not in spanned]
        basis = []
        for i in free:
            vec = [Fraction(1 if j == i else 0) for j in range(etotal)]
            basis.append(Cocycle1(g, (vec[o: o + g.eobj[e].dim] for e, o in eoffs.items())))
        return basis, (b1, free)

    return CohomologyResult(
        "h1", "vector", dim=etotal - linalg.sparse_rank(rows), _build_bases=bases
    )


def h1_class_coordinates(result: CohomologyResult, z: Cocycle1) -> list[Fraction]:
    """Coordinates of a cocycle class in the chosen H1 basis (vector carrier),
    on the tails concatenated over the sorted edges.

    Subtracting vec[t] * row for every echelon row (t, row) of B1 leaves a
    cohomologous vector with zeros at every t: a row is zero at the other
    rows' t, so each vec[t] is read unchanged.  What remains is supported on
    the free positions, where the basis vectors are the unit vectors, so its
    entries there are the coordinates, which are unique."""
    rows, free = result._b1_echelon
    vec = [x for value in z.tail for x in value]
    for t, entries in rows:
        c = vec[t]
        if c:
            for j, x in entries:
                vec[j] -= c * x
    return [vec[i] for i in free]


def _orbits(g: GroupGraph, budget: int, witnesses: bool = False):
    """Partition Z1 (as tail tuples) into orbits of the vertex-family action.

    The budget bounds |Z1|, checked from its product size before any tuple
    is built; the walk costs |Z1| times the number of moves and never builds
    C0.  Z1 is walked lazily in `itertools.product` order, which is
    lexicographic, so the first unseen tuple of an orbit is its minimum: it is
    the representative, the trivial tuple is class 0, and representatives
    arrive sorted.  Each orbit is explored from it in a LIFO queue with
    single-vertex moves (v, x) for x in `G_v.generators`: the orbits of a
    finite group are those of any generating set (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, 4.1), so which moves reach
    a tuple changes none of the outputs, only the witness recorded for it.
    A move is compiled once, from v's incidences in `g.view`, into (edge
    index, permutation of G_e) over the edges at v: t -> rho_v(x)^-1 t where
    v is the tail, t -> t rho_v(x) where v is the head.

    Returns (representatives, class index of every tuple, witness); with
    `witnesses`, witness[t] is a family over the sorted vertices sending the
    representative of t's orbit to t, else witness is None.
    """
    fv = g.view
    z1_size = math.prod(grp.order for grp in fv.egroups)
    if z1_size > budget:
        raise BudgetExceeded(
            f"Z1 enumeration of {z1_size} cocycles exceeds budget {budget}",
            {"candidates": z1_size, "budget": budget},
        )
    moves = []
    for vi, vgrp in enumerate(fv.vgroups):
        for x in vgrp.generators:
            patches = []
            for i, side in fv.incident[vi]:
                grp = fv.egroups[i]
                r = fv.rho[i][side][x]
                if r == 0:
                    continue  # the identity permutation
                if side == 0:  # v is the tail
                    patches.append((i, grp.table[grp.inverses[r]]))
                else:
                    patches.append((i, tuple(row[r] for row in grp.table)))
            if patches:  # a move that fixes every tuple finds nothing new
                moves.append((vi, tuple(row[x] for row in vgrp.table), patches))

    seen: dict[tuple, int] = {}
    reps: list[tuple] = []
    witness: dict[tuple, tuple] | None = {} if witnesses else None
    for start in itertools.product(*(range(grp.order) for grp in fv.egroups)):
        if start in seen:
            continue
        cls = len(reps)
        reps.append(start)
        seen[start] = cls
        if witness is not None:
            witness[start] = (0,) * len(fv.vertices)
        queue = [start]
        while queue:
            cur = queue.pop()
            for vi, right_mul, patches in moves:
                nxt = list(cur)
                for i, perm in patches:
                    nxt[i] = perm[cur[i]]
                nxt = tuple(nxt)
                if nxt not in seen:
                    seen[nxt] = cls
                    queue.append(nxt)
                    if witness is not None:
                        # acting by c, then by the move, is acting by c * move
                        fam = list(witness[cur])
                        fam[vi] = right_mul[fam[vi]]
                        witness[nxt] = tuple(fam)
    return reps, seen, witness


def h1_finite_bruteforce(g: GroupGraph, budget: int = DEFAULT_ENUM_BUDGET) -> CohomologyResult:
    """Enumerate Z1 and partition into orbits of the vertex-family action.

    Representatives are the orbit minima in the lexicographic order of tail
    tuples, so the privileged class comes first.
    """
    if g.carrier != "finite":
        raise GroupGraphError("h1_finite_bruteforce requires the finite carrier")
    reps, class_index, _ = _orbits(g, budget)
    rep_cocycles = [Cocycle1(g, rep) for rep in reps]
    return CohomologyResult(
        "h1", "finite", count=len(reps), representatives=rep_cocycles, _class_index=class_index
    )


def _family_sum(g: GroupGraph, factor, budget: int, stage: str) -> int:
    """The sum over all vertex families c of C0 of the product over the edges
    e = (a, b) of factor(G_e, rho_a, rho_b)[c_a * |G_b| + c_b], by exact
    variable elimination (Kschischang, Frey and Loeliger, IEEE Trans. IT 47,
    2001), with G_e and the restriction tables read from `g.view`.

    A factor is a scope (sorted vertices) and a flat row-major table over
    their values.  Vertices are summed out in min-degree order in the graph of
    shared scopes, ties by name: the factors that mention v become one factor
    over v's neighbours.  On a tree this peels leaves, and no factor has more
    than two vertices; with cycles the largest factor grows with the
    treewidth.  Every table's cell count is checked against the budget before
    the table is built.  Stale heap entries, whose degree has changed since
    they were pushed, are skipped.  Neither C0 nor Z1 is built.
    """
    order = {v: g.vobj[v].order for v in g.base.vertices}

    def cells(scope) -> int:
        n = math.prod(order[u] for u in scope)
        if n > budget:
            raise BudgetExceeded(
                f"{stage}: a factor over {', '.join(scope)} has {n} cells,"
                f" exceeds budget {budget}",
                {"candidates": n, "budget": budget},
            )
        return n

    fv = g.view
    factors: dict[int, tuple[tuple[str, ...], list[int]]] = {}
    # the factors mentioning v, at first its edges
    at = {v: {i for i, _ in fv.incident[p]} for p, v in enumerate(fv.vertices)}
    nbrs: dict[str, set[str]] = {v: set() for v in order}
    for i, (a, b) in enumerate(fv.edges):
        cells((a, b))
        factors[i] = ((a, b), factor(fv.egroups[i], *fv.rho[i]))
        nbrs[a].add(b)
        nbrs[b].add(a)
    heap = [(len(n), v) for v, n in nbrs.items()]
    heapq.heapify(heap)
    fresh, total = len(factors), 1
    while heap:
        deg, v = heapq.heappop(heap)
        if v not in nbrs or deg != len(nbrs[v]):
            continue
        scope = tuple(sorted(nbrs.pop(v)))
        table = [0] * cells(scope)
        # per factor of v: its table, v's stride, and (position in scope, stride)
        plan = []
        for i in sorted(at.pop(v)):
            fscope, ftable = factors.pop(i)
            strides, s = {}, 1
            for u in reversed(fscope):
                strides[u] = s
                s *= order[u]
            sv = strides.pop(v)
            plan.append((ftable, sv, [(scope.index(u), st) for u, st in strides.items()]))
            for u in fscope:
                if u != v:
                    at[u].discard(i)
        span = order[v]
        for cell, xs in enumerate(itertools.product(*(range(order[u]) for u in scope))):
            rows = []
            for ftable, sv, offs in plan:
                base = sum(xs[p] * st for p, st in offs)
                rows.append(ftable[base: base + sv * span: sv])
            table[cell] = sum(map(math.prod, zip(*rows))) if rows else span
        if not scope:
            total *= table[0]
            continue
        clique = set(scope)
        for u in scope:
            nbrs[u] |= clique
            nbrs[u] -= {u, v}
            at[u].add(fresh)
            heapq.heappush(heap, (len(nbrs[u]), u))
        factors[fresh] = (scope, table)
        fresh += 1
    return total


def _burnside_factor(grp, ra, rb) -> list[int]:
    """N_e(x, y) = #{t in G_e : t^-1 rho_a(x) t = rho_b(y)}, the number of tail
    values at e = (a, b) that the family with c_a = x, c_b = y fixes: the
    centralizer order of rho_a(x) when rho_b(y) is conjugate to it, else 0."""
    label, centralizer = grp.conjugacy
    return [centralizer[p] if label[p] == label[q] else 0 for p in ra for q in rb]


def _compatible_factor(grp, ra, rb) -> list[int]:
    """[rho_a(x) = rho_b(y)] at e = (a, b)."""
    return [int(p == q) for p in ra for q in rb]


def h0_finite_count(g: GroupGraph, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """|H0| of a finite-carrier group-graph, the number of compatible vertex
    families, counted by `_family_sum` without building any family."""
    if g.carrier != "finite":
        raise GroupGraphError("h0_finite_count requires the finite carrier")
    return _family_sum(g, _compatible_factor, budget, "H0 count")


def h1_finite_count(g: GroupGraph, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """|H1| of a finite-carrier group-graph by Burnside's lemma, without
    building Z1 or C0.

    The classes are the orbits of C0 on Z1 (one tail value per edge), so
    |H1| = (1/|C0|) sum over c of |Fix(c)|, and |Fix(c)| is the product over
    the edges of `_burnside_factor`; `_family_sum` evaluates the sum.  A
    remainder in the division raises VerificationError.
    """
    if g.carrier != "finite":
        raise GroupGraphError("h1_finite_count requires the finite carrier")
    fixed = _family_sum(g, _burnside_factor, budget, "H1 Burnside count")
    c0_size = math.prod(g.vobj[v].order for v in g.base.vertices)
    count, remainder = divmod(fixed, c0_size)
    if remainder:
        raise VerificationError(
            f"Burnside sum {fixed} leaves remainder {remainder} modulo |C0| = {c0_size}"
        )
    return count


def h1_class_of(result: CohomologyResult, z: Cocycle1) -> int:
    if result._class_index is None:
        raise GroupGraphError("result carries no class index")
    return result._class_index[z.tail]


def push_cocycle(m: GroupGraphMorphism, z: Cocycle1) -> Cocycle1:
    """Push a cocycle on the source through the morphism along its
    `push_plan`; collapsed edges get 1.

    The tail value of an edge (a, b) is the image of the source value at the
    incidence (over(a), over(e)): the tail value there, or its inverse."""
    g2 = m.target
    tail = []
    for e, step in zip(g2.base.sorted_edges(), m.push_plan):
        if step is None:
            tail.append(g2.eobj[e].identity())
            continue
        i, flip, hom = step
        x = z.tail[i]
        tail.append(hom.apply(hom.source.inv(x) if flip else x))
    return Cocycle1(g2, tail)


@dataclass
class H1Map:
    """The induced map on H1, with both sides' results attached."""

    morphism: GroupGraphMorphism
    source_result: CohomologyResult
    target_result: CohomologyResult
    carrier: str
    mapping: list | None = None  # finite: class index per source class
    matrix: list | None = None  # vector: target-basis coordinates, one column per source basis class

    @cached_property
    def image_size(self) -> int:
        """Dimension or class count of the image, computed on first use."""
        if self.carrier == "finite":
            return len(set(self.mapping))
        return linalg.rank(self.matrix)

    def is_injective(self) -> bool:
        return self.image_size == self.source_result.size()

    def is_surjective(self) -> bool:
        return self.image_size == self.target_result.size()

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


def h1_map(m: GroupGraphMorphism, budget: int = DEFAULT_ENUM_BUDGET) -> H1Map:
    """Compute H1 on both sides and the induced map on classes."""
    if m.source.carrier == "finite":
        src = h1_finite_bruteforce(m.source, budget)
        tgt = h1_finite_bruteforce(m.target, budget)
        mapping = [
            h1_class_of(tgt, push_cocycle(m, rep)) for rep in src.representatives
        ]
        return H1Map(m, src, tgt, "finite", mapping=mapping)
    src = h1_vector(m.source, budget)
    tgt = h1_vector(m.target, budget)
    cols = [
        h1_class_coordinates(tgt, push_cocycle(m, b)) for b in src.basis
    ]
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(tgt.dim)]
    return H1Map(m, src, tgt, "vector", matrix=matrix)


def h1_auto(g: GroupGraph, budget: int = DEFAULT_ENUM_BUDGET) -> CohomologyResult:
    return h1_vector(g, budget) if g.carrier == "vector" else h1_finite_bruteforce(g, budget)

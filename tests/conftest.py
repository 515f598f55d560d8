
import pytest

from groupgraph import linalg
from groupgraph.graph import Graph
from groupgraph.group_graph import (
    GroupGraph,
    GroupHom,
    VectorSpace,
)


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

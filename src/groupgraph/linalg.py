"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions; a matrix with zero rows or zero
columns is legal and shows up constantly (trivial vector spaces).  Everything
here is exact: no tolerances anywhere.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction

Vector = list[Fraction]
Matrix = list[list[Fraction]]
SparseRow = dict[int, Fraction]  # column -> nonzero entry


# The strings frac_to_json writes.  Fraction alone also reads decimals and
# exponents, and builds 10**exp exactly: "1e10000000" would stall the parser.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def frac(x) -> Fraction:
    """Coerce ints, strings 'p' or 'p/q' (integers p, q) and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ValueError(f"not an exact rational: {x!r}")
        try:
            return Fraction(x)
        except ZeroDivisionError:  # "1/0" is a string, not a rational
            raise ValueError(f"not an exact rational: {x!r}") from None
    if isinstance(x, int) and not isinstance(x, bool):  # JSON true is not 1
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def mat(rows) -> Matrix:
    return [[frac(x) for x in row] for row in rows]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in m]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # a: r x k, b: k x c.  Empty dimensions compose to zero matrices.
    r = len(a)
    k = len(a[0]) if a else 0
    c = len(b[0]) if b else 0
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(c)]
        for i in range(r)
    ]


def transpose(m: Matrix, ncols: int | None = None) -> Matrix:
    if not m:
        return [[] for _ in range(ncols)] if ncols else []
    return [list(col) for col in zip(*m)]


def vec_add(u: Vector, v: Vector) -> Vector:
    return [a + b for a, b in zip(u, v)]


def vec_neg(u: Vector) -> Vector:
    return [-a for a in u]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).

    The rows from the current one down are zero left of the current column,
    so the pivot row is scaled (unless its pivot is 1) and subtracted only
    over its nonzero columns, from the pivot column on."""
    r = [row[:] for row in m]
    nrows = len(r)
    ncols = len(r[0]) if r else 0
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, nrows) if r[i][col] != 0), None)
        if pivot is None:
            continue
        r[row], r[pivot] = r[pivot], r[row]
        prow = r[row]
        nonzero = [j for j in range(col, ncols) if prow[j] != 0]
        if prow[col] != 1:
            inv = 1 / prow[col]
            for j in nonzero:
                prow[j] *= inv
        for i in range(nrows):
            f = r[i][col]
            if i != row and f != 0:
                ri = r[i]
                for j in nonzero:
                    ri[j] -= f * prow[j]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return r, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def dense(rows: list[SparseRow], ncols: int) -> Matrix:
    """Sparse rows as a dense matrix with ncols columns."""
    out = []
    for r in rows:
        row = [Fraction(0)] * ncols
        for j, x in r.items():
            row[j] = x
        out.append(row)
    return out


def sparse_rank(rows: list[SparseRow]) -> int:
    """Rank of a matrix given as sparse rows, by exact forward elimination.

    Each step pivots on a column with the fewest nonzero entries left (ties by
    column index), in its shortest row (ties by row index), and clears the
    column from the other rows.  On the difference map of a tree a leaf's
    column has one entry, so the elimination peels leaves and creates no
    fill-in (Parter, SIAM Review 3, 1961).  With cycles it stays exact, only
    with fill-in.  Stale heap entries, whose count has changed since they
    were pushed, are skipped.
    """
    rows = [dict(r) for r in rows]
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    heap = [(len(s), j) for j, s in col_rows.items()]
    heapq.heapify(heap)
    rk = 0
    while heap:
        count, j = heapq.heappop(heap)
        live = col_rows[j]
        if not live or count != len(live):
            continue
        p = min(live, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        for c in prow:
            col_rows[c].discard(p)
        for i in list(live):
            r = rows[i]
            f = r[j] / prow[j]
            for c, x in prow.items():
                y = r.get(c, 0) - f * x
                if y:
                    r[c] = y
                    col_rows[c].add(i)
                else:
                    del r[c]
                    col_rows[c].discard(i)
        rk += 1
        for c in prow:
            if col_rows[c]:
                heapq.heappush(heap, (len(col_rows[c]), c))
    return rk


def kernel_basis(m: Matrix, ncols: int) -> list[Vector]:
    """Basis of the null space of an (nrows x ncols) matrix."""
    r, pivots = rref(m)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def row_space_basis(m: Matrix) -> list[Vector]:
    r, pivots = rref(m)
    return [r[i] for i in range(len(pivots))]


def last_entry_echelon(vectors: list[Vector]) -> list[tuple[int, Vector]]:
    """The reduced echelon basis of span(vectors) with its columns reversed,
    read back in the original column order: one pair (t, row) per pivot.

    Each row has a 1 at t, zeros at the other rows' t and zeros after t, so
    the t are exactly the last nonzero positions that vectors of the span can
    have (reversing the columns turns last nonzero entries into first ones,
    and the first nonzero positions of a subspace are the pivot columns of
    its rref).  Rows come in decreasing t.
    """
    dim = len(vectors[0]) if vectors else 0
    r, pivots = rref([v[::-1] for v in vectors])
    return [(dim - 1 - p, r[i][::-1]) for i, p in enumerate(pivots)]


def quotient_section(sub_basis: list[Vector], dim: int) -> Matrix:
    """Right inverse of the quotient map Q^dim -> Q^(dim-k) whose rows are
    kernel_basis(sub_basis, dim), the functionals that kill span(sub_basis):
    embeds quotient coordinates on the free slots."""
    _, pivots = rref(sub_basis)
    free = [j for j in range(dim) if j not in pivots]
    sec = zeros(dim, len(free))
    for col, f in enumerate(free):
        sec[f][col] = Fraction(1)
    return sec


def kron(a: Matrix, a_shape: tuple[int, int], b: Matrix, b_shape: tuple[int, int]) -> Matrix:
    """Kronecker product with explicit shapes so empty matrices work."""
    ar, ac = a_shape
    br, bc = b_shape
    out = zeros(ar * br, ac * bc)
    for i in range(ar):
        for j in range(ac):
            for k in range(br):
                for l in range(bc):
                    out[i * br + k][j * bc + l] = a[i][j] * b[k][l]
    return out


def frac_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_to_json(m: Matrix) -> list[list]:
    return [[frac_to_json(x) for x in row] for row in m]


def matrix_from_json(rows) -> Matrix:
    return mat(rows)

"""Projective linear algebra over GF(q).

Points of PG(n,q) are (n+1)-tuples of element encodings normalized so the
first nonzero coordinate is 1.  Subspaces are kept in reduced row-echelon
form, which is the only canonical form, equality test and hash key used
anywhere in the package.  The empty subspace (projective dimension -1) is
the empty row tuple.

RREF is also the coordinate system: each row's pivot is its leading 1, and
every other row is 0 in that column, so a vector of the span has as its
coordinates in the rows its own entries at the pivots.  reduce_against is
the one routine that tests whether a vector lies in a span.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .gf import GF

Vector = tuple[int, ...]


def rref(field: GF, rows) -> tuple[Vector, ...]:
    """Reduced row-echelon form; zero rows dropped, pivots scaled to 1."""
    work = [list(int(x) for x in r) for r in rows]
    if work:
        width = len(work[0])
        for r in work:
            if len(r) != width:
                raise ValueError("rows of unequal length")
    add, mul, neg, inv = field.addl, field.mull, field.negl, field.invl
    nrows = len(work)
    piv = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        sel = None
        for i in range(piv, nrows):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[piv], work[sel] = work[sel], work[piv]
        row = work[piv]
        c = row[col]
        if c != 1:
            ic = inv[c]
            mic = mul[ic]
            work[piv] = row = [mic[x] for x in row]
        for i in range(nrows):
            if i != piv and work[i][col]:
                f = neg[work[i][col]]
                mf = mul[f]
                tgt = work[i]
                work[i] = [add[t][mf[r]] for t, r in zip(tgt, row)]
        piv += 1
        if piv == nrows:
            break
    return tuple(tuple(r) for r in work[:piv])


@dataclass(frozen=True)
class Subspace:
    """A projective subspace: canonical RREF basis over a shared field."""

    field: GF
    n: int  # ambient projective dimension
    rows: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        """Projective dimension; -1 for the empty subspace."""
        return len(self.rows) - 1

    def contains_point(self, v: Vector) -> bool:
        return reduce_against(self.field, self.rows, v) is None

    def to_json(self):
        return [list(r) for r in self.rows]


def canonicalize(field: GF, n: int, rows) -> Subspace:
    """Subspace spanned by the given vectors (any list, any redundancy)."""
    for r in rows:
        if len(r) != n + 1:
            raise ValueError(f"row length {len(r)} != ambient {n + 1}")
    return Subspace(field, n, rref(field, rows))


def reduce_against(field: GF, rows, v: Vector):
    """Reduce v against RREF rows: None if v lies in the span, else the
    nonzero residue."""
    add, mul, neg = field.addl, field.mull, field.negl
    w = v
    for r in rows:
        c = w[r.index(1)]  # the leading 1 of r is its pivot
        if c:
            mf = mul[neg[c]]
            w = [add[a][mf[b]] for a, b in zip(w, r)]
    if any(w):
        return tuple(w)
    return None


def span(a: Subspace, b: Subspace) -> Subspace:
    if a.n != b.n or a.field != b.field:
        raise ValueError("span of subspaces in different ambient spaces")
    return Subspace(a.field, a.n, rref(a.field, a.rows + b.rows))


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, as the common solutions of the linear forms vanishing
    on A or on B: the nullspace of their nullspaces, in canonical RREF."""
    if a.n != b.n or a.field != b.field:
        raise ValueError("meet of subspaces in different ambient spaces")
    field, n = a.field, a.n
    return nullspace(field, nullspace(field, a.rows, n).rows
                     + nullspace(field, b.rows, n).rows, n)


def nullspace(field: GF, rows, n: int) -> Subspace:
    """Solutions x of M x^T = 0 for the given row matrix M, as a subspace
    of PG(n,q) (rows have length n+1).

    M is reduced from the right, as the RREF of its columns reversed, so
    each row's pivot p is its last nonzero entry.  For each other column j
    the kernel holds e_j - sum over the rows of M[p][j] e_p, which is 1 at
    j, 0 at the other free columns, and nonzero only at pivots p > j: these
    vectors, by increasing j, are already the kernel's RREF.
    """
    # red[i][n - j] is entry j of row i of M reduced from the right
    red = rref(field, [tuple(r)[::-1] for r in rows])
    pivots = {n - r.index(1): r for r in red}
    neg = field.negl
    basis = []
    for j in range(n + 1):
        if j not in pivots:
            v = [0] * (n + 1)
            v[j] = 1
            for p, r in pivots.items():
                v[p] = neg[r[n - j]]
            basis.append(tuple(v))
    return Subspace(field, n, tuple(basis))


def subspace_points(field: GF, rows) -> list[Vector]:
    """All projective points of the row span, in lexicographic order.

    Combination vectors with first nonzero coefficient 1 against an RREF
    basis already produce normalized points.
    """
    k = len(rows)
    if k == 0:
        return []
    add, mul = field.addl, field.mull
    pts = []
    for lead in range(k):
        base = rows[lead]
        tails = product(range(field.q), repeat=k - lead - 1)
        for tail in tails:
            v = list(base)
            for c, r in zip(tail, rows[lead + 1:]):
                if c:
                    mc = mul[c]
                    v = [add[a][mc[b]] for a, b in zip(v, r)]
            pts.append(tuple(v))
    pts.sort()
    return pts


def enumerate_pg_points(n: int, field: GF) -> list[Vector]:
    """The theta_n(q) = (q^{n+1}-1)/(q-1) points of PG(n,q), lex order."""
    # a later leading column is lex-smaller, and product runs in lex order
    return [(0,) * lead + (1,) + tail for lead in range(n, -1, -1)
            for tail in product(range(field.q), repeat=n - lead)]


def theta(n: int, q: int) -> int:
    """Number of points of PG(n,q); theta(-1) = 0."""
    if n < 0:
        return 0
    return (q ** (n + 1) - 1) // (q - 1)

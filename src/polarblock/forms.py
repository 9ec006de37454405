"""Quadratic and hermitian forms on PG(n,q), their polarizations and perps.

Quadratic forms are stored as upper-triangular coefficient matrices
(Q(v) = sum c_ij v_i v_j over i <= j); hermitian forms as a hermitian Gram
matrix (H(u,v) = u G conj(v)^T, G = conj(G)^T).  Restriction to a row
parameterization keeps the representation closed, so quotient geometries
and hyperplane sections reuse the same machinery.

For parabolic quadrics in characteristic 2 the polarization is alternating
with the nucleus as radical; there the perp of a set is the intersection
of the tangent hyperplanes at its singular points, which on totally
singular subspaces agrees with the generic kernel computation.
"""

from __future__ import annotations

import numpy as np

from .gf import GF, make_field
from .projective import Subspace, nullspace, subspace_points

QUADRATIC_KINDS = ("parabolic", "elliptic", "hyperbolic")
KINDS = QUADRATIC_KINDS + ("hermitian",)


class Form:
    """A quadratic or hermitian form with precomputed polarization Gram."""

    def __init__(self, kind: str, field: GF, n: int, coeff):
        if kind not in KINDS:
            raise ValueError(f"unknown form kind {kind!r}")
        self.kind = kind
        self.field = field
        self.n = n
        self.coeff = tuple(tuple(int(x) for x in row) for row in coeff)
        if len(self.coeff) != n + 1 or any(len(r) != n + 1 for r in self.coeff):
            raise ValueError("coefficient matrix shape mismatch")
        if kind == "hermitian":
            if field.sub_order is None:
                raise ValueError("hermitian form needs a field of square order")
            conj = field.conjugate
            for i in range(n + 1):
                for j in range(n + 1):
                    if self.coeff[i][j] != conj(self.coeff[j][i]):
                        raise ValueError("hermitian Gram matrix is not hermitian")
            self.gram = self.coeff
        else:
            add = field.addl
            c = self.coeff
            self.gram = tuple(
                tuple(add[c[i][j]][c[j][i]] for j in range(n + 1))
                for i in range(n + 1)
            )

    def __repr__(self):
        return f"Form({self.kind}, n={self.n}, GF({self.field.q}))"

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and (self.kind, self.field, self.n, self.coeff)
            == (other.kind, other.field, other.n, other.coeff)
        )

    def __hash__(self):
        return hash((self.kind, self.field, self.n, self.coeff))

    # -- evaluation ---------------------------------------------------------

    def eval(self, v) -> int:
        f = self.field
        add, mul = f.addl, f.mull
        if len(v) != self.n + 1:
            raise ValueError(f"vector length {len(v)} != ambient {self.n + 1}")
        acc = 0
        if self.kind == "hermitian":
            conj = f.conj_table
            for i, ci in enumerate(self.coeff):
                vi = v[i]
                if not vi:
                    continue
                for j, c in enumerate(ci):
                    if c and v[j]:
                        acc = add[acc][mul[mul[vi][int(conj[v[j]])]][c]]
        else:
            for i, ci in enumerate(self.coeff):
                vi = v[i]
                if not vi:
                    continue
                for j in range(i, self.n + 1):
                    c = ci[j]
                    if c and v[j]:
                        acc = add[acc][mul[mul[vi][v[j]]][c]]
        return acc

    def polarize(self, u, v) -> int:
        """B(u,v) = Q(u+v) - Q(u) - Q(v) for quadratic kinds; the
        sesquilinear H(u,v) for hermitian."""
        if len(u) != self.n + 1 or len(v) != self.n + 1:
            raise ValueError("vector length mismatch")
        f = self.field
        add, mul = f.addl, f.mull
        acc = 0
        if self.kind == "hermitian":
            conj = f.conj_table
            for i, gi in enumerate(self.gram):
                ui = u[i]
                if not ui:
                    continue
                for j, g in enumerate(gi):
                    if g and v[j]:
                        acc = add[acc][mul[mul[ui][int(conj[v[j]])]][g]]
        else:
            for i, gi in enumerate(self.gram):
                ui = u[i]
                if not ui:
                    continue
                for j, g in enumerate(gi):
                    if g and v[j]:
                        acc = add[acc][mul[mul[ui][v[j]]][g]]
        return acc

    # -- vectorized scans ----------------------------------------------------

    def eval_batch(self, pts: np.ndarray) -> np.ndarray:
        """Form values on a matrix of row vectors (encodings)."""
        f = self.field
        ADD, MUL = f.add_table, f.mul_table
        acc = np.zeros(len(pts), dtype=ADD.dtype)
        if self.kind == "hermitian":
            CONJ = f.conj_table
            cpts = CONJ[pts]
            for i in range(self.n + 1):
                for j in range(self.n + 1):
                    c = self.coeff[i][j]
                    if c:
                        term = MUL[pts[:, i], cpts[:, j]]
                        if c != 1:
                            term = MUL[c][term]
                        acc = ADD[acc, term]
        else:
            for i in range(self.n + 1):
                for j in range(i, self.n + 1):
                    c = self.coeff[i][j]
                    if c:
                        term = MUL[pts[:, i], pts[:, j]]
                        if c != 1:
                            term = MUL[c][term]
                        acc = ADD[acc, term]
        return acc

    def _polar_row(self, u) -> list[int]:
        """w = u G, so that B(u, x) = sum_j w_j x_j (with x_j conjugated on
        a hermitian form)."""
        add, mul = self.field.addl, self.field.mull
        w = [0] * (self.n + 1)
        for ui, gi in zip(u, self.gram):
            if ui:
                mu = mul[ui]
                for j, g in enumerate(gi):
                    if g:
                        w[j] = add[w[j]][mu[g]]
        return w

    def _polar_values(self, u, xs: np.ndarray) -> np.ndarray:
        """B(u, x) over the rows x of xs, which a hermitian form takes
        already conjugated."""
        ADD, MUL = self.field.add_table, self.field.mul_table
        acc = np.zeros(len(xs), dtype=ADD.dtype)
        for j, wj in enumerate(self._polar_row(u)):
            if wj:
                acc = ADD[acc, MUL[wj][xs[:, j]]]
        return acc

    def _conjugated(self, pts: np.ndarray) -> np.ndarray:
        return self.field.conj_table[pts] if self.kind == "hermitian" else pts

    def polarize_batch(self, u, pts: np.ndarray) -> np.ndarray:
        """B(u, x) (or H(u, x)) for one u against a matrix of points."""
        return self._polar_values(u, self._conjugated(pts))

    def polar_rows(self, pts: np.ndarray) -> np.ndarray:
        """Rows C with B(u, x) (or H(u, x)) = sum_i u_i C[i, x] over a
        matrix of points x, so that each u then costs one table pass per
        nonzero coordinate.  Row i is B(e_i, x)."""
        xs = self._conjugated(pts)
        return np.array([self._polar_values(e, xs) for e in _unit_rows(self.n)])

    # -- structure -----------------------------------------------------------

    def bilinear_radical(self) -> Subspace:
        """Kernel of the polarization (nucleus point for even parabolic)."""
        return nullspace(self.field, self.gram, self.n)

    def perp(self, sub: Subspace) -> Subspace:
        """The polarity image of a subspace.

        For parabolic forms in characteristic 2 this is the intersection of
        the tangent hyperplanes at the singular points of the input, which
        requires at least one singular point; for totally singular inputs
        the basis rows suffice.  All other kinds use the polarization
        kernel directly.
        """
        f = self.field
        if self.kind == "parabolic" and f.p == 2:
            if is_totally_singular(self, sub):
                gen_rows = sub.rows
            else:
                gen_rows = tuple(
                    p for p in subspace_points(f, sub.rows) if self.eval(p) == 0
                )
                if not gen_rows:
                    raise ValueError(
                        "perp of an even-characteristic parabolic needs a "
                        "singular point in the input subspace"
                    )
        else:
            gen_rows = sub.rows
        if not gen_rows:
            return Subspace(f, self.n, _unit_rows(self.n))
        mrows = [self._polar_row(u) for u in gen_rows]
        if self.kind == "hermitian":
            mrows = [f.conj_table[w].tolist() for w in mrows]
        return nullspace(f, mrows, self.n)

    def restrict(self, rows) -> "Form":
        """The form induced on the row span, in row coordinates.

        For quadratic kinds the new upper-triangular matrix is Q on the
        diagonal and B off it; this is exact in every characteristic.
        """
        m = len(rows)
        if self.kind == "hermitian":
            coeff = [[self.polarize(rows[a], rows[b]) for b in range(m)]
                     for a in range(m)]
        else:
            coeff = [[0] * m for _ in range(m)]
            for a in range(m):
                coeff[a][a] = self.eval(rows[a])
                for b in range(a + 1, m):
                    coeff[a][b] = self.polarize(rows[a], rows[b])
        return Form(self.kind, self.field, m - 1, coeff)


def is_totally_singular(form: Form, sub: Subspace) -> bool:
    """All points singular: basis rows singular and pairwise polar."""
    rows = sub.rows
    for r in rows:
        if form.eval(r) != 0:
            return False
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            if form.polarize(rows[a], rows[b]) != 0:
                return False
    return True


# -- standard forms ----------------------------------------------------------


def _unit_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The unit vectors e_0, ..., e_n: the RREF basis of all of PG(n,q)."""
    return tuple(tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1))


def _zero(n: int):
    return [[0] * (n + 1) for _ in range(n + 1)]


def parabolic_form(rank: int, field: GF) -> Form:
    """X0^2 + X1 X2 + ... + X_{2n-1} X_{2n} on PG(2n,q), n = rank."""
    n = 2 * rank
    c = _zero(n)
    c[0][0] = 1
    for i in range(rank):
        c[2 * i + 1][2 * i + 2] = 1
    return Form("parabolic", field, n, c)


def elliptic_g(field: GF) -> tuple[int, int, int]:
    """Coefficients (a, b, c) of the fixed irreducible g = a X0^2 + b X0 X1
    + c X1^2: q odd uses X0^2 - d X1^2 with d the smallest non-square, q
    even uses X0^2 + X0 X1 + c X1^2 with c the smallest trace-1 element."""
    q = field.q
    if field.p != 2:
        squares = {field.mul(x, x) for x in range(q)}
        d = min(x for x in range(q) if x not in squares)
        g = (1, 0, field.neg(d))
    else:
        def abs_trace(x):
            acc = 0
            y = x
            for _ in range(field.h):
                acc = field.add(acc, y)
                y = field.mul(y, y)
            return acc

        c = min(x for x in range(q) if abs_trace(x) == 1)
        g = (1, 1, c)
    for x in range(q):  # irreducibility: g(x, 1) has no root
        v = field.add(field.add(field.mul(g[0], field.mul(x, x)),
                                field.mul(g[1], x)), g[2])
        if v == 0:
            raise RuntimeError(f"elliptic g reducible over GF({q})")
    return g


def elliptic_form(rank: int, field: GF) -> Form:
    """g(X0,X1) + X2 X3 + ... + X_{2n} X_{2n+1} on PG(2n+1,q), n = rank."""
    n = 2 * rank + 1
    a, b, c = elliptic_g(field)
    m = _zero(n)
    m[0][0] = a
    m[0][1] = b
    m[1][1] = c
    for i in range(1, rank + 1):
        m[2 * i][2 * i + 1] = 1
    return Form("elliptic", field, n, m)


def hyperbolic_form(rank: int, field: GF) -> Form:
    """X0 X1 + ... + X_{2n} X_{2n+1} on PG(2n+1,q), n+1 = rank."""
    n = 2 * rank - 1
    m = _zero(n)
    for i in range(rank):
        m[2 * i][2 * i + 1] = 1
    return Form("hyperbolic", field, n, m)


def hermitian_form(n: int, base_q: int) -> Form:
    """X0^{q+1} + ... + Xn^{q+1} on PG(n,q^2): identity Gram matrix."""
    field = _square_field(base_q)
    m = _zero(n)
    for i in range(n + 1):
        m[i][i] = 1
    return Form("hermitian", field, n, m)


def _square_field(base_q: int) -> GF:
    from .gf import field_of_order

    base = field_of_order(base_q)
    return make_field(base.p, 2 * base.h)

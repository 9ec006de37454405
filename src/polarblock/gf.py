"""Exact arithmetic in GF(p^h) for small prime powers.

Elements are encoded as integers 0..q-1: the element sum(a_i x^i) of the
quotient ring GF(p)[x]/(modulus) is stored as sum(a_i p^i) (base-p,
little-endian), so 0 encodes 0 and 1 encodes 1, and the lexicographic
order of coordinate vectors downstream is the numeric order of encodings.

Fields of square order q0^2 expose the conjugation a -> a^q0 needed by
hermitian forms.

GF.combine sums c*x over arrays of encodings for scalar coefficients c,
by lookups in the mul table, adding by the add table or, over
characteristic 2, by XOR.  The batched form values,
polarizations, hyperplane tests and incidence scans of the package all go
through it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# GF(25) keeps x^2 + x + 1 (constant term first) where the lex-least search
# below would pick x^2 + 2: every GF(25) encoding, and so every hash and
# index over it, depends on this choice.  Every other field's is searched.
_FIXED_MODULI = {(5, 2): (1, 1, 1)}

MAX_ORDER = 1024


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(a: int, p: int, h: int) -> list[int]:
    out = []
    for _ in range(h):
        out.append(a % p)
        a //= p
    return out


def _encode(digits, p: int) -> int:
    a = 0
    for d in reversed(digits):
        a = a * p + d
    return a


def _poly_mul_mod(a: int, b: int, p: int, h: int, modulus) -> int:
    """Multiply two encoded elements modulo the (monic) modulus."""
    da = _digits(a, p, h)
    db = _digits(b, p, h)
    prod = [0] * (2 * h - 1)
    for i, ai in enumerate(da):
        if ai:
            for j, bj in enumerate(db):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^h = -(modulus minus leading term)
    red = [(-c) % p for c in modulus[:h]]
    for k in range(2 * h - 2, h - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(h):
                prod[k - h + j] = (prod[k - h + j] + c * red[j]) % p
    return _encode(prod[:h], p)


def _poly_is_irreducible(coeffs, p: int) -> bool:
    """Trial division of a monic polynomial by all lower-degree monics."""
    h = len(coeffs) - 1
    if h == 1:
        return True
    if coeffs[0] == 0:
        return False
    for d in range(1, h // 2 + 1):
        for enc in range(p ** d):
            div = _digits(enc, p, d) + [1]
            if _poly_remainder_is_zero(coeffs, div, p):
                return False
    return True


def _poly_remainder_is_zero(num, den, p: int) -> bool:
    rem = list(num)
    dd = len(den) - 1
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            for j in range(dd + 1):
                rem[k - dd + j] = (rem[k - dd + j] - c * den[j]) % p
    return all(c == 0 for c in rem[:dd])


def _find_modulus(p: int, h: int):
    if (p, h) in _FIXED_MODULI:
        return _FIXED_MODULI[(p, h)]
    if h == 1:
        return (0, 1)  # the polynomial x; unused for prime fields
    # lexicographically smallest monic irreducible of degree h
    for enc in range(p ** h):
        coeffs = tuple(_digits(enc, p, h)) + (1,)
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible polynomial found for GF({p}^{h})")


class GF:
    """Arithmetic tables for GF(p^h), immutable once built.

    Attributes
    ----------
    p, h, q : characteristic, extension degree, order p^h
    modulus : little-endian coefficient tuple of the fixed irreducible
    add_table, mul_table : q x q numpy arrays (also usable for vectorized
        gathers: ``ADD[a, b]`` elementwise over index arrays)
    """

    def __init__(self, p: int, h: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if h < 1:
            raise ValueError(f"extension degree must be >= 1, got {h}")
        q = p ** h
        if q > MAX_ORDER:
            raise ValueError(f"order {q} exceeds supported maximum {MAX_ORDER}")
        self.p = p
        self.h = h
        self.q = q
        self.modulus = _find_modulus(p, h)

        dt = np.uint16 if q > 255 else np.uint8
        a = np.arange(q, dtype=np.int64)
        if h == 1:
            add = (a[:, None] + a[None, :]) % p
            mul = (a[:, None] * a[None, :]) % p
        else:
            # base-p digit vectors: addition is digitwise mod p
            digs = np.stack([(a // p ** i) % p for i in range(h)], axis=1)
            sdig = (digs[:, None, :] + digs[None, :, :]) % p
            add = np.zeros((q, q), dtype=np.int64)
            for i in range(h):
                add += sdig[:, :, i] * p ** i
            mul = np.zeros((q, q), dtype=np.int64)
            for x in range(q):
                for y in range(x, q):
                    v = _poly_mul_mod(x, y, p, h, self.modulus)
                    mul[x, y] = v
                    mul[y, x] = v
        self.add_table = add.astype(dt)
        self.mul_table = mul.astype(dt)

        neg = np.empty(q, dtype=dt)
        for x in range(q):
            col = np.nonzero(add[x] == 0)[0]
            neg[x] = col[0]
        self.neg_table = neg

        inv = np.zeros(q, dtype=dt)
        for x in range(1, q):
            col = np.nonzero(mul[x] == 1)[0]
            if len(col) != 1:
                raise RuntimeError(f"modulus for GF({p}^{h}) is not irreducible")
            inv[x] = col[0]
        self.inv_table = inv

        # plain nested tuples: faster than numpy for scalar-heavy loops
        self.addl = tuple(tuple(int(v) for v in row) for row in self.add_table)
        self.mull = tuple(tuple(int(v) for v in row) for row in self.mul_table)
        self.negl = tuple(int(v) for v in self.neg_table)
        self.invl = tuple(int(v) for v in self.inv_table)

        if h % 2 == 0:
            q0 = p ** (h // 2)
            self.sub_order = q0
            self.conj_table = np.array([self.pow(x, q0) for x in range(q)], dtype=dt)
        else:
            self.sub_order = None
            self.conj_table = None

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.h) == (other.p, other.h)

    def __hash__(self):
        return hash((self.p, self.h))

    # -- scalar operations -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.addl[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.addl[a][self.negl[b]]

    def neg(self, a: int) -> int:
        return self.negl[a]

    def mul(self, a: int, b: int) -> int:
        return self.mull[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in " + repr(self))
        return self.invl[a]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by 0 in " + repr(self))
        return self.mull[a][self.invl[b]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mull[r][a]
            a = self.mull[a][a]
            e >>= 1
        return r

    def conjugate(self, a: int) -> int:
        """x -> x^q0 on a field of square order q0^2."""
        if self.conj_table is None:
            raise ValueError(f"order {self.q} is not a square; no conjugation")
        return int(self.conj_table[a])

    # -- vectorized operations ---------------------------------------------

    def combine(self, coeffs, rows) -> np.ndarray:
        """sum_i coeffs[i] * rows[i], elementwise over arrays of encodings.

        Zero coefficients are skipped, a row whose coefficient is 1 is used
        as is, and the first nonzero term starts the sum, so the result may
        be one of the rows themselves: callers only read it.  All-zero
        coefficients give zeros of the row shape.  Over characteristic 2
        an encoding is a bit vector of GF(2) digits, so a sum is an XOR."""
        ADD, MUL = self.add_table, self.mul_table
        xor = self.p == 2
        acc = None
        for c, row in zip(coeffs, rows):
            if c:
                term = row if c == 1 else MUL[c][row]
                if acc is None:
                    acc = term
                else:
                    acc = acc ^ term if xor else ADD[acc, term]
        if acc is None:
            return np.zeros(np.shape(rows[0]), dtype=ADD.dtype)
        return acc


@lru_cache(maxsize=None)
def make_field(p: int, h: int = 1) -> GF:
    """Build (and memoize) the field GF(p^h); deterministic per (p, h)."""
    return GF(p, h)


def field_of_order(q: int) -> GF:
    """GF(q) for a prime power q, factoring q as p^h; an order over
    MAX_ORDER is refused before any factoring."""
    if q > MAX_ORDER:
        raise ValueError(f"order {q} exceeds supported maximum {MAX_ORDER}")
    for p in range(2, q + 1):
        if is_prime(p) and q % p == 0:
            h = 0
            m = q
            while m % p == 0:
                m //= p
                h += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return make_field(p, h)
    raise ValueError(f"{q} is not a prime power")

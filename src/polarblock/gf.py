"""Exact arithmetic in GF(p^h) for small prime powers.

Elements are encoded as integers 0..q-1: the element sum(a_i x^i) of the
quotient ring GF(p)[x]/(modulus) is stored as sum(a_i p^i) (base-p,
little-endian), so 0 encodes 0 and 1 encodes 1, and the lexicographic
order of coordinate vectors downstream is the numeric order of encodings.

The tables are built by one path for prime and extension fields alike.
The add table is summed one base-p digit plane at a time: digit j of a + b
is (a_j + b_j) mod p.  Multiplication by x is GF(p)-linear on digits: those
of x^(k+1) b are those of x^k b shifted up one place, the top digit folded
back in through x^h = -(modulus without its leading term).  Row a + p^k of
the mul table is row a plus x^k b, so the rows below p^(k+1) follow from
those below p^k by lookups in the add table, q^2 lookups in all.  The neg
and inv tables are read off add == 0 and mul == 1.

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


# Miller-Rabin to the 13 prime bases up to 41 is exact below psi_13, the
# least strong pseudoprime to all of them (Sorenson and Webster, Math. Comp.
# 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n below _MR_LIMIT; ValueError at or above it."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digits(a: int, p: int, h: int) -> list[int]:
    out = []
    for _ in range(h):
        out.append(a % p)
        a //= p
    return out


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
        # is_prime refuses p >= _MR_LIMIT > 2^81, so up to this degree p^h
        # has at most 1,600 digits; past it the order is refused before the
        # power, which for a huge h would not fit in memory
        if h > 64:
            raise ValueError(f"order {p}^{h} exceeds supported maximum "
                             f"{MAX_ORDER}")
        q = p ** h
        if q > MAX_ORDER:
            raise ValueError(f"order {q} exceeds supported maximum {MAX_ORDER}")
        self.p = p
        self.h = h
        self.q = q
        self.modulus = _find_modulus(p, h)

        dt = np.uint16 if q > 255 else np.uint8
        a = np.arange(q, dtype=np.int64)
        digit = [a // p ** j % p for j in range(h)]
        ADD = self.add_table = sum(
            (digit[j][:, None] + digit[j]) % p * p ** j for j in range(h)
        ).astype(dt)
        red = [-c % p for c in self.modulus[:h]]
        xkb = digit  # the digits of x^k b for every b
        MUL = self.mul_table = np.zeros((q, q), dtype=dt)
        for k in range(h):
            xk = sum(d * p ** j for j, d in enumerate(xkb)).astype(dt)
            pk = p ** k
            for d in range(1, p):
                MUL[d * pk:(d + 1) * pk] = ADD[MUL[(d - 1) * pk:d * pk], xk]
            # times x: shift up one place, fold the top digit back in
            xkb = [(lower + xkb[-1] * r) % p
                   for lower, r in zip([0] + xkb[:-1], red)]
        self.neg_table = (np.flatnonzero(ADD == 0) % q).astype(dt)
        ones = np.flatnonzero(MUL == 1)
        if (ones // q).tolist() != list(range(1, q)):
            raise RuntimeError(f"modulus for GF({p}^{h}) is not irreducible")
        self.inv_table = np.zeros(q, dtype=dt)
        self.inv_table[1:] = ones % q

        # plain nested tuples: faster than numpy for scalar-heavy loops
        self.addl = tuple(map(tuple, self.add_table.tolist()))
        self.mull = tuple(map(tuple, self.mul_table.tolist()))
        self.negl = tuple(self.neg_table.tolist())
        self.invl = tuple(self.inv_table.tolist())

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
    # the least divisor p >= 2 of q is prime
    for p in range(2, q + 1):
        if q % p == 0:
            h = 0
            m = q
            while m % p == 0:
                m //= p
                h += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return make_field(p, h)
    raise ValueError(f"{q} is not a prime power")

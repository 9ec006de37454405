import hashlib
from math import isqrt

import numpy as np
import pytest

from polarblock import gf
from polarblock.gf import GF, field_of_order, is_prime, make_field

SMALL_ORDERS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]
BIG_ORDERS = [(2, 4), (5, 2), (3, 3), (2, 5)]


def test_fixed_moduli_pinned():
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)
    assert make_field(5, 2).modulus == (1, 1, 1)
    assert make_field(3, 3).modulus == (1, 2, 0, 1)


def test_encoding_of_zero_and_one():
    for p, h in SMALL_ORDERS + BIG_ORDERS:
        f = make_field(p, h)
        assert f.add(0, 0) == 0
        assert f.mul(1, 1) == 1
        for a in range(f.q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0


@pytest.mark.parametrize("p,h", SMALL_ORDERS)
def test_field_axioms_exhaustive(p, h):
    f = make_field(p, h)
    els = list(range(f.q))
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,h", BIG_ORDERS)
def test_field_axioms_randomized(p, h):
    f = make_field(p, h)
    rng = np.random.default_rng(12345)
    trips = rng.integers(0, f.q, size=(100_000, 3))
    for a, b, c in trips:
        a, b, c = int(a), int(b), int(c)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_inverses():
    for p, h in SMALL_ORDERS + BIG_ORDERS:
        f = make_field(p, h)
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            f.div(1, 0)


def test_known_arithmetic_values():
    f2 = make_field(2, 1)
    assert f2.add(1, 1) == 0
    f4 = make_field(2, 2)
    w = 2  # the class of x
    assert f4.mul(w, w) == f4.add(w, 1)  # w^2 = w + 1
    assert f4.mul(w, f4.add(w, 1)) == 1  # w * w^2 = 1
    f9 = make_field(3, 2)
    x = 3  # the class of x
    assert f9.mul(x, x) == 2  # x^2 = -1
    assert f9.pow(x, 8) == 1
    f3 = make_field(3, 1)
    assert f3.add(2, 2) == 1


def test_conjugation():
    f4 = make_field(2, 2)
    assert f4.conjugate(2) == 3  # w -> w^2 = w + 1
    assert f4.conjugate(1) == 1
    f9 = make_field(3, 2)
    for a in range(f9.q):
        assert f9.conjugate(f9.conjugate(a)) == a
        for b in range(f9.q):
            assert f9.conjugate(f9.mul(a, b)) == \
                f9.mul(f9.conjugate(a), f9.conjugate(b))
        norm = f9.mul(a, f9.conjugate(a))
        assert norm < 3  # norms land in the prime subfield GF(3)
    fixed = [a for a in range(f9.q) if f9.conjugate(a) == a]
    assert len(fixed) == 3
    with pytest.raises(ValueError):
        make_field(2, 3).conjugate(1)


def test_make_field_errors():
    with pytest.raises(ValueError):
        GF(4, 1)  # non-prime characteristic
    with pytest.raises(ValueError):
        GF(2, 11)  # order over the guard
    with pytest.raises(ValueError):
        GF(2, 0)


def test_field_of_order():
    assert field_of_order(8).q == 8
    assert field_of_order(9).p == 3
    with pytest.raises(ValueError):
        field_of_order(6)
    assert is_prime(7) and not is_prime(9)


def test_field_of_order_refuses_large_order_before_factoring(monkeypatch):
    def no_factoring(n):
        raise AssertionError("factored an order over the maximum")

    monkeypatch.setattr(gf, "is_prime", no_factoring)
    for q in (1025, 1000003, 10 ** 400):
        with pytest.raises(ValueError,
                           match=f"^order {q} exceeds supported maximum 1024$"):
            field_of_order(q)


def test_deterministic_tables():
    a = GF(3, 2)
    b = GF(3, 2)
    assert np.array_equal(a.mul_table, b.mul_table)
    assert np.array_equal(a.add_table, b.add_table)
    assert a.modulus == b.modulus


def _combine_by_scalars(f, coeffs, rows):
    """sum_i coeffs[i] * rows[i] entry by entry with scalar add and mul."""
    rows = [np.asarray(r) for r in rows]
    out = np.zeros(rows[0].shape, dtype=np.int64)
    for idx in np.ndindex(out.shape):
        acc = 0
        for c, r in zip(coeffs, rows):
            acc = f.add(acc, f.mul(int(c), int(r[idx])))
        out[idx] = acc
    return out


# GF(2^h) sums by XOR, odd p through the add table
@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                 (3, 2), (2, 4)])
def test_combine_matches_scalar(p, h):
    f = make_field(p, h)
    rng = np.random.default_rng(p * 10 + h)
    dt = f.add_table.dtype
    for shape in [(7,), (3, 5)]:
        rows = rng.integers(0, f.q, size=(4,) + shape).astype(dt)
        cases = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1),
                 (0, f.q - 1, 0, 1), (f.q - 1, 0, 1, 0)]
        cases += [tuple(int(c) for c in rng.integers(0, f.q, size=4))
                  for _ in range(20)]
        for coeffs in cases:
            got = f.combine(coeffs, rows)
            assert got.shape == shape and got.dtype == dt
            assert (got == _combine_by_scalars(f, coeffs, rows)).all()
            # a list of rows gives the same sum as a stacked array
            assert (f.combine(coeffs, list(rows)) == got).all()


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    for n in range(-2, 200_000):
        assert is_prime(n) == _is_prime_by_trial_division(n), n


def test_is_prime_strong_pseudoprimes_and_bound():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base
    # up to 31
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1) and is_prime(9999999999999937)
    # psi_13, the least strong pseudoprime to every prime base up to 41,
    # is composite: the exact range ends below it
    assert 1287836182261 * 2575672364521 == gf._MR_LIMIT
    assert not is_prime(gf._MR_LIMIT - 1)
    for n in (gf._MR_LIMIT, 2 ** 89 - 1, 10 ** 400):
        with pytest.raises(ValueError, match=f"only below {gf._MR_LIMIT}$"):
            is_prime(n)


def test_extension_degree_refused_before_the_power():
    # the order itself is named up to degree 64
    with pytest.raises(ValueError, match=f"^order {2 ** 64} exceeds "):
        GF(2, 64)
    # 2^(10^12) would be a 125 GB integer
    for h in (65, 10 ** 5, 10 ** 12):
        with pytest.raises(ValueError, match=f"^order 2\\^{h} exceeds "
                                             "supported maximum 1024$"):
            GF(2, h)


# sha256 of add_table and mul_table (uint16, native byte order), recorded
# when each product was a polynomial multiplied and reduced pair by pair
PINNED_TABLES = {
    (2, 9): ("33f225f9672db35bcb990b0c4f45c768120d68a4732d4ba238cb0da263faa85d",
             "f51bfee2a23e3d8fa0638d6e68a78f20aa59101f5f5ab1e4e05833d1a2f8c7d7"),
    (2, 10): ("3ca6f9912c9270ed55d3093cd6f80330b6026b2aace67ad242b73e561b36dd96",
              "fe3c040093eb3cd3854350c3e471bfd3cfdce9743f4699ba15c89d2b797ae68c"),
    (3, 6): ("da9079073679288be72acfb2202895d3f1988ec5f6e734696f4b28dc6b5172f8",
             "15d6179c839193f9d516b2a91dce94685865144baef2b6710cd7569e9379111e"),
    (5, 4): ("e1c04c7e9a2e56b60bdaab0847d5c3d8cd2f4c42233d6778e446c34f533c1325",
             "f9c6737aee781e60f63b300643e10c1892218d62e883c41d309d0d3b1af9a762"),
    (31, 2): ("1f1ea67a1673a9bb4a704b318ef7bddd9a396827b3a9365ac8d18be110f96799",
              "affa75b1e3a93bd03e8d3a469782c4be9ece571cab9459c0bbab716257aa81ec"),
}


@pytest.mark.parametrize("p,h", sorted(PINNED_TABLES))
def test_large_field_tables_pinned(p, h):
    f = GF(p, h)  # not make_field: the tables are not kept after the test
    assert f.add_table.dtype == np.uint16
    digests = tuple(hashlib.sha256(t.tobytes()).hexdigest()
                    for t in (f.add_table, f.mul_table))
    assert digests == PINNED_TABLES[p, h]

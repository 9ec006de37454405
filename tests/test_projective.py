import random
from itertools import combinations, product

import pytest

from polarblock.gf import make_field
from polarblock.projective import (
    Subspace,
    canonicalize,
    enumerate_pg_points,
    meet,
    nullspace,
    reduce_against,
    rref,
    span,
    subspace_points,
    theta,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def test_canonicalize_known_cases():
    a = canonicalize(F2, 2, [(0, 1, 0), (1, 0, 0)])
    assert a.rows == ((1, 0, 0), (0, 1, 0))
    assert a.dim == 1
    b = canonicalize(F2, 1, [(1, 1), (1, 1)])
    assert b.rows == ((1, 1),)
    assert b.dim == 0
    c = canonicalize(F2, 2, [])
    assert c.rows == () and c.dim == -1
    # a point's one row is scaled to a leading 1
    assert canonicalize(F3, 2, [(0, 2, 1)]).rows == ((0, 1, 2),)
    assert canonicalize(F3, 2, [(2, 0, 1)]).rows == ((1, 0, 2),)
    assert canonicalize(F4, 2, [(3, 1, 0)]).rows[0][0] == 1
    assert canonicalize(F2, 2, [(0, 0, 0)]).dim == -1


def test_rref_idempotent_and_order_free():
    rows = [(1, 2, 0, 1), (0, 1, 1, 2), (1, 0, 1, 2)]
    r1 = rref(F3, rows)
    assert rref(F3, r1) == r1
    assert rref(F3, rows[::-1]) == r1


def test_span_meet_points_and_lines():
    p = canonicalize(F2, 3, [(1, 0, 0, 0)])
    q = canonicalize(F2, 3, [(0, 1, 0, 0)])
    l = span(p, q)
    assert l.dim == 1
    assert meet(p, q).dim == -1
    assert meet(l, l).rows == l.rows


def test_skew_lines_dimension_identity():
    l1 = canonicalize(F2, 3, [(1, 0, 0, 0), (0, 1, 0, 0)])
    l2 = canonicalize(F2, 3, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert span(l1, l2).dim == 3
    assert meet(l1, l2).dim == -1
    assert l1.dim + l2.dim == span(l1, l2).dim + meet(l1, l2).dim


def test_meet_against_bruteforce():
    # every pair of planes of PG(3,2): meet = common points
    pts = enumerate_pg_points(3, F2)
    planes = []
    for c in enumerate_pg_points(3, F2):
        planes.append(nullspace(F2, [c], 3))
    for a, b in combinations(planes, 2):
        m = meet(a, b)
        common = {p for p in pts if a.contains_point(p) and b.contains_point(p)}
        assert set(subspace_points(F2, m.rows)) == common
        assert a.dim + b.dim == span(a, b).dim + m.dim


def test_pg_point_counts_and_order():
    assert len(enumerate_pg_points(2, F2)) == 7
    assert len(enumerate_pg_points(4, F2)) == 31
    assert len(enumerate_pg_points(2, F3)) == 13
    pts = enumerate_pg_points(3, F4)
    assert len(pts) == theta(3, 4) == 85
    assert pts == sorted(pts)
    assert len(set(pts)) == len(pts)


def test_subspace_points_normalized_and_counted():
    sub = canonicalize(F3, 3, [(1, 0, 2, 1), (0, 1, 1, 0)])
    pts = subspace_points(F3, sub.rows)
    assert len(pts) == theta(1, 3) == 4
    for p in pts:
        assert canonicalize(F3, 3, [p]).rows[0] == p
        assert sub.contains_point(p)


def test_nullspace():
    ker = nullspace(F3, [(1, 1, 1)], 2)
    assert ker.dim == 1
    for p in subspace_points(F3, ker.rows):
        assert sum(p) % 3 == 0
    # no rows: the unit rows, which Form.perp of the empty subspace returns
    for p, h in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        field = make_field(p, h)
        for n in range(7):
            assert nullspace(field, [], n).rows == tuple(
                tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1))



def _nullspace_two_eliminations(field, rows, n):
    """The kernel as computed before: row-reduce M, write down a kernel
    basis from its pivots, and row-reduce that basis."""
    red = rref(field, rows)
    pivots = [r.index(1) for r in red]
    basis = []
    for fc in (c for c in range(n + 1) if c not in pivots):
        v = [0] * (n + 1)
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[pc] = field.neg(r[fc])
        basis.append(tuple(v))
    return rref(field, basis)


def _random_matrices(field, rng):
    """(n, rows) over the field: the empty matrix, zero rows, repeated
    rows, square full-rank and random rectangular matrices."""
    q = field.q
    for n in range(6):
        yield n, []
        yield n, [(0,) * (n + 1)]
        row = tuple(rng.randrange(q) for _ in range(n + 1))
        yield n, [row, row, (0,) * (n + 1)]
        # upper unitriangular with a random top: full rank n + 1
        yield n, [tuple(0 if j < i else 1 if j == i else rng.randrange(q)
                        for j in range(n + 1)) for i in range(n + 1)]
        for _ in range(8):
            k = rng.randrange(1, n + 3)
            rows = [tuple(rng.randrange(q) for _ in range(n + 1))
                    for _ in range(k)]
            rows.append(rows[rng.randrange(k)])
            yield n, rows


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                 (3, 2)])
def test_nullspace_matches_two_eliminations(p, h):
    field = make_field(p, h)
    for n, rows in _random_matrices(field, random.Random(p * 10 + h)):
        ker = nullspace(field, rows, n)
        assert ker.rows == _nullspace_two_eliminations(field, rows, n)
        assert ker.dim == n - len(rref(field, rows))
        for x in ker.rows:
            for r in rows:
                acc = 0
                for a, b in zip(r, x):
                    acc = field.add(acc, field.mul(a, b))
                assert acc == 0

def test_containment_and_ordering():
    l = canonicalize(F2, 3, [(1, 0, 0, 0), (0, 1, 0, 0)])
    p = canonicalize(F2, 3, [(1, 1, 0, 0)])
    assert all(l.contains_point(r) for r in p.rows)
    assert not all(p.contains_point(r) for r in l.rows)


def test_empty_and_ambient_mismatch():
    e = Subspace(F2, 3, ())
    assert e.dim == -1
    with pytest.raises(ValueError):
        canonicalize(F2, 3, [(1, 0, 0)])
    a = canonicalize(F2, 2, [(1, 0, 0)])
    b = canonicalize(F2, 3, [(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        span(a, b)


def test_rref_coordinates_every_combination_gf4():
    # over a non-prime field, every coefficient vector on the RREF rows is
    # read back as the combination's entries at the pivots, and every
    # vector outside the span keeps a nonzero residue
    f4 = make_field(2, 2)
    rows = rref(f4, [(0, 1, 2, 3, 1), (1, 3, 0, 2, 0), (0, 0, 1, 1, 2)])
    assert len(rows) == 3
    pivots = [r.index(1) for r in rows]
    add, mul = f4.addl, f4.mull
    inside = set()
    for coeffs in product(range(4), repeat=3):
        v = [0] * 5
        for c, r in zip(coeffs, rows):
            v = [add[x][mul[c][y]] for x, y in zip(v, r)]
        inside.add(tuple(v))
        assert reduce_against(f4, rows, tuple(v)) is None
        assert tuple(v[c] for c in pivots) == coeffs
    assert len(inside) == 4 ** 3
    for v in product(range(4), repeat=5):
        if v not in inside:
            assert reduce_against(f4, rows, v) is not None
    assert reduce_against(f4, (), ()) is None


def test_subspace_hashable_as_key():
    a = canonicalize(F2, 2, [(1, 0, 0), (0, 1, 0)])
    b = canonicalize(F2, 2, [(0, 1, 0), (1, 0, 0)])
    assert a == b
    assert len({a, b}) == 1
    assert a.to_json() == [[1, 0, 0], [0, 1, 0]]

from itertools import combinations

import numpy as np
import pytest

from polarblock.gf import make_field
from polarblock.projective import (
    Subspace,
    canonicalize,
    enumerate_pg_points,
    nullspace,
    subspace_points,
)
from polarblock.forms import (
    elliptic_form,
    elliptic_g,
    hermitian_form,
    hyperbolic_form,
    is_totally_singular,
    parabolic_form,
)
from polarblock.spaces import build_polar_space

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def test_parabolic_eval_known_values():
    f = parabolic_form(2, F2)  # Q(4,2)
    assert f.eval((0, 1, 0, 0, 0)) == 0
    assert f.eval((1, 0, 0, 0, 0)) == 1
    assert f.polarize((0, 1, 0, 0, 0), (0, 0, 1, 0, 0)) == 1
    # char 2: the polarization is alternating
    for v in enumerate_pg_points(4, F2):
        assert f.polarize(v, v) == 0


def test_hermitian_eval_known_values():
    f = hermitian_form(2, 2)  # H(2,4)
    w = 2
    assert f.eval((1, 1, w)) == 1
    assert f.eval((0, 1, 1)) == 0
    assert f.polarize((1, 0, 0), (0, 1, 0)) == 0
    # H(u,v) = conj(H(v,u))
    pts = enumerate_pg_points(2, F4)
    for u in pts[:6]:
        for v in pts[:6]:
            assert f.polarize(u, v) == F4.conjugate(f.polarize(v, u))


def test_eval_scales_projectively():
    f = parabolic_form(2, F3)
    for v in enumerate_pg_points(4, F3)[:20]:
        q0 = f.eval(v)
        v2 = tuple(F3.mul(2, x) for x in v)
        assert f.eval(v2) == F3.mul(q0, F3.mul(2, 2))
    h = hermitian_form(2, 2)
    for v in enumerate_pg_points(2, F4):
        scaled = tuple(F4.mul(2, x) for x in v)
        factor = F4.mul(2, F4.conjugate(2))  # lambda^(q+1)
        assert h.eval(scaled) == F4.mul(factor, h.eval(v))


def test_polarization_identity():
    for form in (parabolic_form(2, F3), elliptic_form(2, F2), hyperbolic_form(2, F3)):
        field = form.field
        pts = enumerate_pg_points(form.n, field)
        rng = np.random.default_rng(7)
        idx = rng.integers(0, len(pts), size=(200, 2))
        for i, j in idx:
            u, v = pts[int(i)], pts[int(j)]
            s = tuple(field.add(a, b) for a, b in zip(u, v))
            expect = field.sub(field.sub(form.eval(s), form.eval(u)), form.eval(v))
            assert form.polarize(u, v) == expect


def test_elliptic_g_recipes():
    assert elliptic_g(F2) == (1, 1, 1)
    assert elliptic_g(F3) == (1, 0, 1)  # X0^2 - 2 X1^2 = X0^2 + X1^2
    a, b, c = elliptic_g(F4)
    assert (a, b) == (1, 1) and c == 2  # smallest trace-1 element is w


def test_point_counts_of_standard_forms():
    cases = [
        (parabolic_form(2, F2), 15),
        (parabolic_form(2, F3), 40),
        (elliptic_form(2, F2), 27),
        (hyperbolic_form(2, F2), 9),
        (hermitian_form(4, 2), 165),
        (hermitian_form(3, 2), 45),
        (hermitian_form(2, 2), 9),
    ]
    for form, want in cases:
        pts = [p for p in enumerate_pg_points(form.n, form.field)
               if form.eval(p) == 0]
        assert len(pts) == want
        arr = np.array(enumerate_pg_points(form.n, form.field),
                       dtype=form.field.add_table.dtype)
        assert int((form.eval_batch(arr) == 0).sum()) == want


def test_batch_polarize_matches_scalar():
    form = hermitian_form(2, 2)
    pts = enumerate_pg_points(2, F4)
    arr = np.array(pts, dtype=np.uint8)
    for u in pts[:5]:
        vals = form.polarize_batch(u, arr)
        for v, got in zip(pts, vals):
            assert form.polarize(u, v) == int(got)


def test_perp_known_values():
    f = parabolic_form(2, F2)
    p = canonicalize(F2, 4, [(0, 1, 0, 0, 0)])
    h = f.perp(p)
    assert h.dim == 3
    # the hyperplane X2 = 0
    for pt in subspace_points(F2, h.rows):
        assert pt[2] == 0
    assert h.contains_point((0, 1, 0, 0, 0))  # tangency
    # perp of the empty subspace is everything
    assert f.perp(Subspace(F2, 4, ())).dim == 4


def test_perp_inclusion_reversing_and_double():
    f = elliptic_form(2, F3)
    pts = [p for p in enumerate_pg_points(5, F3) if f.eval(p) == 0]
    p = canonicalize(F3, 5, [pts[0]])
    # a totally singular line through pts[0]
    mate = next(x for x in pts if x != pts[0]
                and f.polarize(pts[0], x) == 0)
    l = canonicalize(F3, 5, [pts[0], mate])
    assert is_totally_singular(f, l)
    assert f.perp(l).dim < f.perp(p).dim
    assert all(f.perp(l).contains_point(r) for r in l.rows)
    # odd q, nondegenerate: double perp is the identity on subspaces
    assert f.perp(f.perp(l)).rows == l.rows
    assert f.perp(f.perp(p)).rows == p.rows


def test_even_parabolic_perp_paths():
    f = parabolic_form(2, F2)
    sing = [p for p in enumerate_pg_points(4, F2) if f.eval(p) == 0]
    p = canonicalize(F2, 4, [sing[0]])
    tangent = f.perp(p)
    assert tangent.dim == 3
    # nucleus lies on every tangent hyperplane
    assert tangent.contains_point((1, 0, 0, 0, 0))
    # double perp under the tangent-intersection definition
    assert all(f.perp(f.perp(p)).contains_point(r) for r in p.rows)
    # a subspace with no singular point is rejected
    nuc = canonicalize(F2, 4, [(1, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        f.perp(nuc)
    # mixed subspace: perp = intersection of tangents at its singular points
    mixed = canonicalize(F2, 4, [sing[0], (1, 0, 0, 0, 0)])
    got = f.perp(mixed)
    pts_mixed = [x for x in subspace_points(F2, mixed.rows) if f.eval(x) == 0]
    expect = None
    from polarblock.projective import meet

    for x in pts_mixed:
        h = f.perp(canonicalize(F2, 4, [x]))
        expect = h if expect is None else meet(expect, h)
    assert got.rows == expect.rows


def test_totally_singular_vs_bruteforce():
    for form in (parabolic_form(2, F2), elliptic_form(2, F2),
                 parabolic_form(2, F3), hermitian_form(3, 2)):
        field = form.field
        pts = [p for p in enumerate_pg_points(form.n, field)
               if form.eval(p) == 0]
        for a, b in combinations(pts[:14], 2):
            sub = canonicalize(field, form.n, [a, b])
            if sub.dim != 1:
                continue
            brute = all(form.eval(x) == 0
                        for x in subspace_points(field, sub.rows))
            assert is_totally_singular(form, sub) == brute
            # B(u,v) = 0 iff the joining line is totally singular
            assert (form.polarize(a, b) == 0) == brute


def test_perp_of_singular_line_is_cone_section():
    # Q-(5,2): perp of a totally singular line l is a 3-space whose
    # singular points are exactly the points collinear with all of l
    form = elliptic_form(2, F2)
    pts = [p for p in enumerate_pg_points(5, F2) if form.eval(p) == 0]
    a = pts[0]
    b = next(x for x in pts if x != a and form.polarize(a, x) == 0)
    l = canonicalize(F2, 5, [a, b])
    assert is_totally_singular(form, l)
    perp = form.perp(l)
    assert perp.dim == 3
    in_perp = {p for p in subspace_points(F2, perp.rows) if form.eval(p) == 0}
    collinear_to_l = {p for p in pts
                      if all(form.polarize(p, r) == 0 for r in l.rows)}
    assert in_perp == collinear_to_l
    for p in subspace_points(F2, l.rows):
        assert p in in_perp


def test_collinearity_bilinear_characterization():
    # singular u != v: B(u,v) = 0 iff the line uv is totally singular
    form = elliptic_form(1, F3)  # Q-(3,3): no lines at all
    pts = [p for p in enumerate_pg_points(3, F3) if form.eval(p) == 0]
    assert len(pts) == 10
    for a, b in combinations(pts, 2):
        assert form.polarize(a, b) != 0


def test_restrict_consistency():
    form = parabolic_form(2, F3)
    rows = [(1, 0, 0, 0, 2), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)]
    sub = form.restrict(rows)
    add, mul = F3.addl, F3.mull
    for coeffs in enumerate_pg_points(2, F3):
        v = [0] * 5
        for c, r in zip(coeffs, rows):
            v = [add[x][mul[c][y]] for x, y in zip(v, r)]
        assert sub.eval(coeffs) == form.eval(tuple(v))


@pytest.mark.parametrize("make", [
    lambda: parabolic_form(2, F2), lambda: parabolic_form(2, F3),
    lambda: elliptic_form(2, F2), lambda: elliptic_form(1, F3),
    lambda: hyperbolic_form(2, F2), lambda: hyperbolic_form(2, F3),
    lambda: hermitian_form(3, 2), lambda: hermitian_form(4, 2),
], ids=["q2", "q3", "qm2", "qm3", "qp2", "qp3", "h3-4", "h4-4"])
def test_restrict_matches_pairwise_polarize(make):
    # Q on the diagonal and B above it on a quadratic form, H everywhere on
    # a hermitian one, on random row sets with repeated and zero rows too
    form = make()
    rng = np.random.default_rng(7)
    herm = form.kind == "hermitian"
    for m in (1, 2, 3, form.n + 1):
        for _ in range(20):
            rows = [tuple(int(x) for x in r) for r in
                    rng.integers(0, form.field.q, size=(m, form.n + 1))]
            want = [[form.polarize(rows[a], rows[b]) if herm or b > a
                     else form.eval(rows[a]) if b == a else 0
                     for b in range(m)] for a in range(m)]
            assert form.restrict(rows).coeff == tuple(map(tuple, want))


def test_nondegeneracy_radicals():
    # the kernel of the polarization: the nucleus for an even parabolic
    def radical(f):
        return nullspace(f.field, f.gram, f.n)

    assert radical(parabolic_form(2, F3)).dim == -1
    nuc = radical(parabolic_form(2, F2))
    assert nuc.dim == 0 and nuc.rows == ((1, 0, 0, 0, 0),)
    assert radical(elliptic_form(2, F2)).dim == -1
    assert radical(hermitian_form(4, 2)).dim == -1


def _quotient_form():
    # the quotient of H(4,4) at point 30 has a Gram matrix with entries
    # other than 0 and 1
    return build_polar_space("h", 2, 2).quotient_map(30).quotient.form


@pytest.mark.parametrize("make", [
    lambda: parabolic_form(2, F2), lambda: parabolic_form(2, F3),
    lambda: parabolic_form(1, F4), lambda: elliptic_form(1, F2),
    lambda: elliptic_form(1, F3), lambda: elliptic_form(1, F4),
    lambda: hyperbolic_form(2, F2), lambda: hyperbolic_form(2, F3),
    lambda: hyperbolic_form(2, F4), lambda: hermitian_form(3, 2),
    _quotient_form,
], ids=["q2", "q3", "q4", "qm2", "qm3", "qm4", "qp2", "qp3", "qp4", "h4",
        "h4-quotient"])
def test_batches_match_scalar_on_every_point(make):
    form = make()
    pts = enumerate_pg_points(form.n, form.field)
    arr = np.array(pts, dtype=form.field.add_table.dtype)
    assert form.eval_batch(arr).tolist() == [form.eval(p) for p in pts]
    rows = form.polar_rows(arr)
    for i, e in enumerate(np.eye(form.n + 1, dtype=int).tolist()):
        assert rows[i].tolist() == [form.polarize(e, v) for v in pts]
    for u in pts:
        assert (form.polarize_batch(u, arr).tolist()
                == [form.polarize(u, v) for v in pts])

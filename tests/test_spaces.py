import hashlib
import json
import random
from collections import Counter
from itertools import combinations, product
from math import prod

import pytest

from polarblock import spaces
from polarblock.gf import field_of_order, make_field
from polarblock.projective import (
    Subspace,
    canonicalize,
    enumerate_pg_points,
    reduce_against,
    rref,
    subspace_points,
    theta,
)
from polarblock.forms import (
    Form,
    elliptic_form,
    hermitian_form,
    hyperbolic_form,
    is_totally_singular,
    parabolic_form,
)
from polarblock.spaces import (
    BudgetError,
    BuildError,
    build_polar_space,
    enumerate_hyperplanes,
    generator_count,
    hyperplane_section,
    pencil_size,
    point_count,
    quotient_at_point,
    st_params,
)

COUNT_CASES = [
    ("q", 2, 2, 15, 15),
    ("q", 2, 3, 40, 40),
    ("qminus", 2, 2, 27, 45),
    ("qminus", 2, 3, 112, 280),
    ("h", 2, 2, 165, 297),
    ("qplus3", 2, 2, 9, 6),
    ("h3", 2, 2, 45, 27),
    ("q", 3, 2, 63, 135),
    ("qminus", 3, 2, 119, 765),
    ("q", 1, 2, 3, 3),
    ("qminus", 1, 2, 5, 5),
    ("h", 1, 2, 9, 9),
]


@pytest.mark.parametrize("kind,rank,q,npts,ngens", COUNT_CASES)
def test_counts(kind, rank, q, npts, ngens):
    sp = build_polar_space(kind, rank, q)
    assert sp.num_points == npts == point_count(kind, rank, q)
    assert sp.num_generators == ngens == generator_count(kind, rank, q)


def test_generators_canonical_sorted_and_totally_singular():
    sp = build_polar_space("qminus", 2, 2)
    rows = [g.rows for g in sp.generators]
    assert rows == sorted(rows)
    for g in sp.generators:
        assert g.dim == sp.rank - 1
        assert is_totally_singular(sp.form, g)


def test_incidence_symmetry_and_diagonal():
    sp = build_polar_space("q", 2, 3)
    for i in range(sp.num_generators):
        assert (sp.meets[i] >> i) & 1
        for j in range(sp.num_generators):
            assert ((sp.meets[i] >> j) & 1) == ((sp.meets[j] >> i) & 1)


def test_regularity():
    for kind, rank, q in [("q", 2, 2), ("qminus", 2, 2), ("h", 2, 2),
                          ("q", 3, 2)]:
        sp = build_polar_space(kind, rank, q)
        degs = {m.bit_count() for m in sp.point_gen_mask}
        assert len(degs) == 1
        deg = degs.pop()
        assert sp.num_points * deg == sp.num_generators * sp.points_per_generator()


def test_rank2_gq_count_identities():
    for kind, q in [("q", 2), ("q", 3), ("qminus", 2), ("qminus", 3),
                    ("h", 2), ("qplus3", 2), ("h3", 2)]:
        sp = build_polar_space(kind, 2, q)
        s, t = st_params(kind, q)
        assert (sp.s, sp.t) == (s, t)
        assert sp.num_points == (s * t + 1) * (s + 1)
        assert sp.num_generators == (s * t + 1) * (t + 1)


def test_generator_enumeration_vs_bruteforce():
    # Q(4,2) and Q+(3,2): all totally singular lines by raw pair spans
    for kind, npg in [("q", 4), ("qplus3", 3)]:
        sp = build_polar_space(kind, 2, 2)
        f2 = make_field(2, 1)
        pts = [p for p in enumerate_pg_points(npg, f2)
               if sp.form.eval(p) == 0]
        brute = set()
        for a, b in combinations(pts, 2):
            l = canonicalize(f2, npg, [a, b])
            if l.dim == 1 and is_totally_singular(sp.form, l):
                brute.add(l.rows)
        assert brute == {g.rows for g in sp.generators}


def test_generator_maximality():
    sp = build_polar_space("qminus", 2, 3)
    for gi, g in enumerate(sp.generators):
        cand = None
        for r in g.rows:
            m = sp.collinear[sp.point_index[r]]
            cand = m if cand is None else cand & m
        assert cand == sp.gen_point_mask[gi]


def test_points_lex_sorted_with_stable_indices():
    sp = build_polar_space("h", 2, 2)
    assert sp.points == sorted(sp.points)
    sp2 = build_polar_space("h", 2, 2)
    assert sp2 is sp  # cached, same object
    assert sp.content_hash() == sp2.content_hash()


def test_quotients_known_counts():
    s5 = build_polar_space("qminus", 2, 2)
    q1, _ = quotient_at_point(s5, 0)
    assert (q1.name, q1.num_points, q1.num_generators) == ("Q-(3,2)", 5, 5)
    s6 = build_polar_space("q", 3, 2)
    q2, _ = quotient_at_point(s6, 4)
    assert (q2.num_points, q2.num_generators) == (15, 15)
    s7 = build_polar_space("qminus", 3, 2)
    q3, _ = quotient_at_point(s7, 0)
    assert (q3.num_points, q3.num_generators) == (27, 45)


def _to_quotient(space, point_idx, sub):
    """Reference image of a subspace sub of perp(P) in perp(P)/P, in
    coordinates on the map's crows: x in perp(P) is (x[c] / P[c]) P plus a
    vector of the span of crows, c the pivot of the row of perp(P) that is
    not a crow, and that vector's coordinates are its entries at their
    pivots.  ValueError when sub is not inside perp(P)."""
    field = space.field
    add, mul, neg = field.addl, field.mull, field.negl
    crows = space.quotient_map(point_idx).crows
    p = space.points[point_idx]
    perp = space.form.perp(canonicalize(field, space.n, [p]))
    c = next(r for r in perp.rows if r not in crows).index(1)
    ip = field.invl[p[c]]
    rows = []
    for x in sub.rows:
        if reduce_against(field, perp.rows, x) is not None:
            raise ValueError("subspace is not contained in perp(P)")
        mt = mul[neg[mul[x[c]][ip]]]
        rows.append(tuple(add[x[j]][mt[p[j]]] for j in
                          (r.index(1) for r in crows)))
    return canonicalize(field, len(crows) - 1, rows)


def _gen_index(space):
    return {g.rows: i for i, g in enumerate(space.generators)}


def test_quotient_coherence_bijection():
    sp = build_polar_space("q", 3, 2)
    for pi in (0, 7):
        qs, qm = quotient_at_point(sp, pi)
        p = sp.points[pi]
        thru = [gi for gi, g in enumerate(sp.generators) if g.contains_point(p)]
        imgs = {_to_quotient(sp, pi, sp.generators[gi]).rows for gi in thru}
        assert imgs == {g.rows for g in qs.generators}
        assert sorted(qm.gen_image(gi) for gi in thru) == list(range(qs.num_generators))
        for gi in thru:
            img = qs.generators[qm.gen_image(gi)]
            assert img.rows == _to_quotient(sp, pi, sp.generators[gi]).rows


# content_hash() of quotient_at_point(space, i)[0]; on H(4,4) the quotient
# forms at points 0 and 50 are equal and the one at point 164 differs.
PINNED_QUOTIENTS = {
    (("q", 3, 2), 0): "51a150dcc63216361011dc9b12d5dbdb58f38e5384451fb28991bd3d6aaa2feb",
    (("q", 3, 2), 62): "51a150dcc63216361011dc9b12d5dbdb58f38e5384451fb28991bd3d6aaa2feb",
    (("qminus", 3, 2), 0): "be139962444c518359c4347cdedb0953162e108cf09860753b7a8ee5855ce910",
    (("qminus", 3, 2), 118): "be139962444c518359c4347cdedb0953162e108cf09860753b7a8ee5855ce910",
    (("h", 2, 2), 0): "bc18e05ef6ff065ae2edb185774579da7cbfba4d359df7f4344bc2d7062f5713",
    (("h", 2, 2), 50): "bc18e05ef6ff065ae2edb185774579da7cbfba4d359df7f4344bc2d7062f5713",
    (("h", 2, 2), 164): "bc6aa486d6566a0d7116672c71f2413bdd83d942f0d9bf2da0ea08d23611e32d",
}


@pytest.mark.parametrize("key,point", sorted(PINNED_QUOTIENTS))
def test_quotient_output_pinned(key, point):
    qs, _ = quotient_at_point(build_polar_space(*key), point)
    assert qs.content_hash() == PINNED_QUOTIENTS[key, point]


def test_quotients_share_builds_by_form():
    q62 = build_polar_space("q", 3, 2)
    a, qa = quotient_at_point(q62, 0)
    b, qb = quotient_at_point(q62, 62)
    assert qa.quotient.form == qb.quotient.form and a is b
    h44 = build_polar_space("h", 2, 2)
    c, qc = quotient_at_point(h44, 0)
    d, qd = quotient_at_point(h44, 164)
    assert qc.quotient.form != qd.quotient.form and c is not d


@pytest.mark.parametrize("key", [("q", 3, 2), ("qminus", 3, 2), ("h", 2, 2)])
def test_quotient_map_memo_and_gen_image(key):
    sp = build_polar_space(*key)
    for pi in range(sp.num_points):
        qm = sp.quotient_map(pi)
        assert sp.quotient_map(pi) is qm
        assert quotient_at_point(sp, pi) == (qm.quotient, qm)
        index = _gen_index(qm.quotient)
        for g, gen in enumerate(sp.generators):
            if gen.contains_point(sp.points[pi]):
                want = index[_to_quotient(sp, pi, gen).rows]
            else:
                want = None
            assert qm.gen_image(g) == want


def test_iterated_quotient_gen_image():
    # a line vertex: the quotient at its first point, then at the image of
    # the line there, composed through the reference images
    sp = build_polar_space("q", 4, 2)
    line = canonicalize(sp.field, sp.n, sp.levels[1][0])
    qm = sp.quotient(line)
    assert sp.quotient(line) is qm
    head = sp.point_index[line.rows[0]]
    mid = sp.quotient_map(head).quotient
    tail = mid.point_index[_to_quotient(sp, head, line).rows[0]]
    assert qm.quotient is mid.quotient_map(tail).quotient

    def image(sub):
        return _to_quotient(mid, tail, _to_quotient(sp, head, sub))

    index = _gen_index(qm.quotient)
    for g, gen in enumerate(sp.generators):
        want = index[image(gen).rows] if gen.contains(line) else None
        assert qm.gen_image(g) == want
    on_line = {i for i, p in enumerate(sp.points) if line.contains_point(p)}
    assert qm.vertex_mask == sum(1 << i for i in on_line)
    around = [x for x in range(sp.num_points) if x not in on_line
              and all(sp.collinear[i] >> x & 1 for i in on_line)]
    assert sorted(qm.point_image) == around
    for x in around:
        pt = image(canonicalize(sp.field, sp.n, [sp.points[x]]))
        assert qm.point_image[x] == qm.quotient.point_index[pt.rows[0]]


def _coords_by_search(field, basis):
    """Every vector of the row span, keyed to its coefficient vector."""
    add, mul = field.addl, field.mull
    width = len(basis[0])
    out = {}
    for coeffs in product(range(field.q), repeat=len(basis)):
        v = [0] * width
        for c, r in zip(coeffs, basis):
            v = [add[x][mul[c][y]] for x, y in zip(v, r)]
        out[tuple(v)] = coeffs
    return out


# points whose quotient form has Gram entries other than 0 and 1 (GF(4)'s
# 2 and 3 at H(4,4)'s point 30), so images are scaled by such entries
EXTRA_QUOTIENT_POINTS = {("h", 2, 2): {30}}


@pytest.mark.parametrize("key", [("q", 2, 3), ("qminus", 2, 2), ("h", 2, 2),
                                 ("q", 3, 2)])
def test_quotient_coordinates_vs_bruteforce(key):
    # the image of X is its coordinates after P in the basis (P, crows),
    # found here by trying every coefficient vector, scaled to a leading 1;
    # the reference map agrees on generators
    sp = build_polar_space(*key)
    rng = random.Random(13)
    chosen = set(rng.sample(range(sp.num_points), 5))
    for pi in sorted(chosen | EXTRA_QUOTIENT_POINTS.get(key, set())):
        qm = sp.quotient_map(pi)
        qs = qm.quotient
        coords = _coords_by_search(sp.field, (sp.points[pi],) + qm.crows)
        around = [x for x in range(sp.num_points)
                  if x != pi and sp.collinear[pi] >> x & 1]
        assert sorted(qm.point_image) == around
        for x in around:
            want = canonicalize(sp.field, len(qm.crows) - 1,
                                [coords[sp.points[x]][1:]])
            assert qs.points[qm.point_image[x]] == want.rows[0]
        for g, gen in enumerate(sp.generators):
            if gen.contains_point(sp.points[pi]):
                want = canonicalize(sp.field, len(qm.crows) - 1,
                                    [coords[r][1:] for r in gen.rows])
                assert _to_quotient(sp, pi, gen) == want
            else:
                with pytest.raises(ValueError):
                    _to_quotient(sp, pi, gen)


def test_quotient_rejects_bad_input():
    sp = build_polar_space("qminus", 1, 2)
    with pytest.raises(BuildError):
        quotient_at_point(sp, 0)
    sp2 = build_polar_space("q", 2, 2)
    with pytest.raises(BuildError):
        quotient_at_point(sp2, 99)
    for bad in (True, 2.0):
        with pytest.raises(BuildError):
            sp2.quotient_map(bad)
    # a vertex that is not totally singular: two non-collinear points
    sp3 = build_polar_space("q", 3, 2)
    b = next(b for b in range(sp3.num_points) if not sp3.collinear[0] >> b & 1)
    with pytest.raises(BuildError):
        sp3.quotient(canonicalize(sp3.field, sp3.n,
                                  [sp3.points[0], sp3.points[b]]))


def test_hyperplane_sections_qminus52():
    sp = build_polar_space("qminus", 2, 2)
    census = {}
    for h in enumerate_hyperplanes(sp):
        sec = hyperplane_section(sp, h)
        census[sec.label] = census.get(sec.label, 0) + 1
        if sec.label == "Q(4,2)":
            assert len(sec.point_indices) == 15
            assert len(sec.gen_indices) == 15
            assert sec.radical.dim == -1
        if sec.label == "pt*Q-(3,2)":
            assert len(sec.radical_points) == 1
    assert census == {"Q(4,2)": 36, "pt*Q-(3,2)": 27}


def test_section_from_perp_of_nonsingular_point():
    sp = build_polar_space("qminus", 2, 2)
    f = sp.form
    from polarblock.projective import enumerate_pg_points

    nonsing = next(p for p in enumerate_pg_points(5, sp.field)
                   if f.eval(p) != 0)
    h = f.perp(canonicalize(sp.field, 5, [nonsing]))
    sec = hyperplane_section(sp, h)
    assert sec.label == "Q(4,2)"
    assert len(sec.point_indices) == 15 and len(sec.gen_indices) == 15


def test_hyperplane_sections_q42():
    sp = build_polar_space("q", 2, 2)
    census = {}
    for h in enumerate_hyperplanes(sp):
        sec = hyperplane_section(sp, h)
        census[sec.label] = census.get(sec.label, 0) + 1
        if sec.label == "pt*Q(2,2)":
            # tangent cone at a singular point: q+1 = 3 lines through it
            assert len(sec.gen_indices) == 3
            rad = sec.radical_points[0]
            for g in sec.gen_indices:
                assert (sp.gen_point_mask[g] >> rad) & 1
    assert census == {"Q+(3,2)": 10, "Q-(3,2)": 6, "pt*Q(2,2)": 15}


def test_section_of_hermitian():
    sp = build_polar_space("h", 2, 2)
    census = {}
    for h in enumerate_hyperplanes(sp):
        sec = hyperplane_section(sp, h)
        census[sec.label] = census.get(sec.label, 0) + 1
    assert set(census) == {"H(3,4)", "pt*H(2,4)"}
    assert census["pt*H(2,4)"] == 165


def _ts_subspaces(sp, dim):
    """The totally singular subspaces of projective dimension dim in the
    space's order: a level kept by the build, or the generators."""
    if dim == sp.rank - 1:
        return list(sp.generators)
    return [Subspace(sp.field, sp.n, rows) for rows in sp.levels[dim]]


def test_totally_singular_levels():
    sp = build_polar_space("q", 3, 2)
    assert len(_ts_subspaces(sp, 0)) == 63
    lines = _ts_subspaces(sp, 1)
    assert len(lines) == 315
    assert [l.rows for l in lines] == sorted(l.rows for l in lines)
    assert len(_ts_subspaces(sp, 2)) == 135


def ts_count(kind, rank, q, dim):
    """Closed-form number of totally singular subspaces of projective
    dimension dim: the Gaussian binomial [rank, dim+1] over the field order
    Q, times prod (Q^(i+e-1) + 1) for i = rank-dim .. rank, with e = 1 for
    Q(2n,q), 2 for Q-(2n+1,q) and 3/2 for H(2n,q^2) (Q = q^2)."""
    k = dim + 1
    fq = q * q if kind == "h" else q
    gauss = (prod(fq ** (rank - j) - 1 for j in range(k))
             // prod(fq ** (j + 1) - 1 for j in range(k)))
    tail = {"q": lambda i: q ** i + 1,
            "qminus": lambda i: q ** (i + 1) + 1,
            "h": lambda i: q ** (2 * i + 1) + 1}[kind]
    return gauss * prod(tail(i) for i in range(rank - k + 1, rank + 1))


@pytest.mark.parametrize("key", [("q", 2, 2), ("qminus", 2, 2), ("h", 2, 2),
                                 ("q", 3, 2), ("qminus", 3, 2)])
def test_kept_levels_sorted_counted_singular(key):
    sp = build_polar_space(*key)
    for dim in range(sp.rank):
        subs = _ts_subspaces(sp, dim)
        rows = [s.rows for s in subs]
        assert rows == sorted(rows)
        assert len(set(rows)) == len(rows) == ts_count(*key, dim)
        assert all(s.dim == dim and is_totally_singular(sp.form, s)
                   for s in subs)


@pytest.mark.parametrize("key", [("q", 2, 2), ("q", 3, 2)])
def test_lines_vs_bruteforce(key):
    # every pair of collinear points, spanned and deduplicated
    sp = build_polar_space(*key)
    brute = set()
    for a, b in combinations(sp.points, 2):
        l = canonicalize(sp.field, sp.n, [a, b])
        if is_totally_singular(sp.form, l):
            brute.add(l.rows)
    assert [l.rows for l in _ts_subspaces(sp, 1)] == sorted(brute)


def _lowest_hyperplane_extend_level(field, points, point_index, collinear,
                                    level, codes):
    """Reference for spaces._extend_level: every singular point P of
    perp(U) above U's highest point, keeping W = <U, P> only when U is W's
    lowest hyperplane, and W's rows as rref(rows + (P,)) built by hand."""
    add_f, mul_f, neg_f, inv_f = field.addl, field.mull, field.negl, field.invl
    if codes is not None:
        add, multiples, bit_of = codes
    out = []
    for rows, umask in level:
        full = -1
        for r in rows:
            full &= collinear[point_index[r]]
        top = umask.bit_length() - 1
        below = (1 << top) - 1
        u_below = umask & below
        cand = full >> (top + 1) << (top + 1)
        if codes is not None:
            ucodes = [c for u in spaces._iter_bits(umask)
                      for c in multiples[u]]
        while cand:
            low = cand & -cand
            p = low.bit_length() - 1
            if codes is None:
                wmask = full & collinear[p]
            else:
                pc = multiples[p][0]
                wmask = umask | low
                for c in ucodes:
                    wmask |= bit_of[add(pc, c)]
            if wmask & below == u_below:  # U is W's lowest hyperplane
                w = reduce_against(field, rows, points[p])
                pc = next(i for i, x in enumerate(w) if x)
                if w[pc] != 1:
                    mc = mul_f[inv_f[w[pc]]]
                    w = [mc[x] for x in w]
                w_rows = [tuple(w)]
                for r in rows:
                    c = r[pc]
                    if c:
                        mc = mul_f[neg_f[c]]
                        r = tuple([add_f[a][mc[b]] for a, b in zip(r, w)])
                    w_rows.append(r)
                w_rows.sort(reverse=True)
                out.append((tuple(points[point_index[r]] for r in w_rows),
                            wmask))
            cand &= ~wmask
    out.sort()
    return out


@pytest.mark.parametrize("key", [("q", 3, 2), ("q", 3, 3), ("qminus", 3, 2),
                                 ("h", 2, 2), ("q", 4, 2)])
def test_extend_level_keys_are_point_masks(key):
    # every level rebuilt from the points, by the leading-column rule and
    # by the reference: the same (rows, mask) pairs in the same order, each
    # mask the point set of its rows and the rows their own RREF
    sp = build_polar_space(*key)
    field, points, index = sp.field, sp.points, sp.point_index
    codes = spaces._point_codes(field, points)
    urows = [(p,) for p in points]
    umasks = [1 << i for i in range(len(points))]
    for k in range(sp.rank - 1):
        last = k == sp.rank - 2
        level_codes = None if last else codes
        ref = _lowest_hyperplane_extend_level(
            field, points, index, sp.collinear, list(zip(urows, umasks)),
            level_codes)
        # the scan stops at the first U whose first pivot is column 0: every
        # such U comes after it
        skipped = [i for i, r in enumerate(urows) if r[0][0]]
        assert skipped == list(range(skipped[0], len(urows)))
        urows, umasks = spaces._extend_level(points, index, sp.collinear,
                                             urows, umasks, level_codes)
        level = list(zip(urows, umasks))
        assert level == ref
        for rows, mask in level:
            assert rows == rref(field, rows)
            assert mask == sum(1 << index[p]
                               for p in subspace_points(field, rows))
        want = ([g.rows for g in sp.generators] if last
                else sp.levels[k + 1])
        assert [rows for rows, _ in level] == want


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_point_code_sums(p, h):
    # a + c*b for every pair of points of PG(2,q) and every scalar c != 0,
    # through the integer codes, against the field tables
    field = make_field(p, h)
    pts = enumerate_pg_points(2, field)
    add, multiples, bit_of = spaces._point_codes(field, pts)
    bit = {pt: 1 << i for i, pt in enumerate(pts)}
    add_t, mul_t = field.addl, field.mull
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            if i == j:
                continue
            for c, code in zip(range(1, field.q), multiples[j]):
                s = [add_t[x][mul_t[c][y]] for x, y in zip(a, b)]
                got = bit_of[add(multiples[i][0], code)]
                assert got == bit[canonicalize(field, 2, [s]).rows[0]]


@pytest.mark.parametrize("width", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 2709])
def test_bit_lists_match_iter_bits(width):
    # random masks of every density, zero and full ones among them, in
    # chunks of 7 so that several chunks and a short last one run
    rng = random.Random(width)
    masks = [0, (1 << width) - 1]
    masks += [rng.getrandbits(width) & rng.getrandbits(width)
              for _ in range(40)]
    masks += [1 << rng.randrange(width) for _ in range(5)]
    want = [tuple(spaces._iter_bits(m)) for m in masks]
    assert spaces._bit_lists(masks, width, chunk=7) == want
    assert spaces._bit_lists(masks, width) == want
    assert spaces._bit_lists([], width) == []


def test_unknown_kind_and_guard():
    with pytest.raises(BuildError):
        build_polar_space("w", 2, 2)
    with pytest.raises(BuildError):
        build_polar_space("qplus3", 3, 2)
    with pytest.raises(BudgetError):
        build_polar_space("q", 5, 3)


def test_build_bytes_guard(monkeypatch):
    # Q-(7,4) and H(4,25) would need ~10 GB and ~19 GB of bitmasks; the
    # estimate must refuse them and admit H(6,4) (~0.2 GB)
    assert spaces.build_bytes("h", 3, 2) < spaces.MAX_BUILD_BYTES
    assert spaces.build_bytes("qminus", 3, 4) > 9 * 10 ** 9
    assert spaces.build_bytes("h", 2, 5) > 18 * 10 ** 9

    # the guard fires before any point is enumerated
    def no_enumeration(form):
        raise AssertionError("enumerated a space over the guard")

    monkeypatch.setattr(spaces, "_singular_points", no_enumeration)
    for key in [("qminus", 3, 4), ("h", 2, 5)]:
        with pytest.raises(BudgetError):
            build_polar_space(*key)


def test_pencil_sizes():
    assert pencil_size("q", 3) == 4
    assert pencil_size("qminus", 2) == 5
    assert pencil_size("h", 2) == 9
    assert pencil_size("qplus3", 2) == 2
    assert pencil_size("h3", 2) == 3


# The six per-kind case analyses the kind table replaced, verbatim but for
# their names: the reference the table is compared against.
def _ref_point_count(kind: str, rank: int, q: int) -> int:
    if kind == "q":
        return (q ** (2 * rank) - 1) // (q - 1)
    if kind == "qminus":
        return (q ** (rank + 1) + 1) * (q ** rank - 1) // (q - 1)
    if kind == "qplus3":
        return (q + 1) ** 2
    if kind == "h":
        n = rank
        return (q ** (2 * n + 1) + 1) * (q ** (2 * n) - 1) // (q ** 2 - 1)
    if kind == "h3":
        return (q ** 3 + 1) * (q ** 2 + 1)
    raise BuildError(f"unknown kind {kind!r}")


def _ref_generator_count(kind: str, rank: int, q: int) -> int:
    if kind == "q":
        out = 1
        for i in range(1, rank + 1):
            out *= q ** i + 1
        return out
    if kind == "qminus":
        out = 1
        for i in range(2, rank + 2):
            out *= q ** i + 1
        return out
    if kind == "qplus3":
        return 2 * (q + 1)
    if kind == "h":
        out = 1
        for i in range(1, rank + 1):
            out *= q ** (2 * i + 1) + 1
        return out
    if kind == "h3":
        return (q ** 3 + 1) * (q + 1)
    raise BuildError(f"unknown kind {kind!r}")


def _ref_st_params(kind: str, q: int):
    """GQ order (s,t) of the rank-2 space of the given kind."""
    return {
        "q": (q, q),
        "qminus": (q, q ** 2),
        "h": (q ** 2, q ** 3),
        "qplus3": (q, 1),
        "h3": (q ** 2, q),
    }[kind]


def _ref_pencil_size(kind: str, q: int) -> int:
    """Number of generators through an (r-2)-dimensional totally singular
    subspace: t+1 for rank 2 and the cone base size t_base+1 in general."""
    return {
        "q": q + 1,
        "qminus": q ** 2 + 1,
        "h": q ** 3 + 1,
        "qplus3": 2,
        "h3": q + 1,
    }[kind]


def _ref_space_name(kind: str, rank: int, q: int) -> str:
    if kind == "q":
        return f"Q({2 * rank},{q})"
    if kind == "qminus":
        return f"Q-({2 * rank + 1},{q})"
    if kind == "h":
        return f"H({2 * rank},{q ** 2})"
    if kind == "qplus3":
        return f"Q+(3,{q})"
    if kind == "h3":
        return f"H(3,{q ** 2})"
    raise BuildError(f"unknown kind {kind!r}")


def _ref_standard_form(kind: str, rank: int, q: int) -> Form:
    if kind == "q":
        return parabolic_form(rank, field_of_order(q))
    if kind == "qminus":
        return elliptic_form(rank, field_of_order(q))
    if kind == "qplus3":
        if rank != 2:
            raise BuildError("Q+(3,q) has rank 2")
        return hyperbolic_form(2, field_of_order(q))
    if kind == "h":
        return hermitian_form(2 * rank, q)
    if kind == "h3":
        if rank != 2:
            raise BuildError("H(3,q^2) has rank 2")
        return hermitian_form(3, q)
    raise BuildError(f"unknown kind {kind!r}")


PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@pytest.mark.parametrize("kind", spaces.KINDS)
def test_kind_table_matches_case_analyses(kind):
    ranks = (2,) if kind in ("qplus3", "h3") else range(1, 6)
    for q in PRIME_POWERS:
        assert st_params(kind, q) == _ref_st_params(kind, q)
        assert pencil_size(kind, q) == _ref_pencil_size(kind, q)
        for rank in ranks:
            key = (kind, rank, q)
            assert point_count(*key) == _ref_point_count(*key), key
            assert generator_count(*key) == _ref_generator_count(*key), key
            assert spaces.space_name(*key) == _ref_space_name(*key), key
            assert spaces.standard_form(*key) == _ref_standard_form(*key), key


def test_kind_table_rejects_unknown_kind_and_rank():
    for call, args in [(point_count, (2, 2)), (generator_count, (2, 2)),
                       (st_params, (2,)), (pencil_size, (2,)),
                       (spaces.space_name, (2, 2)),
                       (spaces.standard_form, (2, 2))]:
        with pytest.raises(BuildError, match="unknown kind 'x'"):
            call("x", *args)
    # only a standard build is held to rank 2; counts and names hold at
    # every rank
    for kind, rank in [("qplus3", 3), ("h3", 1)]:
        for call in (spaces.standard_form, build_polar_space):
            with pytest.raises(BuildError,
                               match=f"^{kind} is a rank-2 space$"):
                call(kind, rank, 2)
    for key, want in [(("qplus3", 3, 2), (35, 30, "Q+(5,2)")),
                      (("h3", 1, 2), (3, 3, "H(1,4)"))]:
        assert (point_count(*key), generator_count(*key),
                spaces.space_name(*key)) == want


def _ref_section_label(space, rad_dim: int, npts: int) -> str:
    q = space.q
    table = {}
    if space.kind == "qminus" and space.rank == 2:
        table = {
            (-1, (q ** 2 + 1) * (q + 1)): f"Q(4,{q})",
            (0, 1 + q * (q ** 2 + 1)): f"pt*Q-(3,{q})",
        }
    elif space.kind == "q" and space.rank == 2:
        table = {
            (-1, (q + 1) ** 2): f"Q+(3,{q})",
            (-1, q ** 2 + 1): f"Q-(3,{q})",
            (0, 1 + q * (q + 1)): f"pt*Q(2,{q})",
        }
    elif space.kind == "h" and space.rank == 2:
        table = {
            (-1, (q ** 2 + 1) * (q ** 3 + 1)): f"H(3,{q ** 2})",
            (0, 1 + q ** 2 * (q ** 3 + 1)): f"pt*H(2,{q ** 2})",
        }
    elif space.kind == "q" and space.rank == 3:
        table = {
            (-1, (q ** 2 + 1) * (q ** 2 + q + 1)): f"Q+(5,{q})",
            (-1, (q ** 3 + 1) * (q + 1)): f"Q-(5,{q})",
            (0, 1 + q * point_count("q", 2, q)): f"pt*Q(4,{q})",
        }
    elif space.kind == "qminus" and space.rank == 3:
        table = {
            (-1, point_count("q", 3, q)): f"Q(6,{q})",
            (0, 1 + q * point_count("qminus", 2, q)): f"pt*Q-(5,{q})",
        }
    return table.get((rad_dim, npts),
                     f"section(radical_dim={rad_dim}, points={npts})")


@pytest.mark.parametrize("key", [("q", 2, 2), ("q", 2, 3), ("qminus", 2, 2),
                                 ("qminus", 2, 3), ("h", 2, 2), ("q", 3, 2),
                                 ("qminus", 3, 2)])
def test_section_labels_match_count_tables(key):
    # the hand-typed (kind, rank) tables the kind table's sections replaced
    sp = build_polar_space(*key)
    for h in enumerate_hyperplanes(sp):
        sec = hyperplane_section(sp, h)
        want = _ref_section_label(sp, sec.radical.dim, len(sec.point_indices))
        assert sec.label == want, h.rows
        assert not want.startswith("section(")


@pytest.mark.parametrize("key, census", [
    (("qplus3", 2, 2), {"pt*Q+(1,2)": 9, "Q(2,2)": 6}),
    (("h3", 2, 2), {"H(2,4)": 40, "pt*H(1,4)": 45}),
    (("q", 4, 2), {"Q+(7,2)": 136, "Q-(7,2)": 120, "pt*Q(6,2)": 255}),
])
def test_section_census_past_count_tables(key, census):
    sp = build_polar_space(*key)
    assert Counter(hyperplane_section(sp, h).label
                   for h in enumerate_hyperplanes(sp)) == census


@pytest.mark.parametrize("key, name, count", [
    (("qplus3", 2, 2), "Q+(1,2)", 2), (("qplus3", 2, 3), "Q+(1,3)", 2),
    (("h3", 2, 2), "H(1,4)", 3)])
def test_quotient_of_rank2_section_kind(key, name, count):
    quot = build_polar_space(*key).quotient_map(0).quotient
    assert (quot.name, quot.num_points, quot.num_generators) == (
        name, count, count)


def test_theta_helper():
    assert theta(-1, 2) == 0
    assert theta(0, 5) == 1
    assert theta(2, 2) == 7
    assert theta(4, 2) == 31


# content_hash() and the sha256 of the meets rows (little-endian, padded to
# whole bytes), recorded before the level extension was rewritten; any
# change to the build must leave both untouched.
PINNED_BUILDS = {
    ("q", 2, 2): (
        "51a150dcc63216361011dc9b12d5dbdb58f38e5384451fb28991bd3d6aaa2feb",
        "a5fccb88093d312a5199abd3d6d03463247493bb07c6636f7598681a80a1b831"),
    ("q", 2, 3): (
        "d9f9d69e168b8a9671e5ad1f128bba2836c11674416dfdc99f6c9157e5af0029",
        "06b6f8273aae30697b4886419fc93179d55d73fcbca9b64512836626991ad5d2"),
    ("qminus", 2, 2): (
        "be139962444c518359c4347cdedb0953162e108cf09860753b7a8ee5855ce910",
        "139b2c5e9b16560941f49709b04248c408100ea26359295d8a31a6204edcc1f5"),
    ("qminus", 2, 3): (
        "0127bb74555e722025bf77f48ed3dd1620d971aeead4f90778f1b0a7cd56cac6",
        "37de7fb3cd38104638c45dc235e807ef45ab3771b05459b1354faa087eb75b16"),
    ("h", 2, 2): (
        "f52973345ae354b36996410a7dd46d31b4be9cf08cd13e08f74a7dce45b15ffa",
        "95982e98d3455bc0931593484192630d3aeb578e65be28fa03f731989198b8a7"),
    ("q", 3, 2): (
        "3b76f38b7193ecc5948576a955ab76306e6b9843e233a2ce96e317cd578c5487",
        "d1257cafe512fd4087ee2d8cc5f31cf4c51842a8942ef9214c1d36c7cf1abc7f"),
    ("qminus", 3, 2): (
        "be037b3e5e6e143c9344c922af655b226e17794dd276df79d0a806c8b922407d",
        "03e4aecb8fc900f05a12f60b66ae978571963364abb2d8f83af58b241c2adc28"),
    ("q", 4, 2): (
        "c21f446e04ee0662d7d8442100b2c3913bcb0164d7feb6395fe221127daa5ad9",
        "f55012987e4768d96e966f77a3b68c49566a93941cf46eb1ebe7ac340d23050d"),
    ("q", 3, 3): (
        "23aad5416f76f7c99a7ae832d958d082bfe4d644ba5ef4efeb39befbe56a3508",
        "e1a9f10a36a601d213d54ee236350d58f5a4ce4ad83f4e99cce06a487a060534"),
    ("h", 3, 2): (
        "a5624061f0670cde7367511be2a000f4496216691b5731800318df025a76a268",
        "10c0d0ba8cc538375650ce3e24e868231e585d268329c85d7a66574973cdfe48"),
}


def _keys_h64_slow(keys):
    # the H(6,4) build takes seconds; acceptance criterion 6 shares it
    return [pytest.param(k, marks=pytest.mark.slow) if k == ("h", 3, 2) else k
            for k in sorted(keys)]


def _ref_content_hash(space) -> str:
    # the former body of spaces._content_hash: one json.dumps of the whole
    # payload, for the new one to match byte for byte
    payload = {
        "kind": space.kind,
        "rank": space.rank,
        "q": space.q,
        # tuples dump as JSON arrays, so no list copies are made
        "points": space.points,
        "generators": [g.rows for g in space.generators],
    }
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("key", _keys_h64_slow(PINNED_BUILDS) + [
    ("qplus3", 2, 11), ("qplus3", 2, 16), ("h", 1, 4), ("q", 1, 3),
    ("q", 2, 9), "quotient"])
def test_content_hash_matches_reference(key):
    # two-digit coordinates, rank 1 and a quotient's form included
    if key == "quotient":
        sp = quotient_at_point(build_polar_space("q", 3, 3), 0)[0]
    else:
        sp = build_polar_space(*key)
    assert sp.content_hash() == _ref_content_hash(sp)


@pytest.mark.parametrize("key", _keys_h64_slow(PINNED_BUILDS))
def test_build_output_pinned(key):
    sp = build_polar_space(*key)
    want_hash, want_meets = PINNED_BUILDS[key]
    assert sp.content_hash() == want_hash
    width = (sp.num_generators + 7) // 8
    h = hashlib.sha256()
    for row in sp.meets:
        h.update(row.to_bytes(width, "little"))
    assert h.hexdigest() == want_meets


# sha256 of the compact JSON of PolarSpace.levels (the RREF rows of every
# kept level), recorded before the level extension was keyed by point mask.
# Rank 2 keeps only the points, so these rank-3 spaces are the ones whose
# lines go through the intermediate-level path.
PINNED_LEVELS = {
    ("q", 3, 2): "1f3477f9ad2720797210cef70ac5b78a99322477151a34fa7133eb1a04a494e3",
    ("qminus", 3, 2): "126b4add364e78e0a85bc2a7c26f157453642a7d67bc0ef0be13c9fe666148ea",
    ("q", 3, 3): "4c921761e2cf6230973ea630f05e789388107db8cc078592555c58e8e447c6cc",
    ("h", 3, 2): "1439cfea6d1c1d2b7446b7ea2f3ae474aae9c74aaafcf489e3fba5484ebe5485",
}


@pytest.mark.parametrize("key", _keys_h64_slow(PINNED_LEVELS))
def test_levels_output_pinned(key):
    sp = build_polar_space(*key)
    blob = json.dumps(sp.levels, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_LEVELS[key]


def _generators_through_point_scan(space, sub):
    """The generators containing sub, found by scanning every generator for
    the points of sub (KeyError when one of them is not singular)."""
    if sub.dim < 0:
        return list(range(space.num_generators))
    smask = 0
    for p in subspace_points(space.field, sub.rows):
        smask |= 1 << space.point_index[p]
    return [gi for gi in range(space.num_generators)
            if space.gen_point_mask[gi] & smask == smask]


@pytest.mark.parametrize("key", [("q", 2, 3), ("qminus", 2, 2), ("h", 2, 2),
                                 ("q", 3, 2), ("qminus", 3, 2), ("q", 4, 2)])
def test_generators_through_matches_point_scan(key):
    sp = build_polar_space(*key)
    subs = [Subspace(sp.field, sp.n, rows) for level in sp.levels
            for rows in level]
    # random spans, mostly of singular points so that many are totally
    # singular; the scan answers only for those
    rng = random.Random(7)
    pg = enumerate_pg_points(sp.n, sp.field)
    for _ in range(300):
        pool = sp.points if rng.random() < 0.8 else pg
        pts = rng.sample(pool, rng.randint(1, sp.rank))
        subs.append(canonicalize(sp.field, sp.n, pts))
    answered = 0
    for sub in subs:
        try:
            want = _generators_through_point_scan(sp, sub)
        except KeyError:
            continue
        answered += 1
        assert sp.generators_through(sub) == want
    assert answered > sum(len(level) for level in sp.levels)


def test_generators_through_non_singular_span_is_empty():
    sp = build_polar_space("q", 2, 3)
    off = next(p for p in enumerate_pg_points(sp.n, sp.field)
               if p not in sp.point_index)
    assert sp.generators_through(canonicalize(sp.field, sp.n, [off])) == []
    # a secant line: both basis points singular, the line not
    a, b = next((a, b) for a, b in combinations(range(sp.num_points), 2)
                if not sp.collinear[a] >> b & 1)
    secant = canonicalize(sp.field, sp.n, [sp.points[a], sp.points[b]])
    assert sp.generators_through(secant) == []


def _crows_rref_trial(space, point_idx):
    """The rows of perp(P) that extend <P> to a basis of perp(P), taken in
    order whenever one raises the rank of the rows kept so far."""
    p = space.points[point_idx]
    perp = space.form.perp(canonicalize(space.field, space.n, [p]))
    basis, crows = [p], []
    for r in perp.rows:
        if len(rref(space.field, tuple(basis) + (r,))) > len(basis):
            basis.append(r)
            crows.append(r)
    return tuple(crows)


@pytest.mark.parametrize("key", _keys_h64_slow(
    [("q", 2, 3), ("qminus", 2, 3), ("h", 2, 2), ("q", 3, 2),
     ("qminus", 3, 2), ("q", 4, 2), ("q", 3, 3), ("h", 3, 2)]))
def test_quotient_map_crows_match_rref_trial(key):
    sp = build_polar_space(*key)
    for i in range(sp.num_points):
        assert sp.quotient_map(i).crows == _crows_rref_trial(sp, i)

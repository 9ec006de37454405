from itertools import combinations

import numpy as np
import pytest

from polarblock.forms import is_totally_singular
from polarblock.spaces import build_polar_space, pencil_size
from polarblock.projective import canonicalize, enumerate_pg_points
from polarblock import analysis as A
from polarblock import constructions as C
from polarblock import search as S


def test_pencil_sizes_per_kind():
    cases = [("q", 2, 2, 3), ("q", 2, 3, 4), ("qminus", 2, 2, 5),
             ("qminus", 2, 3, 10), ("h", 2, 2, 9), ("qplus3", 2, 2, 2),
             ("h3", 2, 2, 3), ("q", 3, 2, 3), ("qminus", 3, 2, 5)]
    for kind, rank, q, size in cases:
        sp = build_polar_space(kind, rank, q)
        p = C.pencil(sp)
        assert p.size == size == pencil_size(kind, q)
        assert p.delta == 0
        assert A.is_blocking(sp, p.members)
        assert A.is_minimal(sp, p.members)


def test_pencil_rejects_bad_vertex():
    sp = build_polar_space("q", 3, 2)
    pt = canonicalize(sp.field, sp.n, [sp.points[0]])
    with pytest.raises(ValueError):
        C.pencil(sp, pt)  # needs a line, not a point
    # a secant line: two singular points that are not collinear
    far = next(i for i in range(sp.num_points)
               if not sp.collinear[0] >> i & 1)
    secant = canonicalize(sp.field, sp.n, [sp.points[0], sp.points[far]])
    assert secant.dim == 1
    with pytest.raises(ValueError, match="totally singular"):
        C.pencil(sp, secant)
    with pytest.raises(ValueError):
        C.pencil(build_polar_space("q", 2, 2),
                 canonicalize(sp.field, 4, [(1, 0, 0, 0, 0)]))


def test_pencil_deterministic_seed():
    sp = build_polar_space("qminus", 2, 2)
    assert C.pencil(sp).members == C.pencil(sp).members
    assert C.lex_least_ts_subspace(sp, 0).rows == (sp.points[0],)
    # on Q(6,2) the least line is the least of all collinear point pairs'
    # spans, the pencil's vertex
    sp = build_polar_space("q", 3, 2)
    lines = set()
    for a, b in combinations(sp.points, 2):
        line = canonicalize(sp.field, sp.n, [a, b])
        if is_totally_singular(sp.form, line):
            lines.add(line.rows)
    least = C.lex_least_ts_subspace(sp, 1)
    assert least.rows == min(lines)
    assert C.lex_least_ts_subspace(sp, -1).rows == ()
    # dimensions outside -1..rank-2 name no level
    for dim in (-2, 2):
        with pytest.raises(ValueError, match=r"-1\.\.1"):
            C.lex_least_ts_subspace(sp, dim)
    assert C.pencil(sp).members == tuple(sp.generators_through(least))


def test_rulings_grid_structure():
    sp = build_polar_space("qplus3", 2, 2)
    fam0, fam1 = C.grid_rulings(sp)
    assert len(fam0) == len(fam1) == 3
    r0 = C.ruling_spread(sp, 0)
    assert A.is_spread(sp, r0.members)
    # opposite rulings meet pairwise in exactly one point
    for a in fam0:
        for b in fam1:
            common = sp.gen_point_mask[a] & sp.gen_point_mask[b]
            assert common.bit_count() == 1


def test_embedded_ruling_is_minimal_blocking():
    sp = build_polar_space("q", 2, 2)
    sec = C.hyperbolic_section(sp)
    emb = C.ruling_spread(sp, 0)
    assert A.is_blocking(sp, emb.members)
    assert A.is_minimal(sp, emb.members)
    assert A.classify(sp, emb.members).label == "SubGQSpread"
    other = C.ruling_spread(sp, 1)
    assert set(other.members).isdisjoint(emb.members)
    # the two rulings of the lex-least Q+(3,2) section
    assert sorted(emb.members + other.members) == list(sec.gen_indices)


def test_ruling_rejects_non_grid():
    sp = build_polar_space("q", 2, 2)
    # lines 0..5 of Q(4,2) happen to be a genuine embedded grid
    fam0, fam1 = C.grid_rulings(sp, lines=list(range(6)))
    assert len(fam0) == len(fam1) == 3
    with pytest.raises(ValueError):
        C.grid_rulings(sp, lines=[0, 1, 2, 3, 4, 6])
    with pytest.raises(ValueError):
        C.grid_rulings(sp, lines=list(range(5)))
    with pytest.raises(ValueError):
        C.grid_rulings(sp)  # not a Q+(3,q) space


def test_ruling_spread_rejects_bad_which():
    sp = build_polar_space("qplus3", 2, 2)
    # 2 would index past the two rulings; -1 and True would pick ruling 1
    for bad in (2, -1, True, 1.0):
        with pytest.raises(ValueError):
            C.ruling_spread(sp, bad)


def test_section_cover_q2():
    sp = build_polar_space("qminus", 2, 2)
    cov = C.section_cover(sp)
    assert cov.size == 5  # q even: a spread of the section
    assert A.is_blocking(sp, cov.members)
    assert A.is_minimal(sp, cov.members)
    assert A.is_partial_spread(sp, cov.members)
    assert A.classify(sp, cov.members).label == "CoverOfSectionQ4"


def test_section_cover_q3():
    sp = build_polar_space("qminus", 2, 3)
    cov = C.section_cover(sp)
    assert cov.size == 11  # exact minimum cover of Q(4,3), regression anchor
    assert cov.size >= sp.q ** 2 + 1
    assert A.is_blocking(sp, cov.members)
    assert not A.is_partial_spread(sp, cov.members)  # no spread for odd q


def test_section_cover_needs_elliptic():
    sp = build_polar_space("q", 2, 2)
    with pytest.raises(ValueError):
        C.section_cover(sp)


@pytest.mark.parametrize("kind,rank,row,label", [
    ("q", 3, "conic-pencil", "ConeOverConicPencil"),
    ("q", 3, "qplus3-spread", "ConeOverQplus3Spread"),
    ("qminus", 3, "elliptic-pencil", "ConeOverEllipticPencil"),
    ("qminus", 3, "q4-cover", "ConeOverQ4Cover"),
])
def test_cone_examples_roundtrip_rank3(kind, rank, row, label):
    sp = build_polar_space(kind, rank, 2)
    bs = C.cone_example(sp, row)
    assert A.is_blocking(sp, bs.members)
    assert A.is_minimal(sp, bs.members)
    assert bs.size == pencil_size(kind, 2)
    assert A.classify(sp, bs.members).label == label


def test_cone_rejects_bad_row_and_rank():
    sp = build_polar_space("q", 3, 2)
    with pytest.raises(ValueError,
                       match=r"^no cone row 'hermitian-pencil' for kind 'q'$"):
        C.cone_example(sp, "hermitian-pencil")
    with pytest.raises(ValueError,
                       match=r"^no cone row 'conic-pencil' for kind 'qminus'$"):
        C.cone_example(build_polar_space("qminus", 3, 2), "conic-pencil")
    with pytest.raises(ValueError, match=r"^no cone row 'nosuch' for kind 'q'$"):
        C.cone_example(sp, "nosuch")
    with pytest.raises(ValueError, match=r"^cone examples need rank >= 3$"):
        C.cone_example(build_polar_space("q", 2, 2), "conic-pencil")
    # wrong vertex dimension, for a pencil row and for a quotient row
    pt = canonicalize(sp.field, sp.n, [sp.points[0]])
    with pytest.raises(ValueError, match=r"^row 'conic-pencil' needs a vertex "
                                         r"of dimension 1, got 0$"):
        C.cone_example(sp, "conic-pencil", pt)
    with pytest.raises(ValueError, match=r"^row 'qplus3-spread' needs a vertex "
                                         r"of dimension 0, got 1$"):
        C.cone_example(sp, "qplus3-spread", C.lex_least_ts_subspace(sp, 1))


def test_cone_vertex_in_every_member():
    sp = build_polar_space("qminus", 3, 2)
    bs = C.cone_example(sp, "q4-cover")
    v = sp.generators[bs.members[0]]
    from polarblock.projective import meet

    for m in bs.members[1:]:
        v = meet(v, sp.generators[m])
    assert v.dim == sp.rank - 3


def test_cone_avoidance_bounds_quadric_cones():
    cases = [("q", "conic-pencil"), ("q", "qplus3-spread"),
             ("qminus", "elliptic-pencil"), ("qminus", "q4-cover")]
    for kind, row in cases:
        sp = build_polar_space(kind, 3, 2)
        bs = C.cone_example(sp, row)
        got, _ = C.min_generators_outside_hyperplanes(sp, bs.members)
        assert got >= A.CONE_ROWS[row].avoidance(2), (kind, row, got)


# min_generators_outside_hyperplanes of the five cone rows of criterion 8:
# the minimum and its first attaining functional in span coordinates
PINNED_AVOIDANCE = {
    ("q", "conic-pencil"): (1, (1, 0, 0, 0, 0)),
    ("q", "qplus3-spread"): (2, (0, 0, 0, 1, 0)),
    ("qminus", "elliptic-pencil"): (2, (0, 0, 1, 1, 0, 0)),
    ("qminus", "q4-cover"): (3, (1, 0, 0, 0, 0, 0)),
    ("h", "hermitian-pencil"): (6, (0, 0, 1, 0, 0)),
}


@pytest.mark.parametrize("kind,row", [
    pytest.param(*k, marks=pytest.mark.slow) if k[0] == "h" else k
    for k in PINNED_AVOIDANCE])
def test_cone_avoidance_pinned(kind, row):
    sp = build_polar_space(kind, 3, 2)
    bs = C.cone_example(sp, row)
    got = C.min_generators_outside_hyperplanes(sp, bs.members)
    assert got == PINNED_AVOIDANCE[kind, row]


def _min_outside_by_loops(sp, members):
    """min_generators_outside_hyperplanes as a loop over functionals,
    members, rows and coordinates with scalar add and mul."""
    field = sp.field
    total = canonicalize(field, sp.n,
                         [r for m in members for r in sp.generators[m].rows])
    pivots = [r.index(1) for r in total.rows]
    coords = [[tuple(r[c] for c in pivots) for r in sp.generators[m].rows]
              for m in members]
    add, mul = field.addl, field.mull
    best = arg = None
    for c in enumerate_pg_points(total.dim, field):
        outside = 0
        for rs in coords:
            for r in rs:
                acc = 0
                for cj, rj in zip(c, r):
                    acc = add[acc][mul[cj][rj]]
                if acc:
                    outside += 1
                    break
        if best is None or outside < best:
            best, arg = outside, c
    return best, arg


def _avoidance_sets():
    for kind, row in PINNED_AVOIDANCE:
        marks = [pytest.mark.slow] if kind == "h" else []
        yield pytest.param(kind, 3, 2, row, marks=marks,
                           id=f"{kind}-{row}")
    for key in [("q", 2, 3), ("qminus", 2, 2), ("h", 2, 2), ("q", 3, 2)]:
        name = "-".join(map(str, key))
        for row in ("pencil", "greedy"):
            yield pytest.param(*key, row, id=f"{name}-{row}")


@pytest.mark.parametrize("kind,rank,q,row", _avoidance_sets())
def test_min_outside_hyperplanes_vs_loops(kind, rank, q, row):
    sp = build_polar_space(kind, rank, q)
    if row == "pencil":
        sets = [C.pencil(sp).members]
    elif row == "greedy":
        rng = np.random.default_rng(7)
        sets = [S.greedy_then_minimize(sp, rng) for _ in range(5)]
    else:
        sets = [C.cone_example(sp, row).members]
    for members in sets:
        assert (C.min_generators_outside_hyperplanes(sp, members)
                == _min_outside_by_loops(sp, members))


def test_table1_sizes():
    # sizes follow the base-set column: q+1, q+1, q^2+1, q^2+1, q^3+1
    s6 = build_polar_space("q", 3, 2)
    s7 = build_polar_space("qminus", 3, 2)
    assert C.cone_example(s6, "conic-pencil").size == 3
    assert C.cone_example(s6, "qplus3-spread").size == 3
    assert C.cone_example(s7, "elliptic-pencil").size == 5
    assert C.cone_example(s7, "q4-cover").size == 5


def test_find_section_missing():
    sp = build_polar_space("q", 2, 2)
    with pytest.raises(ValueError):
        C.find_section(sp, "H(3,4)")

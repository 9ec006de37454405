import hashlib
import json
import random
from itertools import combinations
from math import isqrt

import numpy as np
import pytest

from polarblock.projective import canonicalize
from polarblock.spaces import BudgetError, build_polar_space
from polarblock import analysis as A
from polarblock import constructions as C
from polarblock import search as S


def pencil_through_point(space, p):
    return tuple(g for g in range(space.num_generators)
                 if (space.point_gen_mask[p] >> g) & 1)


def test_blocking_basics():
    sp = build_polar_space("q", 2, 2)
    assert A.is_blocking(sp, range(sp.num_generators))
    assert not A.is_blocking(sp, [])
    pen = pencil_through_point(sp, 0)
    assert A.is_blocking(sp, pen)
    assert A.is_minimal(sp, pen)
    assert A.essential_members(sp, pen) == pen


def test_full_line_set_not_minimal():
    sp = build_polar_space("q", 2, 2)
    allg = tuple(range(sp.num_generators))
    assert A.is_blocking(sp, allg)
    assert A.essential_members(sp, allg) == ()
    assert not A.is_minimal(sp, allg)


def test_spread_blocking_but_not_minimal_on_q42():
    # a spread of Q(4,2): every outside line meets exactly 3 members, so no
    # member is essential, yet no member can be removed
    import polarblock.search as S

    sp = build_polar_space("q", 2, 2)
    cov = S.min_cover_of_space(sp)
    spread = cov.witnesses[0]
    assert A.is_spread(sp, spread)
    assert A.is_blocking(sp, spread)
    assert not A.is_minimal(sp, spread)
    assert A.minimize_blocking_set(sp, spread) == tuple(sorted(spread))


def test_validate_members_errors():
    sp = build_polar_space("q", 2, 2)
    with pytest.raises(ValueError):
        A.validate_members(sp, [1, 1])
    with pytest.raises(ValueError):
        A.validate_members(sp, [99])


@pytest.mark.parametrize("members", [[1.5, 2.9, "4"], [1.0], ["4"],
                                     [True, 5], [np.bool_(True)]])
def test_validate_members_refuses_non_integers(members):
    # a float is not truncated, a string not parsed, a bool not read as 0/1
    sp = build_polar_space("q", 2, 2)
    with pytest.raises(ValueError, match="not an integer"):
        A.validate_members(sp, members)


def test_validate_members_accepts_numpy_integers():
    sp = build_polar_space("q", 2, 2)
    members = [np.int64(4), np.int32(1), np.uint8(2)]
    assert A.validate_members(sp, members) == (1, 2, 4)
    assert A.validate_members(sp, np.array([4, 1, 2])) == (1, 2, 4)


def test_coverage_profile_pencil_q52():
    sp = build_polar_space("qminus", 2, 2)
    pen = pencil_through_point(sp, 0)
    prof = A.coverage_profile(sp, pen)
    assert prof.num_covered == 5 * 3 - 4 == 11
    assert prof.W == sp.t
    assert len(prof.holes) == 16
    assert prof.w[0] == sp.t + 1
    # blocking iff b_0 = b~_0 = 0: independent code paths agree
    assert (prof.b.get(0, 0) == 0) == A.is_blocking(sp, pen)
    assert (prof.b_tilde.get(0, 0) == 0) == A.is_blocking(sp, pen)
    some = (0, 1)
    prof2 = A.coverage_profile(sp, some)
    assert (prof2.b.get(0, 0) == 0) == A.is_blocking(sp, some)
    assert (prof2.b_tilde.get(0, 0) == 0) == A.is_blocking(sp, some)


def test_coverage_profile_spread():
    import polarblock.search as S

    sp = build_polar_space("q", 2, 2)
    spread = S.min_cover_of_space(sp).witnesses[0]
    prof = A.coverage_profile(sp, spread)
    assert prof.W == 0
    assert prof.holes == ()


def test_higher_rank_profile_restricted():
    sp = build_polar_space("q", 3, 2)
    pen = C.pencil(sp)
    prof = A.coverage_profile(sp, pen.members)
    assert prof.b is None and prof.b_tilde is None
    ppg = sp.points_per_generator()
    assert prof.num_covered == pen.size * ppg - prof.W


def test_identities_pencils_and_spreads():
    for kind, q in [("q", 2), ("q", 3), ("qminus", 2), ("qminus", 3)]:
        sp = build_polar_space(kind, 2, q)
        rep = A.check_coverage_identities(sp, C.pencil(sp).members)
        assert rep.applicable and rep.all_ok, (kind, q, rep.items)
    # spreads have delta > 0 on Q(4,2); cover-spreads of Q-(5,2) have delta 0
    sp = build_polar_space("qminus", 2, 2)
    cov = C.section_cover(sp)
    rep = A.check_coverage_identities(sp, cov.members)
    assert rep.applicable and rep.all_ok
    assert len(A.coverage_profile(sp, cov.members).holes) > 0


def test_identities_not_applicable_gate():
    sp = build_polar_space("q", 2, 2)  # s-1 = 1, so delta must be 0
    import polarblock.search as S

    spread = S.min_cover_of_space(sp).witnesses[0]  # size 5, delta 2
    rep = A.check_coverage_identities(sp, spread)
    assert not rep.applicable
    assert "not applicable" in rep.reason
    sp3 = build_polar_space("q", 3, 2)
    rep3 = A.check_coverage_identities(sp3, C.pencil(sp3).members)
    assert not rep3.applicable  # rank-2 notion only


def test_identities_ignore_member_order():
    # a pencil, a section cover, a spread past the gate, a non-blocking set,
    # a greedy minimal set, and a rank-3 pencil: reversed members give the
    # report of sorted ones
    import numpy as np
    import polarblock.search as S

    rng = np.random.default_rng(5)
    cases = []
    for kind, q in [("q", 2), ("q", 3), ("qminus", 2), ("h", 2)]:
        sp = build_polar_space(kind, 2, q)
        members = C.pencil(sp).members
        cases += [(sp, members), (sp, members[1:]),
                  (sp, S.greedy_then_minimize(sp, rng))]
    sp = build_polar_space("qminus", 2, 2)
    cases.append((sp, C.section_cover(sp).members))
    sp = build_polar_space("q", 2, 2)
    cases.append((sp, S.min_cover_of_space(sp).witnesses[0]))
    sp = build_polar_space("q", 3, 2)
    cases.append((sp, C.pencil(sp).members))
    for sp, members in cases:
        assert (A.check_coverage_identities(sp, sorted(members)[::-1])
                == A.check_coverage_identities(sp, sorted(members)))


def test_gq_axioms_pass_and_fail():
    sp = build_polar_space("q", 2, 2)
    res = A.check_gq_axioms(range(sp.num_points), sp.gen_points)
    assert res.ok and res.order == (2, 2)
    bad = A.check_gq_axioms(range(9), [(0, 1, 2), (3, 4, 5), (6, 7, 8),
                                       (0, 3, 6), (1, 4, 7)])
    assert not bad.ok and "degrees" in bad.failure
    # two points on two common lines
    dup = A.check_gq_axioms(range(4), [(0, 1), (0, 1), (2, 3), (2, 3)])
    assert not dup.ok
    # a projective plane fails the unique-collinear-pair axiom
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
            (2, 3, 6), (2, 4, 5)]
    res = A.check_gq_axioms(range(7), fano)
    assert not res.ok and "unique-collinear-pair" in res.failure


def test_partial_spread_predicates():
    sp = build_polar_space("qplus3", 2, 2)
    fam0, fam1 = C.grid_rulings(sp)
    assert A.is_partial_spread(sp, fam0)
    assert A.is_spread(sp, fam0)
    assert A.is_maximal_partial_spread(sp, fam0)
    pen = pencil_through_point(sp, 0)
    assert not A.is_partial_spread(sp, pen)
    assert A.is_partial_spread(sp, fam0[:2])
    assert not A.is_maximal_partial_spread(sp, fam0[:2])


def test_spread_cover_blocking_chain():
    import polarblock.search as S

    for kind, q in [("q", 2), ("qplus3", 2)]:
        sp = build_polar_space(kind, 2, q)
        spread = S.min_cover_of_space(sp).witnesses[0]
        if A.is_spread(sp, spread):
            assert A.is_cover(sp, spread)
        assert A.is_cover(sp, spread)
        assert A.is_blocking(sp, spread)


def test_classify_requires_minimal_blocking():
    sp = build_polar_space("q", 2, 2)
    with pytest.raises(ValueError):
        A.classify(sp, [0])
    allg = tuple(range(sp.num_generators))
    with pytest.raises(ValueError):
        A.classify(sp, allg)


def test_classify_known_examples():
    sp = build_polar_space("q", 2, 2)
    ruling = C.ruling_spread(sp, 0)
    cls = A.classify(sp, ruling.members)
    assert cls.label == "SubGQSpread"
    assert cls.details["order"] == (2, 1)
    assert A.verify_classification(sp, ruling.members, cls)

    s5 = build_polar_space("qminus", 2, 2)
    cov = C.section_cover(s5)
    cls5 = A.classify(s5, cov.members)
    assert cls5.label == "CoverOfSectionQ4"
    assert A.verify_classification(s5, cov.members, cls5)

    s6 = build_polar_space("q", 3, 2)
    cone = C.cone_example(s6, "conic-pencil")
    cls6 = A.classify(s6, cone.members)
    assert cls6.label == "ConeOverConicPencil"
    assert cls6.vertex.dim == 1
    assert A.verify_classification(s6, cone.members, cls6)


PARABOLIC_CONES = {"ConeOverConicPencil", "ConeOverQplus3Spread"}
ELLIPTIC_CONES = {"ConeOverEllipticPencil", "ConeOverQ4Cover"}


@pytest.mark.parametrize("kind,rank,labels", [
    ("q", 2, {"Pencil", "SubGQSpread"}),
    ("q", 3, PARABOLIC_CONES),
    ("q", 4, PARABOLIC_CONES),
    ("qminus", 2, {"Pencil", "CoverOfSectionQ4"}),
    ("qminus", 3, ELLIPTIC_CONES),
    ("qminus", 4, ELLIPTIC_CONES),
    ("h", 2, {"Pencil"}),
    ("h", 3, {"ConeOverHermitianPencil"}),
    ("h", 4, {"ConeOverHermitianPencil"}),
])
def test_theorem_labels(kind, rank, labels):
    assert A.theorem_labels(kind, rank) == labels


def test_verify_classification_rejects_wrong_witness():
    sp = build_polar_space("q", 2, 2)
    pen = pencil_through_point(sp, 0)
    cls = A.classify(sp, pen)
    wrong = A.Classification("Pencil", vertex=sp.generators[0])
    assert not A.verify_classification(sp, pen, wrong)
    assert A.verify_classification(sp, pen, cls)


def test_project_blocking_set_oracle():
    sp = build_polar_space("q", 3, 2)
    cone = C.cone_example(sp, "qplus3-spread")
    prof = A.coverage_profile(sp, cone.members)
    hole = prof.holes[0]
    qspace, proj, _ = A.project_blocking_set(sp, cone.members, hole)
    assert A.is_blocking(qspace, proj)
    assert len(proj) <= cone.size
    covered_point = next(iter(A.coverage_profile(sp, cone.members).w))
    with pytest.raises(ValueError):
        A.project_blocking_set(sp, cone.members, covered_point)


def test_project_blocking_set_rejects_bad_hole():
    sp = build_polar_space("q", 3, 2)
    cone = C.cone_example(sp, "qplus3-spread")
    hole = A.coverage_profile(sp, cone.members).holes[0]
    want = A.project_blocking_set(sp, cone.members, hole)[1]
    assert A.project_blocking_set(sp, cone.members, np.int64(hole))[1] == want
    # out of range, a bool (True would be point 1) and a float
    for bad in (sp.num_points, True, 2.0):
        with pytest.raises(ValueError):
            A.project_blocking_set(sp, cone.members, bad)


@pytest.mark.parametrize("key, holes", [(("qplus3", 2, 2), 4),
                                        (("qplus3", 2, 3), 9),
                                        (("h3", 2, 2), 32)])
def test_pencil_projects_from_every_hole_on_rank2_section_kinds(key, holes):
    # the quotients at points of Q+(3,q) and H(3,q^2) have rank 1
    sp = build_polar_space(*key)
    pen = C.pencil(sp)
    prof = A.coverage_profile(sp, pen.members)
    assert len(prof.holes) == holes
    for hole in prof.holes:
        qspace, proj, _ = A.project_blocking_set(sp, pen.members, hole)
        assert qspace.rank == 1 and A.is_blocking(qspace, proj)


def test_thresholds_known_values():
    th = A.theorem_threshold("qminus", 2)
    assert th.max_delta == 0 and abs(th.value - 0.5) < 1e-12
    th4 = A.theorem_threshold("qminus", 4)
    assert th4.max_delta == 1
    assert A.theorem_threshold("h", 5).max_delta == 1  # delta < 2
    for q in (1, 2, 3):  # delta < q-3 admits none, which reads -1
        assert A.theorem_threshold("h", q).max_delta == -1
    assert A.theorem_threshold("q", 2, rank=3).max_delta == 0
    assert A.theorem_threshold("q", 3, rank=3).max_delta == 0
    th_r2 = A.theorem_threshold("q", 3, rank=2)
    assert th_r2.max_delta == 1  # Prop: delta < eps = 2
    th5 = A.theorem_threshold("q", 5, rank=3)
    assert (th5.epsilon, th5.max_delta) == (3, 1)
    with pytest.raises(ValueError):
        A.theorem_threshold("w", 2)


def _qminus_max_delta_by_steps(q):
    # delta up by one while 3q - 2 delta >= 0 and (3q - 2 delta)^2 >=
    # 5q^2+2q+1: the reference for the closed form
    d = 5 * q * q + 2 * q + 1
    md, delta = -1, 0
    while 3 * q - 2 * delta >= 0 and (3 * q - 2 * delta) ** 2 >= d:
        md, delta = delta, delta + 1
    return md


def test_qminus_threshold_closed_form():
    for q in range(2, 2001):
        assert (A.theorem_threshold("qminus", q).max_delta
                == _qminus_max_delta_by_steps(q)), q
    # in bounded time for any q; a value past the float range is refused
    th = A.theorem_threshold("qminus", 10 ** 8)
    assert th.max_delta == (3 * 10 ** 8 - isqrt(5 * 10 ** 16 + 2 * 10 ** 8
                                                 + 1) - 1) // 2
    with pytest.raises(ValueError, match="too large for a float"):
        A.theorem_threshold("qminus", 10 ** 400)


def test_threshold_of_stopped_oracle_raises(monkeypatch):
    monkeypatch.setenv("POLARBLOCK_BUDGET_SECS", "0")
    with pytest.raises(BudgetError, match="target size"):
        A.theorem_threshold("q", 8)
    # with the budget back, the oracle finds epsilon 4
    monkeypatch.delenv("POLARBLOCK_BUDGET_SECS")
    th = A.theorem_threshold("q", 8)
    assert (th.epsilon, th.max_delta) == (4, 3)


def test_spread_size_gate():
    assert A.spread_size_gate("q", 2) == 4
    assert A.spread_size_gate("qminus", 2) == 6
    # no admissible delta: the trivial bound t+1 = q^3+1 of H(4,4)
    assert A.spread_size_gate("h", 2) == 9


def test_delta_of():
    sp = build_polar_space("h", 2, 2)
    assert A.delta_of(sp, 9) == 0
    assert A.delta_of(sp, 12) == 3


def test_blocking_monotone():
    sp = build_polar_space("q", 2, 2)
    pen = list(pencil_through_point(sp, 0))
    for extra in range(sp.num_generators):
        if extra not in pen:
            assert A.is_blocking(sp, pen + [extra])


def test_quotient_of_section_cover_blocks():
    # any blocking set projected from any hole blocks the quotient
    sp = build_polar_space("qminus", 2, 2)
    cov = C.section_cover(sp)
    prof = A.coverage_profile(sp, cov.members)
    for hole in prof.holes[:5]:
        qspace, proj, _ = A.project_blocking_set(sp, cov.members, hole)
        assert A.is_blocking(qspace, proj)


# sha256 of the compact JSON of [space, members, classify(...).to_json()]
# over every minimal set of enumerate_minimal(Q(6,2), 3) and
# enumerate_minimal(Q-(5,2), 5), the min_blocking(Q(4,3)) witnesses and the
# four rank-3 cone examples; recorded before classify mapped members
# through the memoized quotient tables.
PINNED_CLASSIFY = "76a8aea0c132448a8dba874a3f0ce9ee0c91f8020fdcec1ba519a359cf0b9c84"

# sha256 of [space, row, hole, projected members, quotient content hash]
# for every hole of the four rank-3 cone examples, recorded at the same time.
PINNED_PROJECTIONS = "2cb6a3a8eb5d917abecc41660c353e2379d2522fd6e0cea26f43e3203a6f26f2"

CONE_ROWS = (("q", 3, 2, "conic-pencil"), ("q", 3, 2, "qplus3-spread"),
             ("qminus", 3, 2, "elliptic-pencil"), ("qminus", 3, 2, "q4-cover"))


def _digest(obj):
    blob = json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def test_classify_output_pinned():
    import polarblock.search as S

    cases = []
    for key, find in ((("q", 3, 2), lambda sp: S.enumerate_minimal(sp, 3).sets),
                      (("qminus", 2, 2), lambda sp: S.enumerate_minimal(sp, 5).sets),
                      (("q", 2, 3), lambda sp: S.min_blocking(sp).witnesses)):
        sp = build_polar_space(*key)
        cases += [(key, sp, tuple(sorted(m))) for m in find(sp)]
    for *key, row in CONE_ROWS:
        sp = build_polar_space(*key)
        cases.append((tuple(key), sp, C.cone_example(sp, row).members))
    assert len(cases) == 1575 + 243 + 130 + 4
    out = [[list(key), list(m), A.classify(sp, m).to_json()]
           for key, sp, m in cases]
    assert _digest(out) == PINNED_CLASSIFY


# sha256 of the compact JSON of [space, members, classify(...).to_json(),
# verify_classification(...)] over every minimal set of
# enumerate_minimal(Q(6,2), 3), enumerate_minimal(Q-(5,2), 5), the
# min_blocking(Q(4,3)) witnesses and 50 greedy_then_minimize sets each on
# Q(4,3), H(4,4), Q-(5,3) and Q-(7,2) (one generator, seed 1); recorded
# before the sub-quadrangle verdicts, hyperplane sections and vertex
# quotients were cached on the space.
PINNED_CLASSIFY_VERIFY = \
    "2bc38bec0511c838911cc4794b7e0e10797a9e36ebdd606c025914b54cc11db2"


def test_classify_and_verify_pinned():
    import numpy as np

    import polarblock.search as S

    cases = []
    for key, find in ((("q", 3, 2), lambda sp: S.enumerate_minimal(sp, 3).sets),
                      (("qminus", 2, 2), lambda sp: S.enumerate_minimal(sp, 5).sets),
                      (("q", 2, 3), lambda sp: S.min_blocking(sp).witnesses)):
        sp = build_polar_space(*key)
        cases += [(key, sp, tuple(sorted(m))) for m in find(sp)]
    rng = np.random.default_rng(1)
    for key in (("q", 2, 3), ("h", 2, 2), ("qminus", 2, 3), ("qminus", 3, 2)):
        sp = build_polar_space(*key)
        cases += [(key, sp, S.greedy_then_minimize(sp, rng)) for _ in range(50)]
    out = []
    for key, sp, m in cases:
        if A.is_minimal(sp, m):
            cls = A.classify(sp, m)
            out.append([list(key), list(m), cls.to_json(),
                        A.verify_classification(sp, m, cls)])
    assert len(out) == 1575 + 243 + 130 + 185
    assert all(verdict for *_, verdict in out)
    assert _digest(out) == PINNED_CLASSIFY_VERIFY


def test_projection_output_pinned():
    out = []
    for *key, row in CONE_ROWS:
        sp = build_polar_space(*key)
        members = C.cone_example(sp, row).members
        for hole in A.coverage_profile(sp, members).holes:
            qs, proj, _ = A.project_blocking_set(sp, members, hole)
            out.append([list(key), row, hole, list(proj), qs.content_hash()])
    assert len(out) == 276
    assert _digest(out) == PINNED_PROJECTIONS


def _gq_axioms_numpy(points, lines):
    """check_gq_axioms as it was before the unique-collinear-pair axiom
    became a bitmask pass: boolean matrices filled with np.ix_."""
    import numpy as np

    pts = list(points)
    index = {p: i for i, p in enumerate(pts)}
    npts = len(pts)
    lns = [tuple(sorted(index[p] for p in l)) for l in lines]
    if not pts or not lns:
        return A.GQCheckResult(False, None, "empty point or line set", ())
    sizes = {len(set(l)) for l in lns}
    if len(sizes) != 1:
        return A.GQCheckResult(False, None, "line sizes not constant",
                               (sorted(sizes),))
    s = sizes.pop() - 1
    if s < 1:
        return A.GQCheckResult(False, None, "lines must have at least 2 points", ())
    deg = [0] * npts
    for l in lns:
        for p in l:
            deg[p] += 1
    if len(set(deg)) != 1:
        return A.GQCheckResult(False, None, "point degrees not constant",
                               (min(deg), max(deg)))
    t = deg[0] - 1
    if t < 1:
        return A.GQCheckResult(False, None, "points must lie on at least 2 lines", ())
    seen_pairs = set()
    for li, l in enumerate(lns):
        for a in range(len(l)):
            for bj in range(a + 1, len(l)):
                pair = (l[a], l[bj])
                if pair in seen_pairs:
                    return A.GQCheckResult(False, None,
                                           "two points on two common lines", pair)
                seen_pairs.add(pair)
    adj = np.zeros((npts, npts), dtype=bool)
    for l in lns:
        ix = np.array(l)
        adj[np.ix_(ix, ix)] = True
    inc = np.zeros((len(lns), npts), dtype=bool)
    for li, l in enumerate(lns):
        inc[li, list(l)] = True
    for li, l in enumerate(lns):
        col = adj[list(l)].sum(axis=0)
        off = ~inc[li]
        bad = np.nonzero(off & (col != 1))[0]
        if len(bad):
            x = int(bad[0])
            return A.GQCheckResult(False, None,
                                   "unique-collinear-pair axiom violated",
                                   (pts[x], tuple(pts[p] for p in l), int(col[x])))
    return A.GQCheckResult(True, (s, t))


# the rank-2 spaces of acceptance criterion 2; H(4,9) takes seconds here
CRITERION_2_SPACES = [
    pytest.param(key, marks=pytest.mark.slow) if key == ("h", 2, 3) else key
    for key in [(kind, 2, q) for q in (2, 3)
                for kind in ("q", "qminus", "h", "qplus3", "h3")]]


@pytest.mark.parametrize("key", CRITERION_2_SPACES)
def test_gq_axioms_match_numpy_version(key):
    import random

    sp = build_polar_space(*key)
    points = range(sp.num_points)
    lines = [list(l) for l in sp.gen_points]
    assert A.check_gq_axioms(points, lines) == _gq_axioms_numpy(points, lines)
    rng = random.Random(f"{key}")
    on = [[i for i, l in enumerate(lines) if p in l] for p in points]
    failures = set()
    for trial in range(8):
        # swap a point a of line i with a point b of line j, so sizes and
        # degrees stay constant; from trial 4 on, a and b share a third line
        # k, which keeps every pair of points on at most one line
        i = rng.randrange(len(lines))
        a = rng.choice(lines[i])
        if trial < 4:
            j = rng.choice([j for j in range(len(lines)) if a not in lines[j]])
            b = rng.choice([p for p in lines[j] if p not in lines[i]])
        else:
            k = rng.choice([k for k in on[a] if k != i])
            b = rng.choice([p for p in lines[k] if p != a])
            j = rng.choice([j for j in on[b] if j != k])
        bad = [list(l) for l in lines]
        bad[i][bad[i].index(a)] = b
        bad[j][bad[j].index(b)] = a
        got = A.check_gq_axioms(points, bad)
        assert got == _gq_axioms_numpy(points, bad)
        failures.add(got.failure)
    assert "unique-collinear-pair axiom violated" in failures


def test_census_builds_each_substructure_once(monkeypatch):
    """Classifying the Q(6,2) and Q-(5,2) censuses checks the GQ axioms once
    per (space, covered points), builds each hyperplane section once and
    each quotient map once per (space, vertex rows); a cache filled earlier
    in the session only lowers the counts."""
    import polarblock.search as S
    from polarblock import spaces

    seen = {"gq": [], "section": [], "quotient": []}
    gq, section, quotient = A.check_gq_axioms, A.hyperplane_section, spaces.QuotientMap

    def counting_gq(points, lines):
        points, lines = tuple(points), [tuple(l) for l in lines]
        seen["gq"].append((points, tuple(lines)))
        return gq(points, lines)

    def counting_section(space, h):
        seen["section"].append((id(space), h.rows))
        return section(space, h)

    def counting_quotient(space, rows):
        seen["quotient"].append((id(space), rows))
        return quotient(space, rows)

    monkeypatch.setattr(A, "check_gq_axioms", counting_gq)
    monkeypatch.setattr(A, "hyperplane_section", counting_section)
    monkeypatch.setattr(spaces, "QuotientMap", counting_quotient)
    for key, bound in ((("q", 3, 2), 3), (("qminus", 2, 2), 5)):
        sp = build_polar_space(*key)
        for m in S.enumerate_minimal(sp, bound).sets:
            A.classify(sp, m)
    # without the caches: 2,520 GQ checks, 432 sections, 2,520 quotients
    for name, most in (("gq", 10), ("section", 36), ("quotient", 63)):
        keys = seen[name]
        assert len(keys) == len(set(keys)) <= most, name


def _rejects_twice(space, members, cls):
    """verify_classification rejects cls on a first call and again on a
    second one, which finds every sub-structure the first one cached."""
    return not any(A.verify_classification(space, members, cls)
                   for _ in range(2))


def test_verify_rejects_forged_subgq_spread():
    sp = build_polar_space("q", 2, 2)
    fam0, fam1 = C.grid_rulings(sp, C.hyperbolic_section(sp).gen_indices)
    # a genuine spread first, so the forgeries meet warm caches
    assert A.classify(sp, fam0).label == "SubGQSpread"
    forged = A.Classification("SubGQSpread", details={"order": (2, 1)})
    assert A.verify_classification(sp, fam0, forged)
    assert _rejects_twice(sp, pencil_through_point(sp, 0), forged)
    # two members of one ruling and one of the other: not pairwise disjoint
    assert _rejects_twice(sp, fam0[:2] + fam1[:1], forged)
    s6 = build_polar_space("q", 3, 2)
    cone = C.cone_example(s6, "qplus3-spread")
    assert A.classify(s6, cone.members).label == "ConeOverQplus3Spread"
    assert _rejects_twice(s6, cone.members, forged)


def test_verify_rejects_forged_section_cover():
    sp = build_polar_space("qminus", 2, 2)
    cov = C.section_cover(sp)
    cls = A.classify(sp, cov.members)
    assert A.verify_classification(sp, cov.members, cls)
    tangent = C.find_section(sp, "pt*Q-(3,2)").hyperplane
    forged = A.Classification("CoverOfSectionQ4",
                              details={"hyperplane": tangent.to_json()})
    assert _rejects_twice(sp, cov.members, forged)
    # the cover plus one line outside its section still covers the section
    sec = C.find_section(sp, "Q(4,2)")
    assert set(cov.members) <= set(sec.gen_indices)
    outside = next(g for g in range(sp.num_generators)
                   if g not in sec.gen_indices)
    assert _rejects_twice(sp, cov.members + (outside,), cls)
    # a witness without a hyperplane, and one whose rows span a point
    assert _rejects_twice(sp, cov.members, A.Classification("CoverOfSectionQ4"))
    point = A.Classification("CoverOfSectionQ4",
                             details={"hyperplane": [list(sp.points[0])]})
    assert _rejects_twice(sp, cov.members, point)
    # rows of the wrong length, and an entry outside GF(2)
    for rows in ([[1, 0]], [[2, 0, 0, 0, 0, 0]]):
        bad = A.Classification("CoverOfSectionQ4", details={"hyperplane": rows})
        assert _rejects_twice(sp, cov.members, bad)


def test_verify_rejects_forged_cone():
    sp = build_polar_space("q", 3, 2)
    cone = C.cone_example(sp, "qplus3-spread")
    cls = A.classify(sp, cone.members)
    assert cls.label == "ConeOverQplus3Spread"
    assert A.verify_classification(sp, cone.members, cls)
    # a point of the first member other than the vertex lies on no other
    # member; the cone example with that point as vertex warms its quotient
    v = sp.point_index[cls.vertex.rows[0]]
    p = next(p for p in sp.gen_points[cone.members[0]] if p != v)
    vp = canonicalize(sp.field, sp.n, [sp.points[p]])
    assert A.classify(sp, C.cone_example(sp, "qplus3-spread", vp).members).label \
        == "ConeOverQplus3Spread"
    off = A.Classification(cls.label, vertex=vp, base=cls.base)
    assert _rejects_twice(sp, cone.members, off)
    wrong_base = A.Classification(cls.label, vertex=cls.vertex,
                                  base=A.Classification("CoverOfSectionQ4"))
    assert _rejects_twice(sp, cone.members, wrong_base)
    # the right vertex and base label on a pencil through the vertex's
    # generators: its image in the quotient is no sub-quadrangle spread
    pencil = C.pencil(sp, canonicalize(
        sp.field, sp.n, [sp.points[v], sp.points[p]])).members
    assert _rejects_twice(sp, pencil, cls)
    # no member: a vertex that is not totally singular has no quotient
    nonsingular = canonicalize(sp.field, sp.n, [(1,) + (0,) * sp.n])
    assert nonsingular.rows[0] not in sp.point_index
    assert _rejects_twice(sp, (), A.Classification(
        cls.label, vertex=nonsingular, base=cls.base))


def _disjointness_loop(space, members):
    """(partial spread, spread, cover) by a pairwise-disjointness scan."""
    acc = 0
    disjoint = True
    for m in members:
        pm = space.gen_point_mask[m]
        if acc & pm:
            disjoint = False
        acc |= pm
    cover = acc == space.all_points_mask
    return disjoint, disjoint and cover, cover


def test_spread_predicates_match_disjointness_loop():
    import polarblock.search as S

    q42 = build_polar_space("q", 2, 2)
    grid = build_polar_space("qplus3", 2, 2)
    qm52 = build_polar_space("qminus", 2, 2)
    fam0, fam1 = C.grid_rulings(grid)
    cases = [(q42, w) for w in S.min_cover_of_space(q42).witnesses]
    cases += [(grid, fam) for fam in (fam0, fam1, fam0[:2], fam0[:2] + fam1[:1])]
    cases += [(sp, pencil_through_point(sp, p))
              for sp in (q42, grid, qm52) for p in (0, 5)]
    cases += [(qm52, w) for w in S.enumerate_minimal(qm52, 5).sets]
    seen = set()
    for sp, members in cases:
        got = (A.is_partial_spread(sp, members), A.is_spread(sp, members),
               A.is_cover(sp, members))
        assert got == _disjointness_loop(sp, members)
        seen.add(got)
    assert seen == {(True, True, True), (True, False, False),
                    (False, False, False)}


def _minimize_with_restarts(space, members):
    """Strip the lex-least removable member and rescan from the start,
    until no member can go."""
    cur = list(A.validate_members(space, members))
    changed = True
    while changed:
        changed = False
        for i in range(len(cur)):
            trial = cur[:i] + cur[i + 1:]
            if trial and A.is_blocking(space, trial):
                cur = trial
                changed = True
                break
    return tuple(cur)


@pytest.mark.parametrize("key", [("q", 2, 3), ("h", 2, 2), ("qminus", 2, 3),
                                 ("q", 3, 2), ("qminus", 3, 2),
                                 ("q", 4, 2)])
def test_minimize_matches_restart_loop(key):
    sp = build_polar_space(*key)
    rng = random.Random(11)
    order = list(range(sp.num_generators))
    for _ in range(40):
        # a random blocking set: generators in random order until every
        # generator is met, then a few more
        rng.shuffle(order)
        members, hit = [], 0
        for g in order:
            if hit == sp.all_gens_mask:
                break
            members.append(g)
            hit |= sp.meets[g]
        members += rng.sample(order[len(members):], rng.randint(0, 5))
        assert A.minimize_blocking_set(sp, members) == \
            _minimize_with_restarts(sp, members)


# the rank-2 bases of the cone catalogue, by kind
_RANK2_EXAMPLES = {"q": lambda sp: [C.ruling_spread(sp, 0),
                                    C.ruling_spread(sp, 1)],
                   "qminus": lambda sp: [C.section_cover(sp)],
                   "h": lambda sp: []}


@pytest.mark.parametrize("key", [("q", 2, 3), ("qminus", 2, 3), ("h", 2, 2),
                                 ("q", 3, 2), ("qminus", 3, 2), ("q", 4, 2)])
def test_labels_invariant_under_isometries(key):
    # an isometry keeps the label, minimality and the witness of a set; the
    # per-space caches are keyed by point masks and RREF rows, so an image
    # must not be answered from its preimage's entry
    sp = build_polar_space(*key)
    if sp.rank == 2:
        sets = [bs.members for bs in _RANK2_EXAMPLES[sp.kind](sp)]
    else:
        sets = [C.cone_example(sp, name).members
                for name, row in A.CONE_ROWS.items() if row.kind == sp.kind]
    sets.append(C.pencil(sp).members)
    rng = np.random.default_rng(7)
    drawn = [w for w in (S.greedy_then_minimize(sp, rng) for _ in range(30))
             if A.is_minimal(sp, w)][:10]
    assert len(drawn) == 10
    sets += drawn
    perms = sp.generator_permutations()
    for members in sets:
        label = A.classify(sp, members).label
        for _ in range(2):
            tau = np.arange(sp.num_generators)
            for row in rng.integers(len(perms), size=4):
                tau = perms[row][tau]
            image = tuple(sorted(tau[list(members)].tolist()))
            assert A.is_minimal(sp, image)
            cls = A.classify(sp, image)
            assert cls.label == label, (members, image)
            assert A.verify_classification(sp, image, cls)
    if sp.kind == "q" and sp.rank == 2:
        # a partial spread of a ruling's size that is no image of one: the
        # ruling less a member, and a generator off its grid through a point
        # of that member
        ruling = sets[0]
        cls = A.classify(sp, ruling)
        rest = A.covered_mask(sp, ruling[1:])
        grid = A.covered_mask(sp, ruling)
        off = next(g for g, m in enumerate(sp.gen_point_mask)
                   if not m & rest and m & ~grid)
        assert cls.label == "SubGQSpread"
        assert A.is_partial_spread(sp, ruling[1:] + (off,))
        assert not A.verify_classification(sp, ruling[1:] + (off,), cls)

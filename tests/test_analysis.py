import hashlib
import json
import random
from collections import Counter
from itertools import combinations
from math import isqrt

import numpy as np
import pytest

from polarblock.projective import Subspace, canonicalize
from polarblock.spaces import (BudgetError, build_polar_space,
                               enumerate_hyperplanes, hyperplane_section)
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


@pytest.mark.parametrize("members", [[-15, -13, -2], [1.0], [99]])
def test_is_blocking_validates_members(members):
    # negative indices would read the pencil (0, 2, 13) from the end of the
    # relation, a float would raise TypeError and 99 IndexError
    sp = build_polar_space("q", 2, 2)
    with pytest.raises(ValueError):
        A.is_blocking(sp, members)


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
    # the pencil blocks, and its battery's histograms have b_0 = b~_0 = 0:
    # independent code paths agree
    rep = A.check_coverage_identities(sp, pen)
    assert A.is_blocking(sp, pen) and rep.applicable
    assert rep.b.get(0, 0) == 0 and rep.b_tilde.get(0, 0) == 0


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


@pytest.fixture(scope="module")
def rank2_corpus():
    """823 rank-2 sets: the 523 that the classify_census benchmark verifies
    at seed 1 (its enum-qm52-5 and minb-q43 lists, then 50 greedy sets each
    on Q(4,3), H(4,4) and Q-(5,3) from one generator seeded 1), and 50
    seeded greedy sets each on six spaces, Q+(3,3) and H(3,4) among them."""
    out = []
    qm52, q43 = build_polar_space("qminus", 2, 2), build_polar_space("q", 2, 3)
    out += [(qm52, s) for s in S.enumerate_minimal(qm52, max_size=5).sets]
    out += [(q43, s) for s in S.min_blocking(q43).witnesses]
    rng = np.random.default_rng(1)
    for key in [("q", 2, 3), ("h", 2, 2), ("qminus", 2, 3)]:
        sp = build_polar_space(*key)
        out += [(sp, S.greedy_then_minimize(sp, rng)) for _ in range(50)]
    for seed, key in enumerate([("q", 2, 3), ("q", 2, 4), ("h", 2, 2),
                                ("qminus", 2, 3), ("qplus3", 2, 3),
                                ("h3", 2, 2)], start=100):
        sp = build_polar_space(*key)
        rng = np.random.default_rng(seed)
        out += [(sp, S.greedy_then_minimize(sp, rng)) for _ in range(50)]
    return out


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def test_identity_reports_pinned(rank2_corpus):
    # every verdict and detail string of the battery on the corpus; 501 of
    # the 823 reports are applicable
    reports = []
    for sp, members in rank2_corpus:
        rep = A.check_coverage_identities(sp, members)
        reports.append([sp.name, list(members), rep.applicable, rep.reason,
                        A.delta_of(sp, len(members)), {k: [v.ok, v.detail]
                                    for k, v in rep.items.items()}])
    assert sum(r[2] for r in reports) == 501
    assert _sha(reports) == ("bb74410f0cb78dbbcaaef1fa4bc928e6"
                             "fb66a8e81d8f616a159600d851ddc109")


def test_b_tilde_zero_at_most_b_zero(rank2_corpus):
    # a line with no covered point meets no member, so item (b)'s verdict
    # needs b_0 alone; and b_0 is 0 here, as every applicable set blocks
    applicable = 0
    for sp, members in rank2_corpus:
        rep = A.check_coverage_identities(sp, members)
        if rep.applicable:
            applicable += 1
            assert rep.b_tilde.get(0, 0) <= rep.b.get(0, 0) == 0
    assert applicable == 501


def test_coverage_profiles_pinned(rank2_corpus):
    profiles = []
    for sp, members in rank2_corpus:
        p = A.coverage_profile(sp, members)
        profiles.append([sp.name, list(p.members), p.covered_mask,
                         p.num_covered, sorted(p.w.items()), p.W,
                         list(p.holes)])
    assert _sha(profiles) == ("fcbde8239d20d8592a2a38c77585f731"
                              "3f81f340550f520ab878d27ce9b7bd70")


@pytest.mark.parametrize("points,lines,failure,witness", [
    ([], [], "empty point or line set", ()),
    (range(5), [(0, 1), (2, 3, 4)], "line sizes not constant", ([2, 3],)),
    (range(2), [(0,), (1,)], "lines must have at least 2 points", ()),
    (range(4), [(0, 1), (2, 3)], "points must lie on at least 2 lines", ()),
], ids=["empty", "mixed-sizes", "one-point-lines", "one-line-per-point"])
def test_gq_axioms_structural_failures(points, lines, failure, witness):
    assert A.check_gq_axioms(points, lines) == A.GQCheckResult(
        False, None, failure, witness)


@pytest.mark.parametrize("points,lines,message", [
    ([0, 1, 2, 0], [(0, 1), (1, 2)], "point 0 is listed twice"),
    (range(4), [(0, 1), (2, 99)], "a line names 99, which is not a point"),
], ids=["point-twice", "line-off-the-points"])
def test_gq_axioms_refuse_bad_input(points, lines, message):
    # refused as min_cover refuses them, not as a KeyError or a failed axiom
    with pytest.raises(ValueError, match=f"^{message}$"):
        A.check_gq_axioms(points, lines)


def test_gq_axioms_refuse_a_line_naming_a_point_twice():
    # refused before any axiom is checked: counted twice, the repeated
    # point would seem to lie on one line more than the other points
    sp = build_polar_space("q", 2, 2)
    lines = [list(l) for l in sp.gen_points]
    lines[0].append(lines[0][0])
    with pytest.raises(ValueError, match=f"^a line names {lines[0][0]} twice$"):
        A.check_gq_axioms(range(sp.num_points), lines)


def _validate_reference(space, members):
    """validate_members' checks made one member at a time on every input,
    in its order: the result its plain-int fast path must reproduce."""
    raw = []
    for m in members:
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise ValueError(f"generator index {m!r} is not an integer")
        raw.append(int(m))
    out = tuple(sorted(set(raw)))
    if len(out) != len(raw):
        raise ValueError("duplicate generator indices in blocking set")
    for m in out:
        if not 0 <= m < space.num_generators:
            raise ValueError(f"generator index {m} out of range")
    return out


@pytest.mark.parametrize("make", [
    lambda: [3, 1, 2], lambda: [], lambda: range(15),
    lambda: np.array([4, 0, 7]), lambda: [1, np.int64(5), 2],
    lambda: (i for i in (2, 9, 4)), lambda: [True], lambda: [1, True],
    lambda: [np.bool_(True)], lambda: [1.0], lambda: [2, "3"],
    lambda: [99, "x"], lambda: [0, 2, 2], lambda: [np.int64(2), 2],
    lambda: [2, 2, 99], lambda: [-1, 3, 15, 20], lambda: [3, 20, 16, 15],
    lambda: [30, -2, -5], lambda: [16, 15], lambda: [14, 0], lambda: [15, 0],
    lambda: [-1, 14],
], ids=["ints", "empty", "range", "ndarray", "mixed-np", "generator",
        "bool", "int-and-bool", "np-bool", "float", "str", "range-and-str",
        "duplicate", "np-duplicate", "duplicate-and-range", "both-sides",
        "above", "below", "above-least", "edges", "one-above", "one-below"])
def test_validate_members_matches_the_member_loop(make):
    sp = build_polar_space("q", 2, 2)

    def outcome(validate):
        # the types too: the members come back as plain ints
        try:
            out = validate(sp, make())
        except ValueError as e:
            return "ValueError", str(e)
        return out, [type(m) for m in out]

    assert outcome(A.validate_members) == outcome(_validate_reference)


def test_public_calls_validate_their_members_once(monkeypatch):
    q62 = build_polar_space("q", 3, 2)
    cone = C.cone_example(q62, "qplus3-spread").members
    hole = A.coverage_profile(q62, cone).holes[0]
    q43 = build_polar_space("q", 2, 3)
    members = C.pencil(q43).members
    calls = []
    validate = A.validate_members

    def counted(space, members):
        calls.append(members)
        return validate(space, members)

    monkeypatch.setattr(A, "validate_members", counted)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    # classify's own and verify_classification's
    assert count(A.classify, q62, cone) == 2
    assert A.classify(q62, cone).label == "ConeOverQplus3Spread"
    # the battery's own: it profiles the members through the unchecked core
    assert count(A.check_coverage_identities, q43, members) == 1
    assert A.check_coverage_identities(q43, members).all_ok
    assert count(A.project_blocking_set, q62, cone, hole) == 1


def test_minimize_refuses_a_non_blocking_set():
    sp = build_polar_space("q", 2, 2)
    with pytest.raises(ValueError, match="^input set is not blocking$"):
        A.minimize_blocking_set(sp, [0, 2])


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
    fam0, fam1 = C.grid_rulings(sp, range(sp.num_generators))
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
    wrong = A.Classification("Pencil", vertex=Subspace(sp.field, sp.n,
                                                       sp.generators[0]))
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


def test_project_blocking_set_refuses_non_blocking():
    # the caller's set is at fault, not the projection: ValueError, not the
    # AssertionError kept for a projection that fails to block
    sp = build_polar_space("q", 3, 2)
    members = C.cone_example(sp, "conic-pencil").members[:-1]
    assert not A.is_blocking(sp, members)
    assert 1 in A.coverage_profile(sp, members).holes
    with pytest.raises(ValueError, match="requires a blocking set"):
        A.project_blocking_set(sp, members, 1)


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
    assert (th5.plane.epsilon, th5.max_delta) == (3, 1)
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
    assert (th.plane.epsilon, th.max_delta) == (4, 3)


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
    tangent = next(h for h in enumerate_hyperplanes(sp)
                   if hyperplane_section(sp, h).label == "pt*Q-(3,2)")
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
    fam0, fam1 = C.grid_rulings(grid, range(grid.num_generators))
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


class _Geometry:
    """A point-line geometry posing as a rank-2 polar space of order (s, t):
    the attributes the identity battery reads, each derived from the point
    lists of the lines, as a built space derives them."""

    rank = 2

    def __init__(self, lines, num_points, s, t):
        self.s, self.t = s, t
        self.num_points = num_points
        self.num_generators = len(lines)
        self.all_gens_mask = (1 << len(lines)) - 1
        self.gen_points = [sorted(line) for line in lines]
        self.gen_point_mask = [A.members_mask(line) for line in lines]
        self.point_gen_mask = [
            A.members_mask(g for g, line in enumerate(lines) if p in line)
            for p in range(num_points)]
        self.meets = [A.members_mask(g for p in line
                                     for g, other in enumerate(lines)
                                     if p in other) for line in lines]
        self.collinear = [A.members_mask([p] + [x for line in lines
                                                if p in line for x in line])
                          for p in range(num_points)]

    def points_per_generator(self):
        return self.s + 1


def _battery_by_line_walk(space, members):
    """The battery's (ok, detail) per item, from lists: the lines through
    each point, the members each line meets, the covered points on it.  A
    GQ point lies on t+1 lines, which items (a) and (f) take as given."""
    s, t = space.s, space.t
    lines_on = [[] for _ in range(space.num_points)]
    for g, pts in enumerate(space.gen_points):
        for p in pts:
            lines_on[p].append(g)
    in_m = set(members)
    delta = len(members) - (t + 1)
    w = [sum(g in in_m for g in lines_on[p]) for p in range(space.num_points)]
    holes = [p for p in range(space.num_points) if not w[p]]
    W = sum(x - 1 for x in w if x)
    lines = [g for g in range(space.num_generators) if g not in in_m]
    met = {g: {m for p in space.gen_points[g] for m in lines_on[p]
               if m in in_m} for g in lines}
    i = {g: len(met[g]) for g in lines}
    j = {g: sum(1 for p in space.gen_points[g] if w[p]) for g in lines}
    b, bt = Counter(i.values()), Counter(j.values())
    items = {}

    bad = [(x, tot) for x in holes
           if (tot := sum(i[g] for g in lines_on[x]) - (t + 1)) != delta]
    items["a_hole_identity"] = (
        (True, f"{len(holes)} holes checked") if not bad else
        (False, f"hole {bad[0][0]}: sum b_i(X)(i-1) = {bad[0][1]} != {delta}"))
    bad = [(x, acc) for x in holes
           if (acc := sum(w[p] - 1 for p in {x, *(p for g in lines_on[x]
                                                for p in space.gen_points[g])}
                          if w[p])) > delta]
    items["a_perp_bound"] = (True, "") if not bad else (
        False, f"hole {bad[0][0]}: sum (w-1) over perp = {bad[0][1]} > {delta}")

    bad = [g for g in lines if j[g] <= s and i[g] > delta + 1]
    items["b_meet_bound"] = (True, "") if not bad else (
        False, f"line {bad[0]} (not in M) meets {i[bad[0]]} > delta+1 members")
    middle = [k for k in range(delta + 2, s + 1) if b[k] or bt[k]]
    ok = not b[0] and not bt[0] and not middle
    items["b_histograms"] = (ok, "" if ok else
                             f"nonzero histogram entries: b0={b[0]} "
                             f"b~0={bt[0]} middle={middle}")

    lhs = sum(j[g] - 1 for g in lines if 2 <= j[g] <= delta + 1)
    rhs = sum(i[g] - 1 for g in lines if 2 <= i[g] <= delta + 1)
    items["c_tilde_le_b"] = (lhs <= rhs, f"{lhs} <= {rhs}")
    lhs = (s - delta) * sum(i[g] - 1 for g in lines if 1 <= i[g] <= delta + 1)
    rhs = (s * t - t - delta) * (s + 1) * delta + W * delta
    items["e_global_bound"] = (lhs <= rhs, f"{lhs} <= {rhs}")

    # the last point that fails names each item's failure
    detail = detail2 = ""
    for p in range(space.num_points):
        if w[p] == t + 1:
            continue
        if w[p] > delta + 1:
            detail = f"point {p} lies on {w[p]} > delta+1 members"
        full = sum(1 for g in lines_on[p] if g not in in_m
                   and all(w[x] for x in space.gen_points[g]))
        if full * s >= t + s:
            detail2 = f"point {p} has {full} fully covered non-member lines"
    items["f_pencil_bound"] = (not detail, detail)
    items["f_covered_lines"] = (not detail2, detail2)
    return items


FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6),
        (2, 4, 5)]

# (geometry, members, the items that fail)
FORGED_BATTERY_INPUTS = {
    # in a projective plane every two lines meet, so one line blocks and
    # delta = 1 - (t+1) is negative
    "fano-line": (_Geometry(FANO, 7, 2, 2), (0,),
                  {"a_hole_identity", "a_perp_bound", "b_meet_bound",
                   "b_histograms", "e_global_bound", "f_pencil_bound"}),
    # the pencil at point 0 covers every point: each other point lies on
    # one member and two fully covered non-member lines
    "fano-pencil": (_Geometry(FANO, 7, 2, 2), (0, 1, 2),
                    {"f_covered_lines"}),
    # points 5 and 6 are holes; lines 4 and 5 through point 6 hold s
    # covered points each, one short of full, so item (f) must not count
    # them as full
    "fano-two-lines": (_Geometry(FANO, 7, 2, 2), (0, 1),
                       {"a_hole_identity", "a_perp_bound", "b_meet_bound",
                        "b_histograms", "e_global_bound", "f_pencil_bound"}),
    # line 2 shares two points with member 0, so it holds more covered
    # points (b~) than it meets members (b)
    "double-meet": (_Geometry([(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 8, 9)],
                              10, 3, 0), (0, 1),
                    {"a_hole_identity", "c_tilde_le_b", "e_global_bound"}),
    # three members and the non-member line 2 through point 0: w(0) - 1 =
    # delta + 1 at each hole on line 2, the perp bound's first excess
    "star": (_Geometry([(0, 1, 2, 3), (0, 4, 5, 6), (0, 7, 8, 9),
                        (0, 10, 11, 12)], 13, 3, 1), (0, 1, 3),
             {"a_perp_bound", "b_meet_bound", "b_histograms",
              "f_pencil_bound"}),
}


def _battery_items(space, members):
    rep = A.check_coverage_identities(space, members)
    assert rep.applicable, rep.reason
    return {k: (v.ok, v.detail) for k, v in rep.items.items()}


@pytest.mark.parametrize("name", FORGED_BATTERY_INPUTS)
def test_identity_battery_failures_match_a_line_walk(name):
    geometry, members, failing = FORGED_BATTERY_INPUTS[name]
    items = _battery_items(geometry, members)
    assert items == _battery_by_line_walk(geometry, members)
    assert {k for k, (ok, _) in items.items() if not ok} == failing


def test_forged_battery_inputs_fail_every_item():
    failing = set().union(*(f for _, _, f in FORGED_BATTERY_INPUTS.values()))
    fano, members, _ = FORGED_BATTERY_INPUTS["fano-line"]
    assert failing == set(_battery_items(fano, members))


def test_identity_battery_b0_catches_an_asymmetric_meets():
    # the pencil at point 0 blocks through the members' rows, but line 3's
    # own row holds no member: b_0 = 1 on a blocking set.  The line walk
    # derives meets from the lines, so this input is not in the table above
    plane = _Geometry(FANO, 7, 2, 2)
    members = (0, 1, 2)
    plane.meets[3] &= ~A.members_mask(members)
    assert A.is_blocking(plane, members)
    assert _battery_items(plane, members)["b_histograms"] == (
        False, "nonzero histogram entries: b0=1 b~0=0 middle=[]")


def test_identity_battery_matches_a_line_walk_on_projective_planes():
    # every set of at most t+1 lines of PG(2,2), and of at most t+2 lines of
    # PG(2,3): the sets with delta < s-1, as any set of lines blocks a plane
    points, lines = S._pg2_incidence(3)
    for plane, count in [(_Geometry(FANO, 7, 2, 2), 3),
                         (_Geometry(lines, len(points), 3, 3), 5)]:
        for k in range(1, count + 1):
            for members in combinations(range(plane.num_generators), k):
                assert (_battery_items(plane, members)
                        == _battery_by_line_walk(plane, members)), members


def test_cone_over_an_unknown_base_is_unknown(monkeypatch):
    # the Unknown minimal set (0, 1, 2, 7, 12) of Q(4,2), lifted to the
    # generators of Q(6,2) through point 0 that map onto it
    sp = build_polar_space("q", 3, 2)
    members = (0, 2, 6, 71, 127)
    assert A.is_blocking(sp, members) and A.is_minimal(sp, members)
    qm = sp.quotient(Subspace(sp.field, sp.n, (sp.points[0],)))
    assert sorted(qm.gen_image(m) for m in members) == [0, 1, 2, 7, 12]
    assert A.classify(qm.quotient, (0, 1, 2, 7, 12)).label == "Unknown"
    seen = []
    real = A._cone_label

    def spy(kind, base):
        seen.append((kind, base, real(kind, base)))
        return seen[-1][2]

    monkeypatch.setattr(A, "_cone_label", spy)
    assert A.classify(sp, members).label == "Unknown"
    assert seen == [("q", "Unknown", "Unknown")]


def test_verify_classification_refuses_a_label_off_the_catalogue():
    sp = build_polar_space("q", 2, 2)
    pen = pencil_through_point(sp, 0)
    assert not A.verify_classification(sp, pen, A.Classification("Bogus"))


def test_rank2_parabolic_threshold_without_plane_set():
    # every blocking set of PG(2,2) holds a line, and rank 2 has no
    # (q-1)/2 term: only delta = 0 is covered
    th = A.theorem_threshold("q", 2, rank=2)
    assert th.max_delta == 0 and th.plane.exists is False

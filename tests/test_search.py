import hashlib
import json
import time
from fractions import Fraction
from itertools import combinations, count

import numpy as np
import pytest

from polarblock.gf import field_of_order
from polarblock.projective import Subspace, enumerate_pg_points, nullspace
from polarblock.spaces import _iter_bits, build_polar_space, meet_types
from polarblock import spaces
from polarblock import analysis as A
from polarblock import search as S


def test_min_blocking_q42_certified():
    sp = build_polar_space("q", 2, 2)
    res = S.min_blocking(sp)
    assert res.complete
    assert res.optimum == sp.t + 1 == 3
    # independent certification by raw combination scan
    assert S.no_blocking_below(sp, res.optimum)
    # all witnesses verify, canonically sorted
    assert res.witnesses == sorted(res.witnesses)
    for w in res.witnesses:
        assert A.is_blocking(sp, w)
    assert len(res.witnesses) == 35


def test_min_blocking_qplus32_certified():
    sp = build_polar_space("qplus3", 2, 2)
    res = S.min_blocking(sp)
    assert res.complete and res.optimum == 2
    assert S.no_blocking_below(sp, 2)
    assert len(res.witnesses) == sp.num_points  # one pencil per point


def test_min_blocking_q52_and_q62():
    s5 = build_polar_space("qminus", 2, 2)
    r5 = S.min_blocking(s5)
    assert r5.complete and r5.optimum == 5
    s6 = build_polar_space("q", 3, 2)
    r6 = S.min_blocking(s6)
    assert r6.complete and r6.optimum == 3


def test_min_blocking_determinism():
    sp = build_polar_space("q", 2, 3)
    a = S.min_blocking(sp)
    b = S.min_blocking(sp)
    assert a.witnesses == b.witnesses
    assert a.nodes == b.nodes
    assert a.optimum == b.optimum == 4


def test_enumerate_minimal_vs_bruteforce_q42():
    sp = build_polar_space("q", 2, 2)
    er = S.enumerate_minimal(sp, 3)
    assert er.complete
    brute = []
    for k in (1, 2, 3):
        for combo in combinations(range(sp.num_generators), k):
            if A.is_blocking(sp, combo) and A.is_minimal(sp, combo):
                brute.append(tuple(sorted(combo)))
    assert sorted(brute) == er.sets


def test_enumerate_minimal_q43_size5_is_empty():
    # delta < eps = 2 admits size 5, but no size-5 minimal set exists
    sp = build_polar_space("q", 2, 3)
    er = S.enumerate_minimal(sp, 5)
    assert er.complete
    assert {len(w) for w in er.sets} == {4}
    assert len(er.sets) == 130


def test_min_cover_values():
    sp = build_polar_space("q", 2, 2)
    res = S.min_cover_of_space(sp)
    assert res.complete and res.optimum == 5
    assert len(res.witnesses) == 6  # the six spreads of Q(4,2)
    for w in res.witnesses:
        members = list(w)
        assert A.is_spread(sp, members)
    grid = build_polar_space("qplus3", 2, 2)
    r2 = S.min_cover_of_space(grid)
    assert r2.optimum == 3 and len(r2.witnesses) == 2


def test_min_cover_q43_regression():
    sp = build_polar_space("q", 2, 3)
    res = S.min_cover_of_space(sp)
    assert res.complete
    assert res.optimum == 11  # regression anchor; >= q^2+1 = 10 by counting
    assert res.optimum >= 10


def test_min_cover_generic_interface():
    res = S.min_cover("abcd", [("a", "b"), ("c",), ("c", "d"), ("a", "d")])
    assert res.optimum == 2
    assert res.witnesses[0] == (0, 2)
    with pytest.raises(ValueError):
        S.min_cover("ab", [("a",)])
    with pytest.raises(ValueError, match="2, which is not a point"):
        S.min_cover([0, 1], [[0, 2]])
    with pytest.raises(ValueError, match="point 0 is listed twice"):
        S.min_cover([0, 0, 1], [[0], [1]])


def test_min_maximal_partial_spreads():
    grid = build_polar_space("qplus3", 2, 2)
    r = S.min_maximal_partial_spread(grid)
    assert r.optimum == 3 and len(r.witnesses) == 2
    sp = build_polar_space("q", 2, 2)
    r = S.min_maximal_partial_spread(sp)
    assert r.complete and r.optimum == 3  # a grid ruling is already maximal
    for w in r.witnesses:
        assert A.is_maximal_partial_spread(sp, w)
    sp3 = build_polar_space("q", 2, 3)
    r3 = S.min_maximal_partial_spread(sp3)
    assert r3.complete and r3.optimum == 4
    s5 = build_polar_space("qminus", 2, 2)
    r5 = S.min_maximal_partial_spread(s5)
    assert r5.complete and r5.optimum == 5


@pytest.mark.slow
def test_min_maximal_partial_spread_q62_gate():
    sp = build_polar_space("q", 3, 2)
    r = S.min_maximal_partial_spread(sp)
    assert r.complete and r.optimum == 5
    assert r.optimum >= A.spread_size_gate("q", 2) == 4


def test_epsilon_oracle():
    r2 = S.smallest_nontrivial_pg2(2)
    assert r2.exists is False
    r3 = S.smallest_nontrivial_pg2(3)
    assert (r3.size, r3.epsilon) == (6, 2)  # (q+1)/2 for the prime q = 3
    assert r3.witness is not None
    r4 = S.smallest_nontrivial_pg2(4)
    assert (r4.size, r4.epsilon) == (7, 2)  # Baer subplane of PG(2,4)
    r11 = S.smallest_nontrivial_pg2(11)
    assert r11.source == "prime-formula" and r11.epsilon == 6
    with pytest.raises(ValueError):
        S.smallest_nontrivial_pg2(16)


def _assert_line_free_blocking(q, witness):
    _, lines = S._pg2_incidence(q)
    chosen = set(witness)
    for line in lines:
        assert chosen & set(line)
        assert not set(line) <= chosen


def test_epsilon_witness_line_free_blocking():
    _assert_line_free_blocking(3, S.smallest_nontrivial_pg2(3).witness)


def test_pg2_oracle_q7_pinned():
    # recorded while the oracle searched without symmetry (~20 s)
    r = S.smallest_nontrivial_pg2(7)
    assert (r.exists, r.size, r.epsilon, r.complete, r.source) == (
        True, 12, 4, True, "search")
    assert r.witness == (0, 1, 3, 4, 7, 8, 13, 26, 27, 29, 33, 39)
    _assert_line_free_blocking(7, r.witness)


@pytest.mark.parametrize("q,size", [(8, 13), (9, 13)])
def test_pg2_oracle_q8_q9(q, size):
    # 13 at q = 9 is the Baer subplane, at Bruen's bound q + sqrt(q) + 1
    r = S.smallest_nontrivial_pg2(q)
    assert (r.exists, r.size, r.epsilon, r.complete) == (
        True, size, size - q - 1, True)
    _assert_line_free_blocking(q, r.witness)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pg2_incidence_vs_nullspace(q):
    field = field_of_order(q)
    pts = enumerate_pg_points(2, field)
    want = []
    for c in pts:
        sub = nullspace(field, [c], 2)
        want.append(tuple(i for i, p in enumerate(pts)
                          if sub.contains_point(p)))
    assert S._pg2_incidence(q) == (pts, want)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_pg2_triangle_pin_decides_each_size(q):
    # the existence answer through the triangle of points 0, 1 and the
    # first point off their line equals the unpinned answer at every size
    pts, lines = S._pg2_incidence(q)
    line01 = next(l for l in lines if {0, 1} <= set(l))
    triangle = (0, 1, min(set(range(len(pts))) - set(line01)))
    rows = [A.members_mask(l) for l in lines]
    cols = spaces._transpose(lines, len(pts))
    answers = []
    for target in range(q + 2, len(pts) + 1):
        found = [bool(S._run_engine(rows, cols, max_size=target, mode="min",
                                    forbid_rows=True, first_only=True,
                                    start=start)[0])
                 for start in (triangle, ())]
        assert found[0] == found[1]
        answers.append(found[1])
        if found[1]:
            break
    assert any(answers) == (q > 2)


def test_budget_flags_incomplete():
    sp = build_polar_space("qminus", 2, 2)
    res = S.min_blocking(sp, budget_nodes=10)
    assert not res.complete
    assert res.optimum == 5  # seed pencil reported as upper bound
    assert res.witnesses and A.is_blocking(sp, res.witnesses[0])
    er = S.enumerate_minimal(sp, 5, budget_nodes=10)
    assert not er.complete


def test_greedy_then_minimize():
    sp = build_polar_space("q", 2, 3)
    rng = np.random.default_rng(99)
    for _ in range(20):
        members = S.greedy_then_minimize(sp, rng)
        assert A.is_blocking(sp, members)
        for i in range(len(members)):
            trial = members[:i] + members[i + 1:]
            assert not A.is_blocking(sp, trial)


# sha256 of the compact JSON of [space, members] over 50
# greedy_then_minimize sets each on Q(4,3), H(4,4), Q-(5,3) and Q-(7,2),
# one generator with seed 1; recorded while each step rebuilt its list of
# unhit generators by a shift per generator, and unchanged since each draw
# became a rank-select on the masks and the minimizer one suffix-union pass.
PINNED_GREEDY = "c7db64e892f0b0edfa0238e20199409b0d7c89a3c9c08b5dcb5c4fd9f6f89adf"


def test_greedy_then_minimize_pinned():
    rng = np.random.default_rng(1)
    out = []
    for key in (("q", 2, 3), ("h", 2, 2), ("qminus", 2, 3), ("qminus", 3, 2)):
        sp = build_polar_space(*key)
        out += [[list(key), list(S.greedy_then_minimize(sp, rng))]
                for _ in range(50)]
    blob = json.dumps(out, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_GREEDY


def test_select_bit_matches_bit_list():
    rng = np.random.default_rng(5)
    widths = [*range(1, 70), *rng.integers(70, 3001, 20).tolist(), 3000]
    for width in widths:
        nbytes = (width + 7) // 8
        top = 1 << (width - 1)
        masks = [1, top, top | 1]
        for _ in range(2):
            m = int.from_bytes(rng.bytes(nbytes), "little") & ((top << 1) - 1)
            masks += [m | top, m | top | 1]
        for mask in masks:
            bits = tuple(_iter_bits(mask))
            assert [S._select_bit(mask, k) for k in range(len(bits))] == \
                list(bits)


def _greedy_by_bit_lists(space, rng):
    # the draw loop as it was before rank-select, kept as the reference
    chosen: list[int] = []
    hit = 0
    while hit != space.all_gens_mask:
        unhit = list(_iter_bits(space.all_gens_mask & ~hit))
        target = unhit[int(rng.integers(len(unhit)))]
        hitters = list(_iter_bits(space.meets[target]))
        pick = hitters[int(rng.integers(len(hitters)))]
        if pick not in chosen:
            chosen.append(pick)
            hit |= space.meets[pick]
    return A.minimize_blocking_set(space, chosen)


def test_greedy_draws_match_bit_lists():
    # Q(8,2)'s 2,295 generators give the widest masks
    for key in (("q", 2, 3), ("h", 2, 2), ("qminus", 2, 3),
                ("qminus", 3, 2), ("q", 3, 2), ("q", 4, 2)):
        sp = build_polar_space(*key)
        for seed in range(1, 6):
            new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(10):
                assert S.greedy_then_minimize(sp, new) == \
                    _greedy_by_bit_lists(sp, ref)
            assert new.integers(1 << 62) == ref.integers(1 << 62)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("POLARBLOCK_BUDGET_SECS", "123.5")
    assert S.default_budget_secs() == 123.5
    monkeypatch.delenv("POLARBLOCK_BUDGET_SECS")
    assert S.default_budget_secs() == 600.0


def test_h44_budgeted_certifies_pencils():
    sp = build_polar_space("h", 2, 2)
    res = S.min_blocking(sp, budget_nodes=50_000, budget_secs=10)
    assert res.complete and res.optimum == 9
    pencils = sorted(tuple(sp.generators_through(Subspace(sp.field, sp.n, (p,))))
                     for p in sp.points)
    assert res.witnesses == pencils and len(pencils) == 165
    # no blocking set of size 8: one node for each of the two types
    below = S.min_blocking(sp, upper_bound=8)
    assert (below.complete, below.optimum, below.nodes) == (True, None, 2)


# Node counts and witness lists of the engine, pinned so that a rewrite of
# `_run_engine` must reproduce its search tree exactly.  The digest is the
# first 16 hex digits of sha256(repr(witness list)).
_PIN_SPACES = {"q42": ("q", 2, 2), "qplus3-2": ("qplus3", 2, 2),
               "q43": ("q", 2, 3), "qm52": ("qminus", 2, 2)}
_ENGINE_PINS = [
    ("min_blocking", "q42", 2, 35, "78ad4ff03e30abf9"),
    ("min_blocking", "qplus3-2", 2, 9, "ce3cd0650317ed23"),
    ("min_blocking", "q43", 19, 130, "9d55a89f9f007f14"),
    ("min_blocking", "qm52", 50, 243, "3171abcb5f74fc2e"),
    ("min_cover_of_space", "q42", 26, 6, "a89a66b1182e85fe"),
    ("min_cover_of_space", "qplus3-2", 2, 2, "d1bc02012b076eff"),
    ("min_cover_of_space", "q43", 1918, 360, "78a0743e7181f0b7"),
    ("min_cover_of_space", "qm52", 246, 200, "457de0e2125b0e28"),
    ("min_maximal_partial_spread", "q42", 1, 20, "6bad077db44d9e21"),
    ("min_maximal_partial_spread", "qplus3-2", 1, 2, "d1bc02012b076eff"),
    ("min_maximal_partial_spread", "q43", 7, 90, "fee361675f931630"),
    ("min_maximal_partial_spread", "qm52", 23, 216, "584fe69cc0412768"),
    ("enumerate_minimal", "q42", 12, 35, "78ad4ff03e30abf9"),
    ("enumerate_minimal", "qm52", 50, 243, "3171abcb5f74fc2e"),
]
_ENUM_BOUND = {"q42": 4, "qm52": 5}


def _witness_digest(ws) -> str:
    import hashlib

    return hashlib.sha256(repr([tuple(w) for w in ws]).encode()).hexdigest()[:16]


@pytest.mark.parametrize("fn,key,nodes,count,digest", _ENGINE_PINS,
                         ids=[f"{p[0]}-{p[1]}" for p in _ENGINE_PINS])
def test_engine_search_tree_pinned(fn, key, nodes, count, digest):
    sp = build_polar_space(*_PIN_SPACES[key])
    if fn == "enumerate_minimal":
        res = S.enumerate_minimal(sp, _ENUM_BOUND[key])
        found = res.sets
    else:
        res = getattr(S, fn)(sp)
        found = res.witnesses
    assert res.complete
    assert (res.nodes, len(found)) == (nodes, count)
    assert _witness_digest(found) == digest


# The nine polar-space problems of the search_exact benchmark workload.
_DOUBLE_COUNT_PROBLEMS = {
    "minb-q43": ("min_blocking", ("q", 2, 3), {}),
    "minb-qm52": ("min_blocking", ("qminus", 2, 2), {}),
    "minb-q62": ("min_blocking", ("q", 3, 2), {}),
    "enum-q43-6": ("enumerate_minimal", ("q", 2, 3), {"max_size": 6}),
    "enum-qm52-6": ("enumerate_minimal", ("qminus", 2, 2), {"max_size": 6}),
    "cover-q43": ("min_cover_of_space", ("q", 2, 3), {}),
    "cover-qm52": ("min_cover_of_space", ("qminus", 2, 2), {}),
    "mmps-q62": ("min_maximal_partial_spread", ("q", 3, 2), {}),
    "minb-h44-2M": ("min_blocking", ("h", 2, 2), {"budget_nodes": 2_000_000}),
}


@pytest.mark.parametrize("name", list(_DOUBLE_COUNT_PROBLEMS))
def test_type_runs_double_count(name, monkeypatch):
    # a set S through generator 0 whose least type is t has m_t(S) members
    # of type t, and the stabilizer of generator 0 carries a run's set onto
    # |type t| sets, each found from m_t of the runs' sets: summed over the
    # runs, |type t| / m_t(S) counts every set through generator 0 once
    type_runs = S._type_runs
    recorded = []

    def recording(*args, **kwargs):
        out = type_runs(*args, **kwargs)
        recorded.append(out)
        return out

    monkeypatch.setattr(S, "_type_runs", recording)
    fn, key, kw = _DOUBLE_COUNT_PROBLEMS[name]
    res = getattr(S, fn)(build_polar_space(*key), **kw)
    sets = res.sets if fn == "enumerate_minimal" else res.witnesses
    [(runs, complete, _)] = recorded
    assert complete and res.complete
    total = Fraction(0)
    for members, found in runs:
        of_type = set(members.tolist())
        for w in found:
            total += Fraction(len(of_type), len(of_type.intersection(w)))
    through_0 = {w for w in sets if 0 in w}
    assert len(set(sets)) == len(sets)
    assert through_0 and total == len(through_0)


def test_engine_pg2_oracle_nodes_pinned(monkeypatch):
    engine = S._run_engine
    total = [0]

    def counting(*args, **kwargs):
        out = engine(*args, **kwargs)
        total[0] += out[2]
        return out

    monkeypatch.setattr(S, "_run_engine", counting)
    expected = {2: (4, None, None), 3: (14, 6, (0, 1, 3, 4, 5, 7)),
                4: (46, 7, (0, 1, 2, 5, 8, 17, 20))}
    for q, want in expected.items():
        total[0] = 0
        r = S.smallest_nontrivial_pg2(q)
        assert (total[0], r.size, r.witness) == want


def test_pg2_oracle_budget_spans_restarts(monkeypatch):
    # q = 4 takes 19 nodes through the triangle at target 6, 12 at target
    # 7, then 15 unpinned for the witness: a budget of 45 nodes fits each
    # search alone, but not the three together
    engine = S._run_engine
    total = [0]

    def counting(*args, **kwargs):
        out = engine(*args, **kwargs)
        total[0] += out[2]
        return out

    monkeypatch.setattr(S, "_run_engine", counting)
    r = S.smallest_nontrivial_pg2(4, budget_nodes=45)
    assert (r.complete, r.exists, r.witness) == (False, None, None)
    assert total[0] <= 45 + 1
    total[0] = 0
    r = S.smallest_nontrivial_pg2(4, budget_nodes=46)
    assert (r.complete, r.size, total[0]) == (True, 7, 46)


def test_engine_h44_full_run_pinned():
    res = S.min_blocking(build_polar_space("h", 2, 2))
    assert (res.complete, res.optimum, res.nodes) == (True, 9, 379)
    assert len(res.witnesses) == 165
    assert _witness_digest(res.witnesses) == "63971d82bfb6a109"


def test_engine_h44_budget_stop_pinned():
    # a budget stop returns the pinned witnesses found so far, unexpanded
    sp = build_polar_space("h", 2, 2)
    res = S.min_blocking(sp, budget_nodes=300, budget_secs=1e9)
    assert (res.nodes, res.complete, res.optimum) == (301, False, 9)
    assert res.witnesses == [(0, 1, 2, 57, 66, 75, 84, 147, 210)]


def test_engine_deadline_read_at_every_node(monkeypatch):
    # a clock that advances 1 s per read: a 10 s budget stops a search of
    # 60,118 nodes within about 10 of them, however slow each node is
    sp = build_polar_space("q", 2, 3)
    clock = count()
    monkeypatch.setattr(S.time, "monotonic", lambda: float(next(clock)))
    _, complete, nodes, _ = S._run_engine(sp.meets, sp.meets, max_size=6,
                                          mode="leaves", budget_secs=10)
    assert not complete and nodes <= 10


# min_blocking on spaces too large for the pins above, recorded before the
# last pick moved into the parent node: (optimum, witness count, digest)
@pytest.mark.slow
@pytest.mark.parametrize("args,want", [
    (("q", 4, 2), (3, 118_575, "cc0e7bce6d28ed30")),
    (("q", 3, 3), (4, 36_400, "bea93d918934eff8")),
    (("qminus", 3, 2), (5, 26_775, "d255faaad9cae952")),
], ids=["q82", "q63", "qm72"])
def test_min_blocking_large_pinned(args, want):
    res = S.min_blocking(build_polar_space(*args))
    assert res.complete
    assert (res.optimum, len(res.witnesses), _witness_digest(res.witnesses)) == want


def _brute_hitting_sets(rows, ncands, max_size, conflicts=None,
                        forbid_rows=False, start=(), allowed=None):
    """Every hitting set of size <= max_size, by combination scan (over the
    candidates in the allowed mask, if given)."""
    cands = [c for c in range(ncands) if allowed is None or allowed >> c & 1]
    out = []
    for k in range(max_size + 1):
        for combo in combinations(cands, k):
            m = sum(1 << c for c in combo)
            if any(not r & m for r in rows):
                continue
            if not set(start) <= set(combo):
                continue
            if forbid_rows and any(not r & ~m for r in rows):
                continue
            if conflicts is not None and any(
                    conflicts[a] >> b & 1 for a, b in combinations(combo, 2)):
                continue
            out.append(combo)
    return out


def _cols(rows, width: int) -> list[int]:
    """The candidate masks of a relation given by its row masks."""
    return spaces._transpose([list(_iter_bits(r)) for r in rows], width)


@pytest.mark.parametrize("seed", range(40))
def test_engine_vs_bruteforce_random_relations(seed):
    rng = np.random.default_rng(seed)
    nrows, ncands = int(rng.integers(3, 13)), int(rng.integers(3, 12))
    density = rng.uniform(0.2, 0.6)
    rows = [sum(1 << c for c in range(ncands) if rng.random() < density)
            for _ in range(nrows)]
    cols = _cols(rows, ncands)
    pairs = [(a, b) for a, b in combinations(range(ncands), 2)
             if rng.random() < 0.3]
    conflicts = [0] * ncands
    for a, b in pairs:
        conflicts[a] |= 1 << b
        conflicts[b] |= 1 << a
    max_size = int(rng.integers(1, ncands + 1))
    start = (int(rng.integers(ncands)),)
    for kw in ({}, {"conflicts": conflicts}, {"forbid_rows": True},
               {"start": start}, {"conflicts": conflicts, "start": start}):
        valid = _brute_hitting_sets(rows, ncands, max_size, **kw)
        run = dict(kw, max_size=max_size)
        sols, complete, _, _ = S._run_engine(rows, cols, mode="min", **run)
        assert complete
        opt = min(map(len, valid), default=None)
        assert sols == [w for w in valid if len(w) == opt]
        # leaves: distinct valid sets, among them every minimal one
        leaves, _, _, _ = S._run_engine(rows, cols, mode="leaves", **run)
        assert len(set(leaves)) == len(leaves) and set(leaves) <= set(valid)
        vset = set(valid)
        minimal = [w for w in valid
                   if not any(w[:i] + w[i + 1:] in vset for i in range(len(w)))]
        assert set(minimal) <= set(leaves)
        for mode in ("min", "leaves"):
            first, _, _, _ = S._run_engine(rows, cols, mode=mode,
                                           first_only=True, **run)
            assert len(first) == min(len(valid), 1)
            assert set(first) <= vset


def test_engine_start_admits_no_set():
    # the start (0, 1) covers every row, yet admits no set when it is
    # larger than max_size, breaks a conflict or holds a whole row
    rows = [0b011, 0b110]
    cols = _cols(rows, 3)
    for kw, want in (({"max_size": 3}, [(0, 1)]), ({"max_size": 1}, []),
                     ({"max_size": 3, "conflicts": [0b010, 0b001, 0]}, []),
                     ({"max_size": 3, "forbid_rows": True}, [])):
        assert _brute_hitting_sets(rows, 3, start=(0, 1), **kw)[:1] == want
        for mode in ("min", "leaves"):
            sols, complete, _, _ = S._run_engine(rows, cols, mode=mode,
                                                 start=(0, 1), **kw)
            assert (sols, complete) == (want, True)


@pytest.mark.parametrize("seed", range(24))
def test_engine_start_pair_vs_bruteforce(seed):
    rng = np.random.default_rng(500 + seed)
    nrows, ncands = int(rng.integers(3, 13)), int(rng.integers(3, 12))
    density = rng.uniform(0.2, 0.6)
    rows = [sum(1 << c for c in range(ncands) if rng.random() < density)
            for _ in range(nrows)]
    cols = _cols(rows, ncands)
    conflicts = [0] * ncands
    for a, b in combinations(range(ncands), 2):
        if rng.random() < 0.2:
            conflicts[a] |= 1 << b
            conflicts[b] |= 1 << a
    max_size = int(rng.integers(1, ncands + 1))
    start = tuple(int(c) for c in rng.choice(ncands, 2, replace=False))
    for kw in ({}, {"conflicts": conflicts}, {"forbid_rows": True},
               {"conflicts": conflicts, "forbid_rows": True}):
        run = dict(kw, max_size=max_size, start=start)
        valid = _brute_hitting_sets(rows, ncands, **run)
        sols, complete, _, _ = S._run_engine(rows, cols, mode="min", **run)
        assert complete
        opt = min(map(len, valid), default=None)
        assert min(map(len, sols), default=None) == opt
        assert sorted(sols) == [w for w in valid if len(w) == opt]
        # every minimal hitting set through the pair is a leaf
        leaves, complete, _, _ = S._run_engine(rows, cols, mode="leaves", **run)
        assert complete and set(leaves) <= set(valid)
        vset = set(valid)
        minimal = [w for w in valid
                   if not any(w[:i] + w[i + 1:] in vset for i in range(len(w)))]
        assert set(minimal) <= set(leaves)


@pytest.mark.parametrize("seed", range(24))
def test_engine_allowed_mask_vs_bruteforce(seed):
    # the relations of test_engine_vs_reference_random_relations, searched
    # over a random subset of the candidates
    rng = np.random.default_rng(1000 + seed)
    nrows, ncands = int(rng.integers(20, 41)), int(rng.integers(20, 41))
    density = rng.uniform(0.25, 0.5)
    rows = [sum(1 << c for c in range(ncands) if rng.random() < density)
            for _ in range(nrows)]
    cols = _cols(rows, ncands)
    conflicts = [0] * ncands
    for a, b in combinations(range(ncands), 2):
        if rng.random() < 0.1:
            conflicts[a] |= 1 << b
            conflicts[b] |= 1 << a
    max_size = int(rng.integers(4, 7))
    inside = [c for c in range(ncands) if rng.random() < 0.45]
    allowed = sum(1 << c for c in inside)
    outside = next(c for c in range(ncands) if not allowed >> c & 1)
    pair = tuple(int(c) for c in rng.choice(inside, 2, replace=False))
    for kw in ({}, {"conflicts": conflicts}, {"forbid_rows": True},
               {"start": pair[:1]}, {"start": pair},
               {"conflicts": conflicts, "start": pair},
               {"start": (pair[0], outside)}):
        run = dict(kw, max_size=max_size, allowed=allowed)
        valid = _brute_hitting_sets(rows, ncands, **run)
        if "start" in kw and outside in kw["start"]:
            assert valid == []
        sols, complete, _, _ = S._run_engine(rows, cols, mode="min", **run)
        assert complete
        opt = min(map(len, valid), default=None)
        assert sols == [w for w in valid if len(w) == opt]
        leaves, complete, _, _ = S._run_engine(rows, cols, mode="leaves", **run)
        vset = set(valid)
        assert complete and len(set(leaves)) == len(leaves) <= len(vset)
        assert set(leaves) <= vset
        minimal = [w for w in valid
                   if not any(w[:i] + w[i + 1:] in vset for i in range(len(w)))]
        assert set(minimal) <= set(leaves)


# The engine as it was before the parent-count bound, kept as the
# reference for a node-for-node comparison: every prune decision, and so
# every node count, witness list and budget stop, must stay the same.
def _reference_engine(rows, cols, *, max_size, mode, conflicts=None,
                      forbid_rows=False, first_only=False, start=None,
                      budget_nodes=S.DEFAULT_BUDGET_NODES, budget_secs=1e9):
    deadline = time.monotonic() + budget_secs
    nodes = 0
    best = max_size
    done = False
    sols = []
    maxdeg = max((c.bit_count() for c in cols), default=0)

    def found(mask, depth):
        nonlocal best, done
        if mode == "min":
            if depth > best:
                return
            if depth < best:
                best = depth
                sols.clear()
        sols.append(tuple(_iter_bits(mask)))
        done = first_only

    def fills_row(mask, c):
        return any(not rows[r] & ~mask for r in _iter_bits(cols[c]))

    def rec(chosen_mask, depth, allowed, uncovered):
        nonlocal nodes
        nodes += 1
        if nodes > budget_nodes:
            raise S._BudgetStop
        if nodes % 2048 == 0 and time.monotonic() > deadline:
            raise S._BudgetStop
        if not uncovered:
            found(chosen_mask, depth)
            return
        rem = (best if mode == "min" else max_size) - depth
        if rem <= 0:
            return
        need = uncovered.bit_count()
        if rem * maxdeg < need:
            return
        if rem == 1:
            u = uncovered
            while u and allowed:
                low = u & -u
                u ^= low
                allowed &= rows[low.bit_length() - 1]
            for c in _iter_bits(allowed):
                new_mask = chosen_mask | 1 << c
                if not (forbid_rows and fills_row(new_mask, c)):
                    found(new_mask, depth + 1)
                    if done:
                        return
            return
        caps = [(col & uncovered).bit_count()
                for col, bit in zip(cols, bin(allowed)[:1:-1]) if bit == "1"]
        caps.sort(reverse=True)
        if sum(caps[:rem]) < need:
            return
        best_count = len(cols) + 1
        best_cand = 0
        u = uncovered
        while u and best_count > 1:
            low = u & -u
            u ^= low
            ra = rows[low.bit_length() - 1] & allowed
            if not ra:
                return
            k = ra.bit_count()
            if k < best_count:
                best_count = k
                best_cand = ra
        for c in _iter_bits(best_cand):
            low = 1 << c
            allowed &= ~low
            new_mask = chosen_mask | low
            if forbid_rows and fills_row(new_mask, c):
                continue
            child_allowed = allowed
            if conflicts is not None:
                child_allowed &= ~conflicts[c]
            rec(new_mask, depth + 1, child_allowed, uncovered & ~cols[c])
            if done:
                return

    chosen, depth = 0, 0
    allowed = (1 << len(cols)) - 1
    uncovered = (1 << len(rows)) - 1
    if start is not None:
        chosen, depth = 1 << start, 1
        allowed &= ~chosen
        if conflicts is not None:
            allowed &= ~conflicts[start]
        uncovered &= ~cols[start]
    complete = True
    try:
        rec(chosen, depth, allowed, uncovered)
    except S._BudgetStop:
        complete = False
    sols.sort()
    return sols, complete, nodes


def _assert_same_tree(rows, cols, **kw):
    # the reference takes its one start candidate as an int
    ref = dict(kw, start=kw["start"][0]) if "start" in kw else kw
    want = _reference_engine(rows, cols, **ref)
    sols, complete, nodes, _ = S._run_engine(rows, cols, budget_secs=1e9, **kw)
    assert (sols, complete, nodes) == want


@pytest.mark.parametrize("seed", range(24))
def test_engine_vs_reference_random_relations(seed):
    # large enough that nodes with three or more picks left pass the
    # capacity test and hand their counts to their children
    rng = np.random.default_rng(1000 + seed)
    nrows, ncands = int(rng.integers(20, 41)), int(rng.integers(20, 41))
    density = rng.uniform(0.25, 0.5)
    rows = [sum(1 << c for c in range(ncands) if rng.random() < density)
            for _ in range(nrows)]
    cols = _cols(rows, ncands)
    conflicts = [0] * ncands
    for a, b in combinations(range(ncands), 2):
        if rng.random() < 0.1:
            conflicts[a] |= 1 << b
            conflicts[b] |= 1 << a
    max_size = int(rng.integers(4, 7))
    start = (int(rng.integers(ncands)),)
    for kw in ({}, {"conflicts": conflicts}, {"forbid_rows": True},
               {"start": start}, {"conflicts": conflicts, "start": start},
               {"first_only": True}, {"forbid_rows": True, "first_only": True},
               {"budget_nodes": 300}):
        for mode in ("min", "leaves"):
            _assert_same_tree(rows, cols, max_size=max_size, mode=mode, **kw)


@pytest.mark.parametrize("key,mode,max_size", [
    ("q43", "min", 10), ("q43", "leaves", 6), ("qm52", "min", 5),
    ("qm52", "leaves", 5), ("h44", "min", 9), ("q62", "min", 7),
], ids=lambda v: str(v))
def test_engine_vs_reference_meets(key, mode, max_size):
    sp = build_polar_space(*_SYMMETRY_SPACES[key])
    _assert_same_tree(sp.meets, sp.meets, max_size=max_size, mode=mode,
                      start=(0,))
    if mode == "min":
        _assert_same_tree(sp.meets, sp.meets, max_size=max_size, mode=mode,
                          start=(0,), conflicts=sp.meets)


_SYMMETRY_SPACES = {**_PIN_SPACES, "q62": ("q", 3, 2), "h44": ("h", 2, 2),
                    "qm72": ("qminus", 3, 2)}


def _meets_matrix(sp) -> np.ndarray:
    n = sp.num_generators
    nbytes = (n + 7) // 8
    return np.array([np.unpackbits(np.frombuffer(m.to_bytes(nbytes, "little"),
                                                 dtype=np.uint8),
                                   bitorder="little", count=n)
                     for m in sp.meets], dtype=bool)


@pytest.mark.parametrize("key", sorted(_SYMMETRY_SPACES))
def test_generator_permutations_preserve_meets(key):
    sp = build_polar_space(*_SYMMETRY_SPACES[key])
    perms = sp.generator_permutations()
    assert perms is sp.generator_permutations()  # cached on the space
    assert perms.dtype == np.int32 and perms.shape == (len(perms),
                                                       sp.num_generators)
    meets = _meets_matrix(sp)
    for perm in perms:
        assert sorted(perm) == list(range(sp.num_generators))
        p = np.array(perm)
        # meets[g][h] == meets[perm g][perm h] for every pair
        assert (meets[np.ix_(p, p)] == meets).all()
    orbit = {0}
    todo = [0]
    while todo:
        g = todo.pop()
        for perm in perms:
            if perm[g] not in orbit:
                orbit.add(perm[g])
                todo.append(perm[g])
    assert orbit == set(range(sp.num_generators))


# number of kept reflections and the sha256 of the compact JSON of the
# permutation list, recorded before the generator maps became array lookups
_PERM_PINS = {
    "q42": (4, "6e5bd9099e46823130b9ff137bb193dbd7a5efe5265a184e50df729caf5aefce"),
    "qplus3-2": (3, "4357656f4feb04745f65cced9de352d37c6746e60f9a8779e0fa6a0a75800bd6"),
    "q43": (5, "1b729e609b9937f2f799f639f4435901e47cbbd92c82fb88541f5f99133ba09b"),
    "qm52": (6, "62c4730a3b18efea3596ddd869d9ce76cbf71450ac20368de6fb076d687883c0"),
    "q62": (7, "25c1146b5bd8141ade7159e22aefb8805c88311623a25e347b62c1fdf158e154"),
    "h44": (5, "6ba756e7963bedb80e862af4016e2e137057a8526dfe591daa575bee0fc1c056"),
    "qm72": (9, "52936261e6a146e4003e47e1e9453e2148889e1ce54073bee3f2773eb0479407"),
}


@pytest.mark.parametrize("key", sorted(_PERM_PINS))
def test_generator_permutations_pinned(key):
    perms = build_polar_space(*_SYMMETRY_SPACES[key]).generator_permutations()
    digest = hashlib.sha256(json.dumps(perms.tolist()).encode()).hexdigest()
    assert (len(perms), digest) == _PERM_PINS[key]


# on q42, qplus3-2, q62, q45 and q82 the kept reflections generate too
# small a group, and further reflections are scanned
_STABILIZER_SPACES = {"q42": ("q", 2, 2), "qplus3-2": ("qplus3", 2, 2),
                      "q43": ("q", 2, 3), "qm52": ("qminus", 2, 2),
                      "q62": ("q", 3, 2), "h44": ("h", 2, 2),
                      "qm72": ("qminus", 3, 2), "q45": ("q", 2, 5),
                      "q82": ("q", 4, 2)}

# number of kept Schreier generators and the sha256 of the compact JSON of
# the permutation list, recorded before both symmetry stages shared one scan
_STAB_PINS = {
    "h44": (5, "22159d790dc31e705f0811d4c13caeecf1b59d9ec5f7ee291f5934c5936140d4"),
    "q42": (3, "e8d220ec431edcbf5eeec293ebd355dc4137191dbe4f53bdeb873206b3c3f653"),
    "q43": (4, "a7c185881baa0d024879312a6083d32036f2f2cc13fa97d9c19f10dc15aa36fc"),
    "q45": (4, "92eb76f69e80a2acea58a79c3bcd514cfb8db03a1077785277144b749fb3c0cb"),
    "q62": (6, "ba2d0e518af092830af85f6f7efaea08da624e11d68bdb3c8301499ed79b7a9e"),
    "q82": (7, "bdf98ac29a9b122457cdf2dce62b10e79afdc84fe7fa55bd8ee689882195c796"),
    "qm52": (5, "8e731ebb9563f6efd57766f2706b0900df94d2e78ca350f72d5a352c75837e58"),
    "qm72": (8, "952d37d7002e593d4538176c2af4ae4bf05a6bf5bf7df814601de93ab909cd9e"),
    "qplus3-2": (2, "9514a3db7698bcce765ae369757f50d4b853a5b13f700dc78b3726d849c339f0"),
}


@pytest.mark.parametrize("key", sorted(_STAB_PINS))
def test_stabilizer_permutations_pinned(key):
    sp = build_polar_space(*_STABILIZER_SPACES[key])
    perms = sp.stabilizer_permutations()
    digest = hashlib.sha256(json.dumps(perms.tolist()).encode()).hexdigest()
    assert (len(perms), digest) == _STAB_PINS[key]


@pytest.mark.parametrize("key", sorted(_STABILIZER_SPACES))
def test_stabilizer_permutations(key):
    sp = build_polar_space(*_STABILIZER_SPACES[key])
    perms = sp.stabilizer_permutations()
    assert perms is sp.stabilizer_permutations()  # cached on the space
    assert perms.dtype == np.int32 and perms.shape == (len(perms),
                                                       sp.num_generators)
    meets = _meets_matrix(sp)
    for perm in perms:
        assert sorted(perm) == list(range(sp.num_generators))
        p = np.array(perm)
        assert p[0] == 0
        assert (meets[np.ix_(p, p)] == meets).all()
    # each type (points shared with generator 0) is one orbit
    types = meet_types(sp)
    for t in set(types.tolist()):
        members = np.flatnonzero(types == t).tolist()
        orbit = {members[0]}
        todo = [members[0]]
        while todo:
            g = todo.pop()
            for perm in perms:
                if perm[g] not in orbit:
                    orbit.add(perm[g])
                    todo.append(perm[g])
        assert sorted(orbit) == members


def test_stabilizer_permutations_guards(monkeypatch):
    # the reflections kept for generator 0's orbit generate too small a
    # group on Q(6,2): without the others, a type stays intransitive
    sp = build_polar_space("q", 3, 2)
    sp.generator_permutations()
    monkeypatch.setattr(spaces, "_reflections", lambda space: iter(()))
    with pytest.raises(AssertionError, match="orbits"):
        spaces._stabilizer_permutations(sp)
    monkeypatch.undo()
    # the guard counts the transversal rows the scan stores (4 bytes per
    # generator each, the identity included): 55 on Q(6,2), far below a
    # row for every generator
    n = sp.num_generators
    perms = sp.stabilizer_permutations()
    for cap in (8 * n * n - 1, 4 * n * 55):
        monkeypatch.setattr(spaces, "MAX_BUILD_BYTES", cap)
        assert (spaces._stabilizer_permutations(sp) == perms).all()
    for cap in (4 * n * 55 - 1, 4 * n):
        monkeypatch.setattr(spaces, "MAX_BUILD_BYTES", cap)
        with pytest.raises(spaces.BudgetError, match="transversal rows"):
            spaces._stabilizer_permutations(sp)


def test_reflection_permutations_guard(monkeypatch):
    # with no reflections, generator 0's orbit stays itself
    sp = build_polar_space("q", 2, 3)
    monkeypatch.setattr(spaces, "_reflections", lambda space: iter(()))
    with pytest.raises(AssertionError, match="reflections move generator 0 "
                                             "to 1 of 40 generators"):
        spaces._reflection_permutations(sp)


@pytest.mark.parametrize("key", ["q42", "qplus3-2"])
def test_pinned_optimum_vs_bruteforce(key):
    sp = build_polar_space(*_PIN_SPACES[key])
    res = S.min_blocking(sp)
    assert res.complete
    assert S.no_blocking_below(sp, res.optimum)
    assert not S.no_blocking_below(sp, res.optimum + 1)
    brute = [c for c in combinations(range(sp.num_generators), res.optimum)
             if A.is_blocking(sp, c)]
    assert res.witnesses == brute


def _essential_by_generator_loop(sp, members):
    """The per-generator essentiality test that the bitmask pass replaced."""
    lmask = A.members_mask(members)
    essential = 0
    for g in range(sp.num_generators):
        if (1 << g) & lmask:
            continue
        hits = sp.meets[g] & lmask
        if hits and hits & (hits - 1) == 0:
            essential |= hits
    return tuple(i for i in members if (1 << i) & essential)


@pytest.mark.parametrize("key", sorted(_ENUM_BOUND))
def test_essential_members_vs_generator_loop(key, monkeypatch):
    sp = build_polar_space(*_PIN_SPACES[key])
    engine = S._run_engine
    leaves = []

    def recording(*args, **kwargs):
        out = engine(*args, **kwargs)
        leaves.extend(out[0])
        return out

    monkeypatch.setattr(S, "_run_engine", recording)
    S.enumerate_minimal(sp, _ENUM_BOUND[key])
    # and every leaf of the unpinned tree (on q42 some are not minimal)
    S._run_engine(sp.meets, sp.meets, max_size=_ENUM_BOUND[key], mode="leaves")
    # covers by generators, whose members can be pairwise disjoint
    leaves.extend(S.min_cover_of_space(sp).witnesses)
    for w in leaves:
        assert A.essential_members(sp, w) == _essential_by_generator_loop(sp, w)

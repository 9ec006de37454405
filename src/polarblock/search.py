"""Exact combinatorial search over generator incidence.

One branch-and-bound engine drives every exact question: minimum
generator blocking sets (hitting sets on the meets relation), complete
enumeration of minimal blocking sets up to a size bound, exact minimum
set covers, smallest maximal partial spreads (hitting sets with pairwise
disjoint members) and the plane blocking-set oracle.

The engine works on a 0/1 relation given twice as Python-int bitmasks:
rows[r] holds the candidates that hit row r, cols[c] the rows that
candidate c hits.  For the symmetric meets relation both are `meets`;
set covers and the plane oracle pass the transpose.  A search node holds
the chosen set, the allowed candidates and the uncovered rows as
bitmasks, so picking c leaves `uncovered & ~cols[c]` uncovered.  With
`forbid_rows` no chosen set may contain a whole row (the plane oracle:
no line inside the blocking set).

The engine is deterministic: it branches on an uncovered row with the
fewest remaining hitters (lexicographic tie-break), visits candidates in
index order and partitions the space by banning earlier siblings, so node
counts and witness order are reproducible.  A node with rem picks left
is pruned when rem * max|cols[c]| < |uncovered|.  With one pick left the
node makes it itself: the allowed candidates hitting every uncovered row
(an AND of the rows, stopped as soon as it is empty) give the finished
sets, and no child node is made.  Otherwise the covering capacity runs
before any row scan: rem picks cover at most the rem largest counts
|cols[c] & uncovered| over the allowed candidates (rows and cols are
transposes, so one that hits no uncovered row counts 0), and a sum below
|uncovered| prunes.  A node hands its children its sorted counts.  No
count grows from parent to child, so a child recounts only those above
t = (|uncovered| - 1) // rem, and rem copies of t stand in for the rest:
a cheap upper bound on the capacity.  Only if it does not prune is every
candidate counted, so each prune is the exact test's.  Only then does a
scan of the uncovered rows pick the branch row, stopping at an empty row
(prune) or at one with a single hitter.  Budgets (node count and wall
time, read at every node) make incompleteness explicit, never silent.

The four searches over a polar space's generators (min_blocking,
enumerate_minimal, min_cover_of_space, min_maximal_partial_spread) pin two
generators.  The isometry group of a classical polar space is transitive
on generators (Witt's theorem), so every answer is the image of one that
contains generator 0, and the stabilizer of generator 0 is transitive on
the generators that share t points with it, its type, for each t.  The
engine runs once per type, smallest t first, with generator 0 and the
least generator of the type chosen at the root and every earlier type
banned by the root allowed mask, so each set through generator 0 is found
in the run of its least type.  The runs share one node budget and one
deadline, and in mode 'min' each is capped by the best size so far.  A
complete search's sets are then expanded twice by one breadth-first orbit
walk, _orbit_images.  First each run's sets go through the permutations
of PolarSpace.stabilizer_permutations, each set through generator 0
emitted once, from its least member of its least type (McKay,
"Isomorph-free exhaustive generation", 1998).  Then those sets go through
PolarSpace.generator_permutations (reflections in nonsingular points),
each set emitted from its least member, and the result is sorted; the
lists equal those of the unpinned search.  Both permutation sets are int32
arrays, one row per permutation, built on first use by the one scan that
keeps the maps joining orbits (spaces._join_orbits) and cached on the
space.  A budget stop returns the sets of the runs so far, unexpanded.
min_cover on arbitrary lines assumes no symmetry and is not pinned.

The plane oracle pins a triangle.  A blocking set of PG(2,q) that contains
no line has three non-collinear points, and PGL(3,q) is transitive on
ordered triangles and keeps blocking sets line-free, so a size is empty
iff no such set passes through a fixed triangle.  Each target size is
decided with the triangle chosen at the root; at the first size that is
not empty, one unpinned search to the first set gives the witness, the
same set as a search without the pin.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from heapq import heappushpop
from itertools import combinations

import numpy as np

from .gf import field_of_order, is_prime
from .projective import Subspace, enumerate_pg_points
from .spaces import PolarSpace, _iter_bits, _transpose, meet_types
from . import analysis

DEFAULT_BUDGET_NODES = 10 ** 8


def default_budget_secs() -> float:
    return float(os.environ.get("POLARBLOCK_BUDGET_SECS", 600.0))


def _deadline(budget_secs: float | None) -> float:
    """The time.monotonic() at which a run of budget_secs seconds (the
    default budget when None) stops."""
    if budget_secs is None:
        budget_secs = default_budget_secs()
    return time.monotonic() + budget_secs


@dataclass
class SearchResult:
    witnesses: list[tuple[int, ...]]  # all of one size, the optimum
    complete: bool
    nodes: int
    seconds: float

    @property
    def optimum(self) -> int | None:
        return len(self.witnesses[0]) if self.witnesses else None

    def to_json(self) -> dict:
        return {
            "optimum": self.optimum,
            "complete": self.complete,
            "witnesses": [list(w) for w in self.witnesses],
            "nodes": self.nodes,
            "seconds": self.seconds,
        }


@dataclass
class EnumerationResult:
    sets: list[tuple[int, ...]]
    complete: bool
    nodes: int
    seconds: float


class _BudgetStop(Exception):
    pass


def _run_engine(rows, cols, *, max_size: int, mode: str, conflicts=None,
                forbid_rows: bool = False, first_only: bool = False,
                start: tuple[int, ...] = (), allowed: int | None = None,
                budget_nodes: int = DEFAULT_BUDGET_NODES,
                budget_secs: float | None = None):
    """Core exact search over the allowed candidates.

    rows[r]: bitmask of the candidates that hit row r.
    cols[c]: bitmask of the rows that candidate c hits (the transpose of
    rows; for the symmetric meets relation, rows itself).
    mode 'min': optimum + all optimum-size hitting sets of size <= max_size.
    mode 'leaves': every leaf hitting set of size <= max_size (a superset
    of all inclusion-minimal ones).
    conflicts[c]: candidates unusable once c is chosen (disjointness).
    forbid_rows: no chosen set may contain every candidate of a row
    (checked on each pick through the rows of cols[c]).
    start: candidates every chosen set contains; the root node has them
    chosen already (the symmetry pins: generator 0 and the least
    generator of one type in the polar-space searches, a triangle in the
    plane oracle).  A start larger than
    max_size, or one that breaks conflicts or forbid_rows, admits no set.
    allowed: bitmask of the candidates a chosen set may contain (default
    every candidate); a start outside it admits no set.

    Each node carries the chosen set, the allowed candidates and the
    uncovered rows as bitmasks.  Returns (sols, complete, nodes, seconds).
    """
    deadline = _deadline(budget_secs)
    t0 = time.monotonic()
    # A set has at most len(cols) members.  Capped at len(cols) + 1,
    # max_size still leaves two picks or more wherever a candidate is left,
    # so every node is as it was, and no list grows with the bound.
    max_size = min(max_size, len(cols) + 1)
    nodes = 0
    best = max_size
    done = False
    sols: list[tuple[int, ...]] = []
    maxdeg = max((c.bit_count() for c in cols), default=0)

    def found(mask, depth):
        nonlocal best, done
        if mode == "min":
            # depth <= best: no set found under an open node is shallower
            if depth < best:
                best = depth
                sols.clear()
        sols.append(tuple(_iter_bits(mask)))
        done = first_only

    rows_of = ([[rows[r] for r in _iter_bits(col)] for col in cols]
               if forbid_rows else None)

    def fills_row(mask, c):
        # under forbid_rows: does picking c complete some row of c?
        return 0 in map((~mask).__and__, rows_of[c])

    def rec(chosen_mask, depth, allowed, uncovered, pcaps):
        nonlocal nodes
        nodes += 1
        if nodes > budget_nodes or time.monotonic() > deadline:
            raise _BudgetStop
        if not uncovered:
            found(chosen_mask, depth)
            return
        rem = best - depth
        if rem <= 0:
            return
        need = uncovered.bit_count()
        if rem * maxdeg < need:
            return
        if rem == 1:
            # Last pick, made here: the candidates hitting every uncovered row.
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
        # Covering capacity: rem picks cover at most the rem largest counts
        # |cols[c] & uncovered| over the allowed candidates (0 for one that
        # hits no uncovered row).  First the bound from the parent's sorted
        # (count, candidate) list.  top is a min-heap of the rem largest so
        # far; once a parent count is at or below its least, no later
        # candidate can enter it.
        if pcaps is not None:
            top = [(need - 1) // rem] * rem
            for k, c in pcaps:
                if k <= top[0]:
                    break
                heappushpop(top, (cols[c] & uncovered).bit_count())
            if sum(top) < need:
                return
        # Then the exact capacity, as that list for the children.  bin()
        # lists the bits from the top: reversed, bit c is character c.
        bits = bin(allowed)[:1:-1]
        pcaps = sorted([((col & uncovered).bit_count(), c)
                        for c, (col, bit) in enumerate(zip(cols, bits))
                        if bit == "1"], reverse=True)
        if sum(k for k, _ in pcaps[:rem]) < need:
            return
        # Branch row: fewest allowed hitters, first index breaks ties; the
        # scan stops at an empty row (prune) or one with a single hitter.
        best_count = len(cols) + 1
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
        # Children in index order; each bans its earlier siblings.
        for c in _iter_bits(best_cand):
            low = 1 << c
            allowed &= ~low
            new_mask = chosen_mask | low
            if forbid_rows and fills_row(new_mask, c):
                continue
            child_allowed = allowed
            if conflicts is not None:
                child_allowed &= ~conflicts[c]
            rec(new_mask, depth + 1, child_allowed, uncovered & ~cols[c],
                pcaps)
            if done:
                return

    chosen = 0
    if allowed is None:
        allowed = (1 << len(cols)) - 1
    uncovered = (1 << len(rows)) - 1
    viable = len(start) <= max_size
    for c in start:
        low = 1 << c
        viable = viable and allowed & low and not (
            forbid_rows and fills_row(chosen | low, c))
        chosen |= low
        allowed &= ~low
        if conflicts is not None:
            allowed &= ~conflicts[c]
        uncovered &= ~cols[c]
    complete = True
    try:
        if viable:
            rec(chosen, len(start), allowed, uncovered, None)
    except _BudgetStop:
        complete = False
    seconds = time.monotonic() - t0
    sols.sort()
    return sols, complete, nodes, seconds


def _orbit_images(perms, start: int, sets, n: int, of_type=None):
    """The images of sets, which hold start, under perms, each emitted once.

    A breadth-first walk over the orbit of start (from generator 0 under
    the generator permutations, the same walk whose tree gives the
    transversal of the stabilizer permutations) yields for every g in it a
    product tau of perms (rows of an index array) with tau(start) = g.
    An image tau(P) is kept only when g is its least member, or with
    of_type (a boolean mask of a class of generators that perms keep, start
    among them) its least member of that class.  When sets holds every set
    of a family that has start as that member, a set of the family whose
    such member is g is then tau(P) for exactly one P, so each is emitted
    once and no set of seen sets is kept.  Breadth first, the queue holds
    about one level of the tree.  Unsorted.
    """
    groups = [np.array([s for s in sets if len(s) == k], dtype=np.int32)
              for k in sorted({len(s) for s in sets})]
    out = []
    reached = np.zeros(n, dtype=bool)
    reached[start] = True
    queue = deque([np.arange(n, dtype=np.int32)] if groups else [])
    while queue:
        tau = queue.popleft()
        g = int(tau[start])
        for rows in groups:
            images = np.sort(tau[rows], axis=1)
            least = (images[:, 0] if of_type is None
                     else np.where(of_type[images], images, n).min(axis=1))
            out.extend(map(tuple, images[least == g].tolist()))
        for perm in perms:
            h = perm[g]
            if not reached[h]:
                reached[h] = True
                queue.append(perm[tau])
    return out


def _type_runs(space: PolarSpace, rows, cols, keep=None, *, max_size: int,
               mode: str, budget_nodes: int = DEFAULT_BUDGET_NODES,
               budget_secs: float | None = None, **kw):
    """The engine once per type of generator (meet_types: the number of
    points it shares with generator 0), smallest first.  Every set of the
    families searched here has a member besides generator 0, as some
    generator is disjoint from it.  The run of type t has generator 0 and
    g_t, the least generator of type t, chosen at the root, and the
    generators of every earlier type banned, so it finds the sets through
    generator 0 whose least type is t and that contain g_t.  The runs share
    one node budget and one deadline; in mode 'min' each is capped by the
    best size so far, and only the sets of the final best size are kept.
    Sets failing keep are dropped.  Returns ([(type members, sets)],
    complete, nodes); the runs stop at the first that is incomplete."""
    deadline = _deadline(budget_secs)
    types = meet_types(space)
    allowed = (1 << len(cols)) - 1
    runs, nodes, complete = [], 0, True
    for t in sorted(set(types[1:].tolist())):
        members = np.flatnonzero(types == t)
        sols, complete, k, _ = _run_engine(
            rows, cols, max_size=max_size, mode=mode,
            start=(0, int(members[0])), allowed=allowed,
            budget_nodes=budget_nodes - nodes,
            budget_secs=deadline - time.monotonic(), **kw)
        nodes += k
        if keep is not None:
            sols = [w for w in sols if keep(space, w)]
        if mode == "min" and sols:
            if len(sols[0]) < max_size:
                runs = [(m, []) for m, _ in runs]
            max_size = len(sols[0])
        runs.append((members, sols))
        allowed &= ~analysis.members_mask(members.tolist())
        if not complete:
            break
    return runs, complete, nodes


def _pinned(space: PolarSpace, rows, cols, keep=None, **kw):
    """The sets of a family, from _type_runs' sets.  Sets failing keep (a
    property kept by isometries) are dropped before any expansion.

    The stabilizer permutations of generator 0 keep each type and have it
    as one orbit, so the sets through generator 0 whose least type is t are
    the images of the run of type t, each emitted from its least member of
    type t.  The isometry group is transitive on generators, so every set
    is an image of one through generator 0 under the generator
    permutations, emitted from its least member; the result is sorted.  A
    budget stop returns the sets of the runs so far, unexpanded."""
    t0 = time.monotonic()
    runs, complete, nodes = _type_runs(space, rows, cols, keep, **kw)
    sols = sorted(w for _, sets in runs for w in sets)
    if complete and sols:
        n = space.num_generators
        through0 = []
        for members, sets in runs:
            of_type = np.zeros(n, dtype=bool)
            of_type[members] = True
            through0 += _orbit_images(space.stabilizer_permutations(),
                                      int(members[0]), sets, n, of_type)
        sols = sorted(_orbit_images(space.generator_permutations(), 0,
                                    through0, n))
    return sols, complete, nodes, time.monotonic() - t0


def min_blocking(space: PolarSpace, upper_bound: int | None = None,
                 budget_nodes: int = DEFAULT_BUDGET_NODES,
                 budget_secs: float | None = None) -> SearchResult:
    """Exact minimum generator blocking sets: optimum size and every
    minimum-size set, certified by exhausted branch-and-bound."""
    seed = None
    if upper_bound is None:
        # a pencil; a prefix of RREF rows is in RREF
        vertex = space.generators[0][:space.rank - 1]
        seed = space.generators_through(Subspace(space.field, space.n, vertex))
        upper_bound = len(seed)
    sols, complete, nodes, seconds = _pinned(
        space, space.meets, space.meets, max_size=upper_bound, mode="min",
        budget_nodes=budget_nodes, budget_secs=budget_secs)
    if not complete and not sols and seed is not None:
        # nothing found before the budget: the seed is the known upper bound
        sols = [tuple(seed)]
    return SearchResult(sols, complete, nodes, seconds)


def minimum_minimal_blocking_sets(space: PolarSpace,
                                  result: SearchResult) -> list[tuple[int, ...]]:
    """Filter a min_blocking result to the sets that are minimal (all
    members essential)."""
    return [w for w in result.witnesses if analysis.is_minimal(space, w)]


def enumerate_minimal(space: PolarSpace, max_size: int,
                      budget_nodes: int = DEFAULT_BUDGET_NODES,
                      budget_secs: float | None = None) -> EnumerationResult:
    """All minimal blocking sets of size <= max_size (raw list, no
    isomorph rejection).  Leaves of the bounded search tree cover every
    inclusion-minimal hitting set through generator 0; the essentiality
    filter keeps exactly the minimal ones, and their orbits are the rest."""
    sols, complete, nodes, seconds = _pinned(
        space, space.meets, space.meets, keep=analysis.is_minimal,
        max_size=max_size, mode="leaves", budget_nodes=budget_nodes,
        budget_secs=budget_secs)
    return EnumerationResult(sols, complete, nodes, seconds)


def _greedy_cover_size(line_masks, all_mask: int) -> int:
    """Size of a deterministic greedy cover of all_mask by the lines."""
    covered = 0
    size = 0
    while covered != all_mask:
        gain, pick = -1, None
        for li, lm in enumerate(line_masks):
            g = (lm & ~covered).bit_count()
            if g > gain:
                gain, pick = g, li
        if gain <= 0:
            raise ValueError("lines do not cover the points")
        size += 1
        covered |= line_masks[pick]
    return size


def min_cover(points, lines, budget_nodes: int = DEFAULT_BUDGET_NODES,
              budget_secs: float | None = None) -> SearchResult:
    """Exact minimum set cover: every point in some chosen line.

    points: iterable of point ids; lines: list of point-id collections.
    Witnesses are index tuples into the lines list.  No symmetry is
    assumed, so nothing is pinned; a greedy cover bounds the search.
    """
    pts, line_pts = analysis.index_lines(points, lines)
    line_masks = [analysis.members_mask(l) for l in line_pts]
    return SearchResult(*_run_engine(
        _transpose(line_pts, len(pts)), line_masks,
        max_size=_greedy_cover_size(line_masks, (1 << len(pts)) - 1),
        mode="min", budget_nodes=budget_nodes, budget_secs=budget_secs))


def min_cover_of_space(space: PolarSpace, upper_bound: int | None = None,
                       budget_nodes: int = DEFAULT_BUDGET_NODES,
                       budget_secs: float | None = None) -> SearchResult:
    """Minimum cover of the space's points by its generators."""
    if upper_bound is None:
        upper_bound = _greedy_cover_size(space.gen_point_mask,
                                         space.all_points_mask)
    return SearchResult(*_pinned(
        space, space.point_gen_mask, space.gen_point_mask,
        max_size=upper_bound, mode="min", budget_nodes=budget_nodes,
        budget_secs=budget_secs))


def _greedy_maximal_partial_spread(space: PolarSpace) -> tuple[int, ...]:
    chosen = []
    used = 0
    for g in range(space.num_generators):
        if space.gen_point_mask[g] & used == 0:
            chosen.append(g)
            used |= space.gen_point_mask[g]
    return tuple(chosen)


def min_maximal_partial_spread(space: PolarSpace, bound: int | None = None,
                               budget_nodes: int = DEFAULT_BUDGET_NODES,
                               budget_secs: float | None = None) -> SearchResult:
    """Smallest maximal partial spread: pairwise disjoint generators that
    block every generator (maximality and blocking coincide)."""
    if bound is None:
        bound = len(_greedy_maximal_partial_spread(space))
    return SearchResult(*_pinned(
        space, space.meets, space.meets, max_size=bound, mode="min",
        conflicts=space.meets, budget_nodes=budget_nodes,
        budget_secs=budget_secs))


# -- plane blocking-set oracle -------------------------------------------------


@dataclass
class EpsilonResult:
    q: int
    exists: bool | None
    size: int | None
    epsilon: int | None
    witness: tuple | None
    source: str
    complete: bool = True
    note: str = ""


def _pg2_incidence(q: int):
    field = field_of_order(q)
    pts = enumerate_pg_points(2, field)
    cols = np.array(pts, dtype=field.add_table.dtype).T
    # the line with dual coordinates c holds the points x with c.x = 0
    return pts, [tuple(np.flatnonzero(field.combine(c, cols) == 0).tolist())
                 for c in pts]


def smallest_nontrivial_pg2(q: int,
                            budget_nodes: int = DEFAULT_BUDGET_NODES,
                            budget_secs: float | None = None) -> EpsilonResult:
    """Smallest blocking set of PG(2,q) containing no line, by exact
    search for q <= 9; the prime formula eps = (q+1)/2 beyond that.

    Such a set has three non-collinear points: were it inside a line L, a
    point X of L outside it would lie on q lines meeting L only in X, and
    those would miss it.  PGL(3,q) is transitive on ordered triangles, so
    each target size q+2, q+3, ... is decided on the sets through the
    triangle of points 0, 1 and the first point off their line.  At the
    first size that has one, an unpinned search returns its first set in
    search order as the witness.  All the searches share one node budget
    and one deadline."""
    if q > 9:
        if is_prime(q):
            eps = (q + 1) // 2
            return EpsilonResult(q, True, q + 1 + eps, eps, None,
                                 "prime-formula",
                                 note="outside oracle range; prime q formula")
        raise ValueError(
            f"q = {q} outside the oracle range and not prime: no epsilon")
    pts, lines = _pg2_incidence(q)
    npts = len(pts)
    line_masks = [analysis.members_mask(l) for l in lines]
    # rows are lines, and the hitting candidates of a line are its points
    lines_through = _transpose(lines, npts)
    line01 = line_masks[(lines_through[0] & lines_through[1]).bit_length() - 1]
    triangle = (0, 1, next(p for p in range(npts) if not line01 >> p & 1))
    deadline = _deadline(budget_secs)

    def first_set(target, start):
        nonlocal budget_nodes
        sols, complete, nodes, _ = _run_engine(
            line_masks, lines_through, max_size=target, mode="min",
            forbid_rows=True, first_only=True, start=start,
            budget_nodes=budget_nodes,
            budget_secs=deadline - time.monotonic())
        budget_nodes -= nodes
        return sols, complete

    for target in range(q + 2, npts + 1):
        sols, complete = first_set(target, triangle)
        if complete and sols:
            sols, complete = first_set(target, ())
        if not complete:
            return EpsilonResult(q, None, None, None, None, "search",
                                 complete=False,
                                 note=f"stopped at target size {target}")
        if sols:
            size = len(sols[0])
            return EpsilonResult(q, True, size, size - (q + 1), sols[0],
                                 "search")
    return EpsilonResult(q, False, None, None, None, "search",
                         note="every blocking set contains a line")


# -- random generation and brute-force oracles ---------------------------------


def _select_bit(mask: int, k: int) -> int:
    """Position of the k-th set bit of mask, counting from 0 at the lowest:
    tuple(_iter_bits(mask))[k].  Requires 0 <= k < mask.bit_count().

    Halves on the popcount of the bits below mid, so it takes O(log n)
    big-int operations for an n-bit mask instead of listing its bits."""
    # invariant: fewer than k + 1 set bits below lo, more than k below hi
    lo, hi = 0, mask.bit_length()
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (mask & ((1 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid
    return lo


def greedy_then_minimize(space: PolarSpace, rng) -> tuple[int, ...]:
    """A random blocking set minimized by lex-least removable stripping.

    Each step draws an unhit generator uniformly, then a generator meeting
    it uniformly, by index into the set bits of the masks in ascending
    order."""
    chosen: list[int] = []
    hit = 0
    while hit != space.all_gens_mask:
        unhit = space.all_gens_mask & ~hit
        target = _select_bit(unhit, int(rng.integers(unhit.bit_count())))
        hitters = space.meets[target]
        pick = _select_bit(hitters, int(rng.integers(hitters.bit_count())))
        if pick not in chosen:
            chosen.append(pick)
            hit |= space.meets[pick]
    return analysis.minimize_blocking_set(space, chosen)


def no_blocking_below(space: PolarSpace, size: int) -> bool:
    """Brute-force certificate: no blocking set of size < size exists.
    Independent of the branch-and-bound; desk-scale spaces only."""
    for k in range(1, size):
        for combo in combinations(range(space.num_generators), k):
            if analysis.is_blocking(space, combo):
                return False
    return True

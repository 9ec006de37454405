"""Verification and classification of generator blocking sets.

Everything here is a pure function over an immutable PolarSpace: blocking
and minimality checks, the coverage profile (covered-point weights w(P),
excess W and holes, at any rank), the identity/inequality battery for
rank-2 spaces, projection of a blocking set from a hole into the quotient
geometry, the generalized-quadrangle axiom checker, partial-spread
predicates, the catalogue classifier and the delta-thresholds under which
the classification theorems apply.  The battery's line histograms (b_i
and b~_i, and b_i(X) at each hole X) come from one pass over the lines
not in the set, made only where the battery applies; its report carries
b and b~.

A census classifies many sets that share a few rank-2 bases, so two
structures are kept on the space they belong to (PolarSpace.cached),
each built on first use: the sub-quadrangle verdict on a covered point
set, keyed by its point mask, and the hyperplane section, keyed by the
hyperplane's canonical RREF rows.  The quotient at a cone vertex or a
hole is the space's own cached map (PolarSpace.quotient).  Sharing them
is sound because a PolarSpace is immutable and each key determines what
is built from it; SectionStructure is frozen, and callers read these
structures without changing them.  verify_classification still runs
every test of a witness; only these per-space inputs are shared with
classify.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from math import isqrt
from typing import Callable, NamedTuple

import numpy as np

from .forms import is_totally_singular
# meet and span stay importable here: perfbench/tracer.py wraps these names
from .projective import Subspace, canonicalize, meet, span  # noqa: F401
from .spaces import (
    BudgetError,
    PolarSpace,
    _iter_bits,
    hyperplane_section,
    pencil_size,
    space_name,
)

LABEL_PENCIL = "Pencil"
LABEL_SUBGQ_SPREAD = "SubGQSpread"
LABEL_COVER_Q4 = "CoverOfSectionQ4"
LABEL_UNKNOWN = "Unknown"


class ConeRow(NamedTuple):
    """One row of the catalogue of cones in rank >= 3: generators through
    a vertex meeting a base structure of the rank-2 quotient at it."""
    kind: str
    label: str
    base: str | None    # base label in the quotient; None for a pencil row,
                        # whose vertex has dimension rank-2
    base_name: str
    avoidance: Callable[[int], int]   # least members off a hyperplane, in q


# the paper's cone catalogue, keyed by the row names of `construct`
CONE_ROWS = {
    "conic-pencil": ConeRow("q", "ConeOverConicPencil", None, "Q(2,q)",
                            lambda q: q - 1),
    "qplus3-spread": ConeRow("q", "ConeOverQplus3Spread", LABEL_SUBGQ_SPREAD,
                             "Q+(3,q)", lambda q: q - 1),
    "elliptic-pencil": ConeRow("qminus", "ConeOverEllipticPencil", None,
                               "Q-(3,q)", lambda q: q * q - q),
    "q4-cover": ConeRow("qminus", "ConeOverQ4Cover", LABEL_COVER_Q4,
                        "Q(4,q)", lambda q: q * q - q),
    "hermitian-pencil": ConeRow("h", "ConeOverHermitianPencil", None,
                                "H(2,q^2)", lambda q: q ** 3 - q),
}


def theorem_labels(kind: str, rank: int) -> frozenset[str]:
    """The labels the classification theorems allow for small minimal
    blocking sets of a space of this kind and rank >= 2: the pencil and
    the cone bases at rank 2, the cones at rank >= 3."""
    rows = [r for r in CONE_ROWS.values() if r.kind == kind]
    if rank == 2:
        return frozenset([LABEL_PENCIL] + [r.base for r in rows if r.base])
    return frozenset(r.label for r in rows)


def _cone_label(kind: str, base: str | None) -> str:
    """Label of the catalogue row of this kind over this base label (None
    for the pencil row), Unknown when there is none."""
    for r in CONE_ROWS.values():
        if r.kind == kind and r.base == base:
            return r.label
    return LABEL_UNKNOWN


def members_mask(members) -> int:
    m = 0
    for i in members:
        m |= 1 << i
    return m


def validate_members(space: PolarSpace, members) -> tuple[int, ...]:
    """The members as sorted distinct generator indices.  Each must be an
    integer (Python or numpy, not bool) and index a generator of the space;
    floats and strings are refused, not truncated or parsed."""
    raw = list(members)
    # plain ints, the common case, need neither the type test nor int()
    if not all(type(m) is int for m in raw):
        for m in raw:
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
                raise ValueError(f"generator index {m!r} is not an integer")
        raw = [int(m) for m in raw]
    out = tuple(sorted(set(raw)))
    if len(out) != len(raw):
        raise ValueError("duplicate generator indices in blocking set")
    n = space.num_generators
    if out and not (0 <= out[0] and out[-1] < n):
        bad = next(m for m in out if not 0 <= m < n)
        raise ValueError(f"generator index {bad} out of range")
    return out


def delta_of(space: PolarSpace, size: int) -> int:
    """Size excess over the pencil size t_base+1 of the space's kind."""
    return size - pencil_size(space.kind, space.q)


@dataclass
class BlockingSet:
    """An ordered set of generator indices into a polar space."""

    space: PolarSpace
    members: tuple[int, ...]

    def __post_init__(self):
        self.members = validate_members(self.space, self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        sp = self.space
        return {
            "space": {"kind": sp.kind, "rank": sp.rank, "q": sp.q,
                      "hash": sp.content_hash()},
            "members": list(self.members),
        }


# The public predicates validate their members; the cores _blocks,
# _essential, _coverage and _identities take members validate_members has
# already returned, so a caller that holds them validates once.


def _blocks(space: PolarSpace, members) -> bool:
    hit = 0
    for m in members:
        hit |= space.meets[m]
    return hit == space.all_gens_mask


def is_blocking(space: PolarSpace, members) -> bool:
    """Every generator of the space meets some member non-trivially."""
    return _blocks(space, validate_members(space, members))


def _essential(space: PolarSpace, members) -> tuple[int, ...]:
    meets = space.meets
    # ones: generators meeting some member; twos: meeting at least two
    ones = twos = 0
    for m in members:
        twos |= ones & meets[m]
        ones |= meets[m]
    once = ones & ~twos & ~members_mask(members)
    return tuple(m for m in members if meets[m] & once)


def essential_members(space: PolarSpace, members) -> tuple[int, ...]:
    """Members pi for which some outside generator meets pi and no other
    member."""
    return _essential(space, validate_members(space, members))


def is_minimal(space: PolarSpace, members) -> bool:
    members = validate_members(space, members)
    return len(_essential(space, members)) == len(members)


def minimize_blocking_set(space: PolarSpace, members) -> tuple[int, ...]:
    """Strip removable members, lex-least first, while blocking survives.

    The result is inclusion-minimal; when every survivor is essential it
    is minimal in the catalogue sense as well.
    """
    cur = validate_members(space, members)
    meets, full = space.meets, space.all_gens_mask
    # after[i]: the generators met by some member of cur[i:]
    after = [0] * (len(cur) + 1)
    for i in range(len(cur) - 1, -1, -1):
        after[i] = after[i + 1] | meets[cur[i]]
    if after[0] != full:
        raise ValueError("input set is not blocking")
    # One pass gives what stripping the lex-least removable member and
    # rescanning from the start gives: a member found needed stays needed
    # once later members are removed (a subset of a non-blocking set does
    # not block), so each rescan would pass the kept members and stop at
    # the member this pass removes next.  At member i the rest is the kept
    # members and cur[i+1:], which block iff hit | after[i + 1] is full.
    kept, hit = [], 0
    for i, m in enumerate(cur):
        if hit | after[i + 1] != full:
            kept.append(m)
            hit |= meets[m]
    return tuple(kept)


# -- coverage bookkeeping ------------------------------------------------------


@dataclass
class CoverageProfile:
    members: tuple[int, ...]
    covered_mask: int
    num_covered: int
    w: dict[int, int]              # covered point index -> multiplicity
    W: int                         # sum of (w(P)-1)
    holes: tuple[int, ...]


def coverage_profile(space: PolarSpace, members) -> CoverageProfile:
    """The points the members cover, each with its multiplicity w(P), the
    excess W = sum of (w(P)-1) and the holes (points on no member), at any
    rank; checks |M| = |L|·(points per generator) - W on the way."""
    return _coverage(space, validate_members(space, members))


def _coverage(space: PolarSpace, members) -> CoverageProfile:
    covered = 0
    w: dict[int, int] = {}
    for m in members:
        for p in space.gen_points[m]:
            w[p] = w.get(p, 0) + 1
        covered |= space.gen_point_mask[m]
    W = sum(v - 1 for v in w.values())
    num_covered = covered.bit_count()
    ppg = space.points_per_generator()
    if num_covered != len(members) * ppg - W:
        raise AssertionError("coverage count identity violated")
    # the holes are the points w does not count
    holes = tuple([p for p in range(space.num_points) if p not in w])
    return CoverageProfile(members, covered, num_covered, w, W, holes)


@dataclass
class CheckItem:
    ok: bool
    detail: str = ""


@dataclass
class IdentityReport:
    applicable: bool
    reason: str
    items: dict[str, CheckItem] = dc_field(default_factory=dict)
    # lines not in L by members met (b) and by covered points (b~);
    # empty unless applicable
    b: dict[int, int] = dc_field(default_factory=dict)
    b_tilde: dict[int, int] = dc_field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.applicable and all(i.ok for i in self.items.values())


def check_coverage_identities(space: PolarSpace, members) -> IdentityReport:
    """The identity/inequality battery for rank-2 blocking sets with
    delta < s-1: per-hole line histogram identity and perp bound, the
    meet bound delta+1 with its histogram consequences, the b~ vs b
    comparison, the global counting inequality, and the pencil bound at
    points not fully surrounded by members.  Each line not in L is
    counted once, for the members it meets and the covered points on it."""
    members = validate_members(space, members)
    return _identities(space, members, _blocks(space, members))


def _identities(space: PolarSpace, members, blocking: bool,
                prof: CoverageProfile | None = None) -> IdentityReport:
    """The battery on validated members, given _blocks' verdict on them
    and, from a caller that holds it, their _coverage profile, which is
    otherwise computed only where the battery applies."""
    if space.rank != 2:
        return IdentityReport(False, "histogram checks are defined on rank-2 spaces")
    if not blocking:
        return IdentityReport(False, "set is not blocking")
    s, t = space.s, space.t
    delta = len(members) - (t + 1)
    if delta >= s - 1:
        return IdentityReport(False, f"delta = {delta} >= s-1 = {s - 1}: not applicable")
    if prof is None:
        prof = _coverage(space, members)
    lmask = members_mask(members)
    # i[g]: members the line g meets; j[g]: covered points on g; -1 on members
    lines = list(_iter_bits(space.all_gens_mask & ~lmask))
    i = [-1] * space.num_generators
    j = [-1] * space.num_generators
    for g in lines:
        i[g] = (space.meets[g] & lmask).bit_count()
        j[g] = (space.gen_point_mask[g] & prof.covered_mask).bit_count()
    b = dict(Counter(i[g] for g in lines))
    b_tilde = dict(Counter(j[g] for g in lines))
    items: dict[str, CheckItem] = {}

    # (a) per hole X: sum_i b_i(X)(i-1) = delta and sum over X-perp of
    #     (w-1) <= delta; no line through X is in L, as it would cover X.
    #     The sum of i over the t+1 lines on X counts the pairs (line on X,
    #     member it meets), member by member.
    tot = {x: sum((space.point_gen_mask[x] & space.meets[m]).bit_count()
                  for m in members) - (t + 1)
           for x in prof.holes}
    x = next((x for x in prof.holes if tot[x] != delta), None)
    items["a_hole_identity"] = CheckItem(
        x is None, f"{len(prof.holes)} holes checked" if x is None
        else f"hole {x}: sum b_i(X)(i-1) = {tot[x]} != {delta}")
    ok = True
    detail = ""
    for x in prof.holes:
        acc = sum(prof.w[p] - 1
                  for p in _iter_bits(space.collinear[x] & prof.covered_mask))
        if acc > delta:
            ok = False
            detail = f"hole {x}: sum (w-1) over perp = {acc} > {delta}"
            break
    items["a_perp_bound"] = CheckItem(ok, detail)

    # (b) a line not contained in M meets at most delta+1 members;
    #     histogram consequences b_0 = b~_0 = 0 and zeros strictly between
    #     delta+1 and s+1.  b~_0 <= b_0: a line meeting a member shares a
    #     covered point with it, so a line with no covered point meets no
    #     member.  The verdict reads b_0 alone; b~_0 = 0 follows from it.
    #     _blocks found, for every line g, a member whose meets row holds g;
    #     b_0 counts the lines whose own row holds no member, so b_0 > 0 on
    #     a blocking set only where meets is not symmetric: b_0 guards that.
    g = next((g for g in lines if j[g] <= s and i[g] > delta + 1), None)
    items["b_meet_bound"] = CheckItem(
        g is None, "" if g is None
        else f"line {g} (not in M) meets {i[g]} > delta+1 members")
    bad = [k for k in range(delta + 2, s + 1) if b.get(k, 0) or b_tilde.get(k, 0)]
    ok = not b.get(0, 0) and not bad
    items["b_histograms"] = CheckItem(
        ok, "" if ok else f"nonzero histogram entries: b0={b.get(0, 0)} "
                          f"b~0={b_tilde.get(0, 0)} middle={bad}")

    # (c) sum_{i=2}^{delta+1} b~_i (i-1) <= same sum for b_i
    lhs = sum(b_tilde.get(k, 0) * (k - 1) for k in range(2, delta + 2))
    rhs = sum(b.get(k, 0) * (k - 1) for k in range(2, delta + 2))
    items["c_tilde_le_b"] = CheckItem(lhs <= rhs, f"{lhs} <= {rhs}")

    # (e) (s-delta) sum_{i=1}^{delta+1} b_i (i-1) <= (st-t-delta)(s+1)delta + W delta
    lhs = (s - delta) * sum(b.get(k, 0) * (k - 1) for k in range(1, delta + 2))
    rhs = (s * t - t - delta) * (s + 1) * delta + prof.W * delta
    items["e_global_bound"] = CheckItem(lhs <= rhs, f"{lhs} <= {rhs}")

    # (f) a point with a non-member line lies on <= delta+1 members, and
    #     fewer than t/s + 1 of its non-member lines are inside M
    full_lines = members_mask(g for g in lines if j[g] == s + 1)
    detail = detail2 = ""
    for p in range(space.num_points):
        in_l = (space.point_gen_mask[p] & lmask).bit_count()
        if in_l == t + 1:
            continue
        if in_l > delta + 1:
            detail = f"point {p} lies on {in_l} > delta+1 members"
        full = (space.point_gen_mask[p] & full_lines).bit_count()
        if full * s >= t + s:  # full < t/s + 1
            detail2 = f"point {p} has {full} fully covered non-member lines"
    items["f_pencil_bound"] = CheckItem(not detail, detail)
    items["f_covered_lines"] = CheckItem(not detail2, detail2)

    return IdentityReport(True, "", items, b, b_tilde)


# -- projection from a hole ----------------------------------------------------


def project_blocking_set(space: PolarSpace, members, hole: int):
    """Project a blocking set from one of its holes into the quotient.

    Each member g maps to the span of the hole with g meet perp(hole),
    taken in the quotient geometry; duplicates merge.  That span is a
    quotient generator, the one through the images of g's points collinear
    with the hole (QuotientMap.gen_through).  Returns (quotient space,
    projected member indices, quotient map).  A set that does not block is
    refused with ValueError: its projection need not block either.
    """
    members = validate_members(space, members)
    if not _blocks(space, members):
        raise ValueError("projection requires a blocking set")
    # checks the hole as a point index (BuildError is a ValueError)
    qm = space.quotient_map(hole)
    if space.point_gen_mask[hole] & members_mask(members):
        raise ValueError(f"point {hole} is covered; not a hole")
    projected = tuple(sorted({
        qm.gen_through(space.gen_point_mask[m] & space.collinear[hole])
        for m in members}))
    if not _blocks(qm.quotient, projected):
        raise AssertionError("projection from a hole failed to block the quotient")
    return qm.quotient, projected, qm


# -- GQ axioms -----------------------------------------------------------------


@dataclass
class GQCheckResult:
    ok: bool
    order: tuple[int, int] | None
    failure: str | None = None
    witness: tuple | None = None


def index_lines(points, lines) -> tuple[list, list[list[int]]]:
    """The points as a list, and each line as the indices of its points in
    it; ValueError for a point listed twice, a line naming a non-point or a
    line naming a point twice."""
    pts = list(points)
    index = {p: i for i, p in enumerate(pts)}
    if len(index) != len(pts):
        twice = next(p for i, p in enumerate(pts) if index[p] != i)
        raise ValueError(f"point {twice!r} is listed twice")
    try:
        lns = [[index[p] for p in l] for l in lines]
    except KeyError as e:
        raise ValueError(f"a line names {e.args[0]!r}, "
                         "which is not a point") from None
    for l in lns:
        if len(set(l)) != len(l):
            twice = next(i for k, i in enumerate(l) if i in l[:k])
            raise ValueError(f"a line names {pts[twice]!r} twice")
    return pts, lns


def check_gq_axioms(points, lines) -> GQCheckResult:
    """Check the generalized-quadrangle axioms on an abstract incidence
    structure; returns the order (s,t) or the first violated axiom."""
    pts, lns = index_lines(points, lines)
    npts = len(pts)
    lns = [tuple(sorted(l)) for l in lns]
    if not pts or not lns:
        return GQCheckResult(False, None, "empty point or line set", ())
    sizes = {len(l) for l in lns}
    if len(sizes) != 1:
        return GQCheckResult(False, None, "line sizes not constant",
                             (sorted(sizes),))
    s = sizes.pop() - 1
    if s < 1:
        return GQCheckResult(False, None, "lines must have at least 2 points", ())
    deg = [0] * npts
    for l in lns:
        for p in l:
            deg[p] += 1
    if len(set(deg)) != 1:
        return GQCheckResult(False, None, "point degrees not constant",
                             (min(deg), max(deg)))
    t = deg[0] - 1
    if t < 1:
        return GQCheckResult(False, None, "points must lie on at least 2 lines", ())
    seen_pairs = set()
    for li, l in enumerate(lns):
        for a in range(len(l)):
            for bj in range(a + 1, len(l)):
                pair = (l[a], l[bj])
                if pair in seen_pairs:
                    return GQCheckResult(False, None,
                                         "two points on two common lines", pair)
                seen_pairs.add(pair)
    # unique collinear pair: every point off a line is collinear with
    # exactly one of its points; ones/twos mark the points collinear with
    # at least one/two points of the line
    line_mask = [sum(1 << p for p in l) for l in lns]
    adj = [0] * npts
    for l, lm in zip(lns, line_mask):
        for p in l:
            adj[p] |= lm
    every = (1 << npts) - 1
    for l, lm in zip(lns, line_mask):
        ones = twos = 0
        for p in l:
            twos |= ones & adj[p]
            ones |= adj[p]
        bad = (every & ~ones | twos) & ~lm
        if bad:
            x = (bad & -bad).bit_length() - 1
            col = sum(adj[p] >> x & 1 for p in l)
            return GQCheckResult(False, None,
                                 "unique-collinear-pair axiom violated",
                                 (pts[x], tuple(pts[p] for p in l), col))
    return GQCheckResult(True, (s, t))


# -- partial spreads -----------------------------------------------------------


def covered_mask(space: PolarSpace, members) -> int:
    """Bitmask of the points lying on some member."""
    cov = 0
    for m in members:
        cov |= space.gen_point_mask[m]
    return cov


def is_partial_spread(space: PolarSpace, members) -> bool:
    """Pairwise disjoint members: they cover as many points as they hold."""
    members = validate_members(space, members)
    return (covered_mask(space, members).bit_count()
            == len(members) * space.points_per_generator())


def is_spread(space: PolarSpace, members) -> bool:
    return is_partial_spread(space, members) and is_cover(space, members)


def is_cover(space: PolarSpace, members) -> bool:
    members = validate_members(space, members)
    return covered_mask(space, members) == space.all_points_mask


def is_maximal_partial_spread(space: PolarSpace, members) -> bool:
    """Partial spread not extendable by any generator; equivalently a
    partial spread that is also a blocking set."""
    return is_partial_spread(space, members) and is_blocking(space, members)


# -- classification ------------------------------------------------------------


@dataclass
class Classification:
    label: str
    vertex: Subspace | None = None
    base: "Classification | None" = None
    details: dict = dc_field(default_factory=dict)

    def to_json(self):
        out = {"label": self.label, "details": dict(self.details)}
        if self.vertex is not None:
            out["vertex"] = self.vertex.to_json()
        if self.base is not None:
            out["base"] = self.base.to_json()
        return out


def _pencil_label(space: PolarSpace) -> str:
    if space.rank == 2:
        return LABEL_PENCIL
    return _cone_label(space.kind, None)


def _is_pencil(space: PolarSpace, members, v: Subspace) -> bool:
    """The members are all generators through the totally singular v, and
    as many as a pencil has."""
    return (len(members) == pencil_size(space.kind, space.q)
            and list(members) == space.generators_through(v))


def _subgq_spread_lines(space: PolarSpace, members) -> int | None:
    """Number of lines of the subquadrangle of order (s, t/s) induced on the
    points the members cover, when the members are pairwise disjoint and
    so form a spread of it; None otherwise.  The members must be valid."""
    if space.rank != 2 or space.t % space.s:
        return None
    cov = covered_mask(space, members)
    if cov.bit_count() != len(members) * space.points_per_generator():
        return None
    return space.cached("subgq_lines", cov, _subgq_lines, space, cov)


def _subgq_lines(space: PolarSpace, cov: int) -> int | None:
    """Number of lines inside the point set cov when those points and lines
    form a generalized quadrangle of order (s, t/s); None otherwise."""
    sub_lines = [space.gen_points[g] for g in range(space.num_generators)
                 if space.gen_point_mask[g] & ~cov == 0]
    res = check_gq_axioms(_iter_bits(cov), sub_lines)
    if res.ok and res.order == (space.s, space.t // space.s):
        return len(sub_lines)
    return None


def _covers_q4_section(space: PolarSpace, members, h: Subspace):
    """The section of h when h is a hyperplane whose section is a
    nondegenerate Q(4,q) containing every member and covered by them; None
    otherwise."""
    if h.dim != space.n - 1:
        return None
    sec = space.cached("hyperplane_section", h.rows, hyperplane_section,
                       space, h)
    if (sec.label == space_name("q", 2, space.q)
            and set(members) <= set(sec.gen_indices)
            and covered_mask(space, members) & sec.point_mask == sec.point_mask):
        return sec
    return None


def _cone_base(space: PolarSpace, members, v: Subspace):
    """The quotient at the vertex v and the members' images in it."""
    qm = space.quotient(v)
    return qm.quotient, tuple(sorted({qm.gen_image(m) for m in members}))


def _classify_rank2(space: PolarSpace, members) -> Classification:
    # cover of a nondegenerate parabolic hyperplane section (elliptic ambient)
    if space.kind == "qminus":
        h = canonicalize(space.field, space.n,
                         [r for m in members for r in space.generators[m]])
        sec = _covers_q4_section(space, members, h)
        if sec is not None:
            return Classification(
                LABEL_COVER_Q4, details={
                    "hyperplane": h.to_json(),
                    "section_points": len(sec.point_indices),
                })
    # spread of the subquadrangle induced on the covered points
    sub_lines = _subgq_spread_lines(space, members)
    if sub_lines is not None:
        return Classification(
            LABEL_SUBGQ_SPREAD,
            details={"order": (space.s, space.t // space.s),
                     "sub_lines": sub_lines})
    return Classification(LABEL_UNKNOWN)


def classify(space: PolarSpace, members) -> Classification:
    """Match a minimal blocking set against the catalogue of small
    examples; non-Unknown results carry an independently verified witness."""
    members = validate_members(space, members)
    if not _blocks(space, members):
        raise ValueError("classify requires a blocking set")
    if len(_essential(space, members)) != len(members):
        raise ValueError("classify requires a minimal blocking set")

    # the members' common points are the points of their meet, the vertex;
    # a single point is its own RREF basis
    common = space.all_points_mask
    for m in members:
        common &= space.gen_point_mask[m]
    if common and not common & (common - 1):
        v = Subspace(space.field, space.n,
                     (space.points[common.bit_length() - 1],))
    else:
        v = canonicalize(space.field, space.n,
                         [space.points[p] for p in _iter_bits(common)])

    result = Classification(LABEL_UNKNOWN)
    if v.dim == space.rank - 2:
        if _is_pencil(space, members, v):
            result = Classification(_pencil_label(space), vertex=v)
    elif space.rank == 2:
        result = _classify_rank2(space, members)
    elif v.dim == space.rank - 3:
        qspace, proj = _cone_base(space, members, v)
        if len(proj) == len(members) and _blocks(qspace, proj) \
                and len(_essential(qspace, proj)) == len(proj):
            base = _classify_rank2(qspace, proj)
            label = _cone_label(space.kind, base.label)
            if label != LABEL_UNKNOWN:
                result = Classification(label, vertex=v, base=base)

    if result.label != LABEL_UNKNOWN:
        if not verify_classification(space, members, result):
            raise AssertionError(
                f"witness for label {result.label} failed re-verification")
    return result


def verify_classification(space: PolarSpace, members, cls: Classification) -> bool:
    """Independent re-check of a classification witness."""
    members = validate_members(space, members)
    label = cls.label
    v = cls.vertex
    if label == LABEL_UNKNOWN:
        return True
    row = next((r for r in CONE_ROWS.values() if r.label == label), None)
    if label == LABEL_PENCIL or (row is not None and row.base is None):
        return (label == _pencil_label(space)
                and v is not None and v.dim == space.rank - 2
                and is_totally_singular(space.form, v)
                and _is_pencil(space, members, v))
    if label == LABEL_SUBGQ_SPREAD:
        return _subgq_spread_lines(space, members) is not None
    if label == LABEL_COVER_Q4:
        rows = tuple(tuple(r) for r in cls.details.get("hyperplane", ()))
        if not all(len(r) == space.n + 1
                   and all(0 <= x < space.field.q for x in r) for r in rows):
            return False
        h = canonicalize(space.field, space.n, rows)
        return _covers_q4_section(space, members, h) is not None
    if row is not None:
        # a vertex on every member of a non-empty set is totally singular,
        # so the quotient at it exists
        if (not members or v is None or v.dim != space.rank - 3
                or cls.base is None or cls.base.label != row.base
                or not set(members) <= set(space.generators_through(v))):
            return False
        qspace, proj = _cone_base(space, members, v)
        return (len(proj) == len(members)
                and _classify_rank2(qspace, proj).label == row.base)
    return False


# -- thresholds ----------------------------------------------------------------


@dataclass
class Threshold:
    kind: str
    q: int
    max_delta: int           # largest admissible delta; -1 if none
    description: str
    value: float | None = None
    plane: object = None     # kind 'q': search.EpsilonResult of the plane


def theorem_threshold(kind: str, q: int, rank: int = 3) -> Threshold:
    """Largest delta for which the classification theorems apply.

    kind 'qminus': delta <= (3q - sqrt(5q^2+2q+1))/2 (any rank >= 2).
    kind 'h':      delta < q-3 (any rank >= 2; empty for q <= 3).
    kind 'q':      rank >= 3: delta < min((q-1)/2, eps); rank 2: delta < eps,
                   with eps the excess of the smallest non-trivial plane
                   blocking set (oracle-searched for q <= 9, prime formula
                   beyond, unbounded when no non-trivial set exists).
    """
    if kind == "qminus":
        # the largest delta with 3q - 2 delta >= c, for c >= 1 the least
        # integer with c^2 >= 5q^2+2q+1; -1 when there is none
        d = 5 * q * q + 2 * q + 1
        r = isqrt(d)
        c = r if r * r == d else r + 1
        md = max(-1, (3 * q - c) // 2)
        try:
            value = (3 * q - (r if r * r == d else d ** 0.5)) / 2
        except OverflowError:
            raise ValueError(f"q = {q} is too large for a float "
                             "threshold value") from None
        return Threshold(kind, q, md,
                         "delta <= (3q - sqrt(5q^2+2q+1))/2", value)
    if kind == "h":
        return Threshold(kind, q, max(-1, q - 4), "delta < q-3", float(q - 3))
    if kind == "q":
        from .search import smallest_nontrivial_pg2

        res = smallest_nontrivial_pg2(q)
        if not res.complete:
            raise BudgetError(f"PG(2,{q}) plane oracle {res.note}")
        if rank >= 3:
            md = (q - 2) // 2
            desc = "delta < min((q-1)/2, eps)"
        else:
            md = None
            desc = "delta < eps"
        if res.exists:
            md = res.epsilon - 1 if md is None else min(md, res.epsilon - 1)
        elif md is None:
            # no non-trivial plane blocking set and no (q-1)/2 term at rank 2:
            # only delta = 0 is covered (by the t+1 theorem)
            md = 0
        return Threshold(kind, q, md, desc, None, res)
    raise ValueError(f"threshold kinds are 'q', 'qminus', 'h'; got {kind!r}")


def spread_size_gate(kind: str, q: int) -> int:
    """Integer lower bound on maximal partial spread sizes implied by the
    rank >= 3 classification: pencil/cone examples are never partial
    spreads, so sizes at admissible delta are excluded."""
    th = theorem_threshold(kind, q)
    return pencil_size(kind, q) + th.max_delta + 1

"""The acceptance suite: one callable per criterion, shared by the CLI
`accept` subcommand and by tests/test_acceptance.py.

Each criterion returns pass/fail/skip with a detail line, under the number
and title that _criterion gives it, and _criterion files it in CRITERIA
with its time limit; the runner adds wall time and enforces the limits.
Skips only arise from a BudgetError, never silently.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import wraps

import numpy as np

from . import analysis, constructions, search
from .analysis import CONE_ROWS, theorem_labels
from .projective import Subspace
from .spaces import BudgetError, build_polar_space, pencil_size, st_params

RNG_SEED = 20110811


@dataclass
class CriterionResult:
    cid: int
    title: str
    status: str  # pass | fail | skip
    detail: str
    seconds: float = 0.0
    limit: float | None = None


def _example(kind, rank, q, row):
    sp = build_polar_space(kind, rank, q)
    return sp.cached("cone_example", row, constructions.cone_example, sp, row)


# (criterion, time limit in seconds or None), in number order
CRITERIA = []


def _criterion(cid: int, title: str, limit: float | None):
    """Make a criterion of a body that returns (status, detail) and append
    it to CRITERIA with its time limit: calling it gives the
    CriterionResult with this number and title, a skip when the body
    raises BudgetError."""
    def make(body):
        @wraps(body)
        def criterion() -> CriterionResult:
            try:
                status, detail = body()
            except BudgetError as e:
                status, detail = "skip", str(e)
            return CriterionResult(cid, title, status, detail)
        CRITERIA.append((criterion, limit))
        return criterion
    return make


def _census(sp, sets) -> dict[str, int]:
    """Number of sets per classify label, in order of first appearance."""
    return dict(Counter(analysis.classify(sp, w).label for w in sets))


@_criterion(1, "GQ counting identities at q in {2,3}", 5.0)
def criterion_1():
    """Counting identities |P| = (st+1)(s+1), |G| = (st+1)(t+1)."""
    checked = []
    for kind in ("q", "qminus", "h"):
        for q in (2, 3):
            sp = build_polar_space(kind, 2, q)
            s, t = st_params(kind, q)
            if sp.num_points != (s * t + 1) * (s + 1):
                return "fail", f"{sp.name}: {sp.num_points} points"
            if sp.num_generators != (s * t + 1) * (t + 1):
                return "fail", f"{sp.name}: {sp.num_generators} generators"
            checked.append(f"{sp.name}={sp.num_points}/{sp.num_generators}")
    return "pass", "; ".join(checked)


@_criterion(2, "GQ axioms and orders for the five rank-2 families", 30.0)
def criterion_2():
    """GQ axiom suite with the expected orders."""
    expects = []
    for q in (2, 3):
        expects += [
            (("q", 2, q), (q, q)),
            (("qminus", 2, q), (q, q ** 2)),
            (("h", 2, q), (q ** 2, q ** 3)),
            (("qplus3", 2, q), (q, 1)),
            (("h3", 2, q), (q ** 2, q)),
        ]
    got = []
    for (kind, rank, q), want in expects:
        sp = build_polar_space(kind, rank, q)
        res = analysis.check_gq_axioms(range(sp.num_points), sp.gen_points)
        if not res.ok or res.order != want:
            return "fail", (f"{sp.name}: got {res.order} ({res.failure}), "
                            f"want {want}")
        got.append(f"{sp.name}:{res.order}")
    return "pass", "; ".join(got)


@_criterion(3, "Q(4,2)/Q(4,3): minimum = t+1, all minimal minima classified",
            60.0)
def criterion_3():
    """Minimum blocking size is t+1 on Q(4,q) and every minimum minimal
    set is a pencil or a regulus, exhaustively for q = 2, 3."""
    lines = []
    for q in (2, 3):
        sp = build_polar_space("q", 2, q)
        res = search.min_blocking(sp)
        if not res.complete:
            return "fail", f"{sp.name}: search incomplete"
        if res.optimum != sp.t + 1:
            return "fail", f"{sp.name}: optimum {res.optimum} != {sp.t + 1}"
        census = _census(sp, search.minimum_minimal_blocking_sets(sp, res))
        bad = set(census) - theorem_labels("q", 2)
        if bad:
            return "fail", f"{sp.name}: unexpected labels {bad}"
        lines.append(f"{sp.name}: optimum {res.optimum}, census {census}")
    return "pass", "; ".join(lines)


def _threshold_census(kind: str, rank: int, q: int):
    """Every minimal set of the space up to the pencil size plus the
    theorem's delta, classified, where that delta must be 0: none may lie
    below the pencil size, and each label must be one the theorems allow."""
    sp = build_polar_space(kind, rank, q)
    th = analysis.theorem_threshold(kind, q, rank=rank)
    if th.max_delta != 0:
        return "fail", f"threshold admits delta up to {th.max_delta}"
    size = pencil_size(kind, q)
    er = search.enumerate_minimal(sp, size + th.max_delta)
    if not er.complete:
        return "fail", "enumeration incomplete"
    short = [w for w in er.sets if len(w) < size]
    if short:
        return "fail", f"minimal set of size {len(short[0])} below {size}"
    census = _census(sp, er.sets)
    bad = set(census) - theorem_labels(kind, rank)
    if bad:
        return "fail", f"unexpected labels {bad}"
    return "pass", f"{len(er.sets)} minimal sets, census {census}"


@_criterion(4, "Q-(5,2): delta threshold 0, all size-5 minimal sets classified",
            120.0)
def criterion_4():
    """Exhaustive classification of size-(q^2+1) minimal sets on Q-(5,2)."""
    return _threshold_census("qminus", 2, 2)


@_criterion(5, "Q(6,2): all size-3 minimal sets are the two cone examples",
            300.0)
def criterion_5():
    """Exhaustive classification of size-(q+1) minimal sets on Q(6,2)."""
    return _threshold_census("q", 3, 2)


# the catalogue's rows of each kind at rank 3, and the parabolic ones at
# rank 4, all at q = 2
CONE_SPACES = [
    (kind, rank, 2, tuple(r for r, spec in CONE_ROWS.items() if spec.kind == kind))
    for kind, rank in (("q", 3), ("qminus", 3), ("h", 3), ("q", 4))]


# the limit is enforced per space inside
@_criterion(6, "Cone example round-trip at ranks 3 and 4 (q = 2)", None)
def criterion_6():
    """Catalogue round-trip: every cone example classifies as its own row."""
    lines = []
    for kind, rank, q, rows in CONE_SPACES:
        t0 = time.monotonic()
        sp = build_polar_space(kind, rank, q)
        for row in rows:
            bs = _example(kind, rank, q, row)
            if not analysis.is_blocking(sp, bs.members):
                return "fail", f"{sp.name} {row}: not blocking"
            if not analysis.is_minimal(sp, bs.members):
                return "fail", f"{sp.name} {row}: not minimal"
            label = analysis.classify(sp, bs.members).label
            if label != CONE_ROWS[row].label:
                return "fail", f"{sp.name} {row}: classified {label}"
        dt = time.monotonic() - t0
        if dt > 120:
            return "fail", f"{sp.name}: {dt:.0f}s over the 120s budget"
        lines.append(f"{sp.name} ok")
    return "pass", "; ".join(lines)


def _rank2_examples():
    out = []
    for q in (2, 3):
        sp = build_polar_space("q", 2, q)
        out.append((sp, "pencil", constructions.pencil(sp).members))
        out.append((sp, "ruling", constructions.ruling_spread(sp, 0).members))
        se = build_polar_space("qminus", 2, q)
        out.append((se, "pencil", constructions.pencil(se).members))
        out.append((se, "section-cover", constructions.section_cover(se).members))
        sh = build_polar_space("h", 2, q)
        out.append((sh, "pencil", constructions.pencil(sh).members))
    sp = build_polar_space("qplus3", 2, 2)
    out.append((sp, "pencil", constructions.pencil(sp).members))
    sp = build_polar_space("h3", 2, 2)
    out.append((sp, "pencil", constructions.pencil(sp).members))
    return out


@_criterion(7, "Rank-2 coverage identities (constructed + randomized)",
            None)
def criterion_7():
    """Coverage identity battery on constructed rank-2 examples plus 100
    random minimized blocking sets of Q(4,3)."""
    ran = 0
    not_applicable = 0
    for sp, name, members in _rank2_examples():
        rep = analysis.check_coverage_identities(sp, members)
        if not rep.applicable:
            not_applicable += 1
            continue
        if not rep.all_ok:
            bad = [k for k, v in rep.items.items() if not v.ok]
            return "fail", f"{sp.name} {name}: failed {bad}"
        ran += 1
    sp = build_polar_space("q", 2, 3)
    rng = np.random.default_rng(RNG_SEED)
    rand_applicable = 0
    for _ in range(100):
        members = search.greedy_then_minimize(sp, rng)
        rep = analysis.check_coverage_identities(sp, members)
        if not rep.applicable:
            continue
        rand_applicable += 1
        if not rep.all_ok:
            bad = [k for k, v in rep.items.items() if not v.ok]
            return "fail", f"random set {sorted(members)}: failed {bad}"
    return "pass", (f"{ran} constructed examples pass ({not_applicable} not "
                    f"applicable); {rand_applicable}/100 random sets "
                    "applicable, all pass")


@_criterion(8, "Cone covers avoid every hyperplane of their span enough",
            60.0)
def criterion_8():
    """Hyperplane-avoidance counts of the five cone covers."""
    q = 2
    lines = []
    skipped = []
    for row, spec in CONE_ROWS.items():
        try:
            bs = _example(spec.kind, 3, q, row)
        except BudgetError as e:
            skipped.append(f"{row}: {e}")
            continue
        sp = build_polar_space(spec.kind, 3, q)
        got, _ = constructions.min_generators_outside_hyperplanes(sp, bs.members)
        bound = spec.avoidance(q)
        if got < bound:
            return "fail", (f"{sp.name} {row} (base {spec.base_name}): "
                            f"min outside = {got} < {bound}")
        lines.append(f"{row}: {got} >= {bound}")
    detail = "; ".join(lines)
    if skipped:
        return "skip", detail + " | skipped(budget): " + "; ".join(skipped)
    return "pass", detail


@_criterion(9, "Smallest non-trivial plane blocking sets (q = 2, 3)", 60.0)
def criterion_9():
    """Plane blocking-set oracle at q = 2 and q = 3."""
    r2 = search.smallest_nontrivial_pg2(2)
    if r2.exists is not False:
        return "fail", f"q=2: expected none, got {r2}"
    r3 = search.smallest_nontrivial_pg2(3)
    if r3.size != 6 or r3.epsilon != 2:
        return "fail", f"q=3: expected size 6, got {r3.size}"
    return "pass", "q=2: none exists; q=3: size 6 (epsilon 2 = (q+1)/2)"


@_criterion(10, "Hole projections block the quotient (50 holes/space)",
            120.0)
def criterion_10():
    """Projection from sampled holes yields quotient blocking sets."""
    total = 0
    for kind, rank, q, rows in CONE_SPACES:
        sp = build_polar_space(kind, rank, q)
        for row in rows:
            bs = _example(kind, rank, q, row)
            prof = analysis.coverage_profile(sp, bs.members)
            holes = list(prof.holes)
            step = max(1, len(holes) // 50)
            sample = holes[::step][:50]
            for x in sample:
                qspace, proj, _ = analysis.project_blocking_set(sp, bs.members, x)
                if not analysis.is_blocking(qspace, proj):
                    return "fail", f"{sp.name} {row} hole {x}"
                if len(proj) > bs.size:
                    return "fail", f"{sp.name} {row} hole {x}: projection grew"
                total += 1
    return "pass", f"{total} projections verified"


# budgeted internally
@_criterion(11, "H(4,4): pencil verifies; exact search certifies 9", None)
def criterion_11():
    """H(4,4) facts: the pencil verifies, and the exact search, within its
    budget, certifies optimum 9 with the 165 point pencils as its only
    witnesses."""
    sp = build_polar_space("h", 2, 2)
    p = constructions.pencil(sp)
    if p.size != 9:
        return "fail", f"pencil size {p.size} != 9"
    if not analysis.is_blocking(sp, p.members) or not analysis.is_minimal(sp, p.members):
        return "fail", "pencil failed verification"
    res = search.min_blocking(sp, budget_nodes=2_000_000, budget_secs=45)
    if not res.complete:
        return "fail", f"search incomplete after {res.nodes} nodes"
    if res.optimum != 9:
        return "fail", f"complete search reported {res.optimum}"
    pencils = sorted(tuple(sp.generators_through(Subspace(sp.field, sp.n, (pt,))))
                     for pt in sp.points)
    if res.witnesses != pencils:
        return "fail", (f"{len(res.witnesses)} witnesses are not "
                        f"the {len(pencils)} point pencils")
    return "pass", (f"pencil ok; optimum 9 certified in {res.nodes} nodes, "
                    f"witnesses exactly the {len(pencils)} point pencils")


def run_acceptance() -> list[CriterionResult]:
    out = []
    for func, limit in CRITERIA:
        t0 = time.monotonic()
        res = func()
        res.seconds = time.monotonic() - t0
        res.limit = limit
        if limit is not None and res.seconds > limit and res.status == "pass":
            res.status = "fail"
            res.detail += f" | exceeded time limit: {res.seconds:.1f}s > {limit:.0f}s"
        out.append(res)
    return out


def format_table(results: list[CriterionResult]) -> str:
    lines = []
    width = max(len(r.title) for r in results)
    for r in results:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r.status]
        lim = f"/{r.limit:.0f}s" if r.limit else ""
        lines.append(f"[{mark}] {r.cid:>2}. {r.title:<{width}} "
                     f"({r.seconds:.1f}s{lim})")
        lines.append(f"        {r.detail}")
    npass = sum(r.status == "pass" for r in results)
    nfail = sum(r.status == "fail" for r in results)
    nskip = sum(r.status == "skip" for r in results)
    lines.append(f"summary: {npass} pass, {nfail} fail, {nskip} skip")
    return "\n".join(lines)

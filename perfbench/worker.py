"""One benchmark process: set up a workload, run one timed pass over its
fixed problems, check every answer against reference.json, and print the
outcome as one JSON line.

run.py starts a fresh worker for every pass, so each build_ladder pass is
cold.  To debug a workload by hand, from the repository root:

    PYTHONPATH=src python3 perfbench/worker.py --workload search_exact --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from polarblock import analysis, constructions, search, spaces

from tracer import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

SPACES = {
    "q42": ("q", 2, 2),
    "q43": ("q", 2, 3),
    "qm52": ("qminus", 2, 2),
    "qm53": ("qminus", 2, 3),
    "h44": ("h", 2, 2),
    "q62": ("q", 3, 2),
    "qm72": ("qminus", 3, 2),
    "q82": ("q", 4, 2),
}

# Every search call names its node budget and a wall budget that never
# fires, so neither POLARBLOCK_BUDGET_SECS nor machine load changes what a
# pass does.  CERTIFIED_NODES is the library default.
CERTIFIED_NODES = 10 ** 8
NO_WALL_BUDGET = 1e9

# Search problems: (name, search function, space or None, extra kwargs).
# A problem that sets its own budget_nodes is budgeted: stopping on the
# budget is an allowed outcome, reported in uncertified_frac.
FULL = {
    # H(6,4) is left out: its build and pencil take about 70 s, which the
    # benchmark's run-time budget cannot afford per pass (see NOTES.md).
    "ladder": ("q43", "qm53", "h44", "q62", "qm72", "q82"),
    "search": (
        ("minb-q43", "min_blocking", "q43", {}),
        ("minb-qm52", "min_blocking", "qm52", {}),
        ("minb-q62", "min_blocking", "q62", {}),
        ("enum-q43-6", "enumerate_minimal", "q43", {"max_size": 6}),
        ("enum-qm52-6", "enumerate_minimal", "qm52", {"max_size": 6}),
        ("cover-q43", "min_cover_of_space", "q43", {}),
        ("cover-qm52", "min_cover_of_space", "qm52", {}),
        ("mmps-q62", "min_maximal_partial_spread", "q62", {}),
        ("pg2-5", "smallest_nontrivial_pg2", None, {"q": 5}),
        ("minb-h44-2M", "min_blocking", "h44", {"budget_nodes": 2_000_000}),
    ),
    "lists": ("enum-q62-3", "enum-qm52-5", "minb-q43"),
    "random": ("q43", "h44", "qm53", "qm72"),
    "random_per_space": 50,
    "cones_all_holes": (("q62", "conic-pencil"), ("q62", "qplus3-spread"),
                        ("qm72", "elliptic-pencil"), ("qm72", "q4-cover")),
    "cones_sampled": (("q82", "conic-pencil"), ("q82", "qplus3-spread")),
    "holes_per_cone": 50,
}

# Tiny spaces for the self-test; same code paths, a few seconds per run.
SMOKE = {
    "ladder": ("q42", "qm52"),
    "search": (
        ("minb-q42", "min_blocking", "q42", {}),
        ("minb-qm52", "min_blocking", "qm52", {}),
        ("enum-q42-4", "enumerate_minimal", "q42", {"max_size": 4}),
        ("cover-q42", "min_cover_of_space", "q42", {}),
        ("mmps-q42", "min_maximal_partial_spread", "q42", {}),
        ("pg2-3", "smallest_nontrivial_pg2", None, {"q": 3}),
        ("minb-q43-2k", "min_blocking", "q43", {"budget_nodes": 2_000}),
    ),
    "lists": ("enum-qm52-5", "minb-q42"),
    "random": ("q42", "qm52"),
    "random_per_space": 10,
    "cones_all_holes": (("q62", "conic-pencil"),),
    "cones_sampled": (("q62", "qplus3-spread"),),
    "holes_per_cone": 10,
}

# How record_reference.py produced each stored census list.
LISTS = {
    "enum-q62-3": ("q62", "enumerate_minimal", {"max_size": 3}),
    "enum-qm52-5": ("qm52", "enumerate_minimal", {"max_size": 5}),
    "minb-q43": ("q43", "min_blocking", {}),
    "minb-q42": ("q42", "min_blocking", {}),
}

PROJECTIVE = ("rref", "nullspace", "subspace_points", "enumerate_pg_points",
              "canonicalize", "meet", "span")
ANALYSIS = ("classify", "verify_classification", "coverage_profile",
            "check_coverage_identities", "is_minimal", "project_blocking_set",
            "check_gq_axioms")
MiB = 2 ** 20


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def meets_digest(space) -> str:
    width = (space.num_generators + 7) // 8
    h = hashlib.sha256()
    for row in space.meets:
        h.update(row.to_bytes(width, "little"))
    return h.hexdigest()


def ladder_outcome(space, pencil) -> dict:
    return {"points": space.num_points, "generators": space.num_generators,
            "hash": space.content_hash(), "meets": meets_digest(space),
            "pencil": list(pencil.members)}


def search_outcome(res) -> dict:
    if isinstance(res, search.EpsilonResult):
        return {"complete": res.complete, "exists": res.exists, "size": res.size,
                "epsilon": res.epsilon,
                "witness": list(res.witness) if res.witness else None}
    sets = res.sets if isinstance(res, search.EnumerationResult) else res.witnesses
    out = {"complete": res.complete, "count": len(sets),
           "digest": digest(sorted(list(s) for s in sets))}
    if isinstance(res, search.SearchResult):
        out["optimum"] = res.optimum
    return out


def run_search(problem, space_of):
    _, func, key, kw = problem
    args = (space_of[key],) if key else ()
    kwargs = {"budget_nodes": CERTIFIED_NODES, "budget_secs": NO_WALL_BUDGET, **kw}
    return getattr(search, func), args, kwargs


def is_budgeted(problem) -> bool:
    return "budget_nodes" in problem[3]


def verify_battery(space, members):
    """is_blocking, is_minimal, coverage_profile and, on rank 2, the
    coverage identity battery."""
    blocking = analysis.is_blocking(space, members)
    minimal = analysis.is_minimal(space, members)
    analysis.coverage_profile(space, members)
    ident = (analysis.check_coverage_identities(space, members)
             if space.rank == 2 else None)
    return blocking, minimal, ident


class Mismatch(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def expect_equal(got, want) -> None:
    expect(got == want, f"got {str(got)[:200]}, want {str(want)[:200]}")


class Run:
    """Times the benchmark's own steps and counts problems and failures.
    In a traced run every step is also a span named bench.<step>."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.wall = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.nodes: dict[str, int] = {}

    def timed(self, step: str, fn, *args, **kwargs):
        span = self.tracer.open(f"bench.{step}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.wall += dt
            if span is not None:
                self.tracer.close(span)
        return result, dt

    def engine_nodes(self) -> int:
        return self.tracer.counts.get("search.engine", 0) if self.tracer else 0

    @contextmanager
    def problem(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a raise or a wrong answer fails this problem only
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")


# -- build_ladder -------------------------------------------------------------


def setup_build_ladder(spec, seed, ref):
    return None  # every build belongs to the timed pass


def pass_build_ladder(state, spec, ref, run):
    build, pencil_s, meets_mb = {}, 0.0, {}
    for key in spec["ladder"]:
        with run.problem(key):
            space, build[key] = run.timed(f"build.{key}", spaces.build_polar_space,
                                          *SPACES[key])
            run.timed(f"hash.{key}", space.content_hash)
            pencil, dt = run.timed(f"pencil.{key}", constructions.pencil, space)
            pencil_s += dt
            meets_mb[key] = (sys.getsizeof(space.meets)
                             + sum(sys.getsizeof(m) for m in space.meets)) / MiB
            expect_equal(ladder_outcome(space, pencil), ref["ladder"][key])
    metrics = {f"build_{key}_s": dt for key, dt in build.items()}
    metrics["pencil_s"] = pencil_s
    return metrics, {"meets_mb": meets_mb}


# -- search_exact -------------------------------------------------------------


def setup_search_exact(spec, seed, ref):
    keys = {p[2] for p in spec["search"] if p[2]}
    return {k: spaces.build_polar_space(*SPACES[k]) for k in sorted(keys)}


def pass_search_exact(space_of, spec, ref, run):
    certified_s, budgeted_s, uncertified, seconds = 0.0, {}, 0, {}
    for problem in spec["search"]:
        name, key = problem[0], problem[2]
        with run.problem(name):
            fn, args, kwargs = run_search(problem, space_of)
            before = run.engine_nodes()
            res, seconds[name] = run.timed(f"search.{name}", fn, *args, **kwargs)
            run.nodes[name] = run.engine_nodes() - before
            want = ref["search"][name]
            if not is_budgeted(problem):
                certified_s += seconds[name]
                expect_equal(search_outcome(res), want)
                continue
            budgeted_s[f"search_{key}_s"] = seconds[name]
            uncertified += not res.complete
            # a budget stop keeps the pencil bound; a certificate must match it
            bound = want["optimum"]
            expect(res.optimum == bound and len(res.witnesses) >= 1,
                   f"optimum {res.optimum}, {len(res.witnesses)} witnesses; "
                   f"want {bound}")
            for w in res.witnesses:
                expect(len(w) == bound and analysis.is_blocking(space_of[key], w),
                       f"witness {w} is not a blocking set of size {bound}")
    metrics = {"certified_s": certified_s, **budgeted_s,
               "uncertified_frac": uncertified / len(spec["search"])}
    return metrics, {"search_s": seconds, "uncertified": uncertified,
                     "search_problems": len(spec["search"])}


# -- classify_census ----------------------------------------------------------


def setup_classify_census(spec, seed, ref):
    cones = spec["cones_all_holes"] + spec["cones_sampled"]
    keys = ({ref["lists"][n]["space"] for n in spec["lists"]}
            | set(spec["random"]) | {k for k, _ in cones})
    space_of = {k: spaces.build_polar_space(*SPACES[k]) for k in sorted(keys)}
    # (space, members, listed, reference label or None when not minimal)
    sets = []
    for name in spec["lists"]:
        entry = ref["lists"][name]
        for members, label in entry["sets"]:
            sets.append((entry["space"], tuple(members), True, label))
    rng = np.random.default_rng(seed)
    for key in spec["random"]:
        for _ in range(spec["random_per_space"]):
            members = search.greedy_then_minimize(space_of[key], rng)
            sets.append((key, tuple(members), False, None))
    # (space, row, members, hole)
    holes = []
    for key, row in cones:
        members = constructions.cone_example(space_of[key], row).members
        cand = analysis.coverage_profile(space_of[key], members).holes
        if (key, row) in spec["cones_sampled"]:
            pick = rng.choice(len(cand), size=spec["holes_per_cone"], replace=False)
            cand = [cand[i] for i in sorted(pick)]
        holes += [(key, row, members, int(h)) for h in cand]
    return space_of, sets, holes


def pass_classify_census(state, spec, ref, run):
    space_of, sets, holes = state
    verify_s, minimal_sets = 0.0, []
    for key, members, listed, label in sets:
        with run.problem(f"verify {key} {members}"):
            (blocking, minimal, ident), dt = run.timed(
                "verify", verify_battery, space_of[key], members)
            verify_s += dt
            expect(blocking, "input set is not blocking")
            if listed:
                expect_equal(minimal, label is not None)
            if ident is not None and ident.applicable:
                expect(ident.all_ok, f"identity battery failed: {ident.items}")
            if minimal:
                minimal_sets.append((key, members, listed, label))
    classify_ms = []
    for key, members, listed, label in minimal_sets:
        with run.problem(f"classify {key} {members}"):
            cls, dt = run.timed("classify", analysis.classify, space_of[key], members)
            classify_ms.append(dt * 1e3)
            if listed:
                expect_equal(cls.label, label)
    project_ms = []
    for key, row, members, hole in holes:
        with run.problem(f"project {key}/{row} hole {hole}"):
            want = ref["cones"][f"{key}/{row}"]
            expect_equal(list(members), want["members"])
            (qspace, proj, _), dt = run.timed(
                "project", analysis.project_blocking_set, space_of[key], members, hole)
            project_ms.append(dt * 1e3)
            expect_equal(len(proj), want["sizes"][str(hole)])
            expect(analysis.is_blocking(qspace, proj), "projection does not block")
    metrics = {
        "classify_p50_ms": percentile(classify_ms, 50),
        "classify_p99_ms": percentile(classify_ms, 99),
        "project_p50_ms": percentile(project_ms, 50),
        "project_p95_ms": percentile(project_ms, 95),
        "verify_sets_per_s": len(sets) / verify_s if verify_s else 0.0,
    }
    return metrics, {"classify_samples": len(classify_ms),
                     "project_samples": len(project_ms), "verify_sets": len(sets)}


def percentile(values, p):
    return float(np.percentile(values, p)) if values else 0.0


WORKLOADS = {
    "build_ladder": (setup_build_ladder, pass_build_ladder),
    "search_exact": (setup_search_exact, pass_search_exact),
    "classify_census": (setup_classify_census, pass_classify_census),
}


# -- per-layer metrics of a traced pass ---------------------------------------


def layer_metrics(spec, in_pass: dict, in_setup: dict, nodes: dict,
                  meets_mb: dict) -> dict:
    """Per-layer metrics from span summaries {name: (calls, total_s, self_s)}.
    Everything is measured over the pass, except cone_example, which only
    runs during set-up."""
    def calls(name):
        return in_pass.get(name, (0, 0.0, 0.0))[0]

    def secs(name, table=in_pass):
        return table.get(name, (0, 0.0, 0.0))[1]

    m = {}
    for key in spec["ladder"]:
        m[f"spaces.build_s.{key}"] = secs(f"bench.build.{key}")
    for key in spec["ladder"]:
        m[f"spaces.meets_mb.{key}"] = meets_mb.get(key, 0.0)
    for f in ("space_from_form", "hyperplane_section", "generators_through"):
        m[f"spaces.{f}.calls"] = calls(f"spaces.{f}")
        m[f"spaces.{f}.s"] = secs(f"spaces.{f}")
    m["spaces.content_hash.s"] = secs("spaces.content_hash")
    for f in PROJECTIVE:
        m[f"projective.{f}.calls"] = calls(f"projective.{f}")
        m[f"projective.{f}.s"] = secs(f"projective.{f}")
    m["forms.eval_batch.s"] = secs("forms.eval_batch")
    m["forms.polarize_batch.s"] = secs("forms.polarize_batch")
    m["forms.restrict.calls"] = calls("forms.restrict")
    m["forms.perp.calls"] = calls("forms.perp")
    for name, *_ in spec["search"]:
        n, s = nodes.get(name, 0), secs(f"bench.search.{name}")
        m[f"search.nodes.{name}"] = n
        m[f"search.s.{name}"] = s
        m[f"search.nodes_per_s.{name}"] = n / s if s else 0.0
    for f in ANALYSIS:
        m[f"analysis.{f}.calls"] = calls(f"analysis.{f}")
        m[f"analysis.{f}.s"] = secs(f"analysis.{f}")
    for key in spec["ladder"]:
        m[f"constructions.pencil_s.{key}"] = secs(f"bench.pencil.{key}")
    m["constructions.cone_example.s"] = secs("constructions.cone_example", in_setup)
    return m


def layer_metric_names(spec) -> list[str]:
    return list(layer_metrics(spec, {}, {}, {}, {})) + ["trace.overhead_frac"]


# -- process entry ------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", help="traced run: write the spans to this .npz")
    args = ap.parse_args(argv)
    spec = SMOKE if args.smoke else FULL
    ref = json.loads(REFERENCE.read_text())
    setup, run_pass = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        span = tracer.open("bench.setup")
    state = setup(spec, args.seed, ref)
    if tracer:
        tracer.close(span)
        setup_end = len(tracer.nid)
    ready_at = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    run = Run(tracer)
    if tracer:
        span = tracer.open("bench.pass")
    metrics, detail = run_pass(state, spec, ref, run)
    if tracer:
        tracer.close(span)
    out = {
        "ready_at": ready_at,
        "wall_s": run.wall,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "metrics": metrics,
        "detail": detail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MiB,
    }
    if tracer:
        out["layers"] = layer_metrics(
            spec, tracer.summary(setup_end), tracer.summary(0, setup_end),
            run.nodes, detail.get("meets_mb", {}))
        if args.spans:
            tracer.save(args.spans, setup_end=setup_end)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

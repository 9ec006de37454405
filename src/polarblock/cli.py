"""Command-line front end.

Subcommands: space stats, construct, verify, classify, search
(min-blocking, enumerate-minimal, min-cover, min-maximal-spread),
thresholds, accept.  JSON is the persistence format; text reports are
derived views.  Blocking-set files reference their space by (kind, rank,
q) plus content hash and the space is rebuilt on demand; `space stats`
prints that hash with the counts.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 usage
error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis, constructions, search
from .acceptance import format_table, run_acceptance
from .projective import canonicalize
from .spaces import BudgetError, BuildError, build_polar_space

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CONE_EXAMPLES = {f"cone:{row}" for _, row in constructions.CONE_ROWS}
EXAMPLES = {"pencil", "ruling", "section-cover"} | CONE_EXAMPLES


def _add_space_args(p):
    p.add_argument("--kind", required=True,
                   choices=["q", "qminus", "h", "qplus3", "h3"],
                   help="space family (q: Q(2n,q); qminus: Q-(2n+1,q); "
                        "h: H(2n,q^2); sections qplus3/h3)")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--q", type=int, required=True,
                   help="base parameter q (hermitian spaces live over GF(q^2))")


def _emit(args, payload, text):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _build(args):
    return build_polar_space(args.kind, args.rank, args.q)


def _parse_vertex(space, text: str):
    rows = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            rows.append([int(x) for x in part.split(",")])
    order = space.field.q
    for row in rows:
        for x in row:
            if not 0 <= x < order:
                raise ValueError(f"--seed-vertex entry {x} is not an element "
                                 f"of GF({order}): expected 0..{order - 1}")
    return canonicalize(space.field, space.n, rows)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_set(path: str):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    ref = data.get("space") if isinstance(data, dict) else None
    if not (isinstance(ref, dict) and isinstance(ref.get("kind"), str)
            and _is_int(ref.get("rank")) and _is_int(ref.get("q"))
            and isinstance(ref.get("hash") or "", str)):
        raise ValueError(f"{path}: expected a 'space' object with a string "
                         "'kind' and integer 'rank' and 'q'")
    if not (isinstance(data.get("members"), list)
            and all(_is_int(m) for m in data["members"])):
        raise ValueError(f"{path}: expected 'members' as a list of integers")
    space = build_polar_space(ref["kind"], ref["rank"], ref["q"])
    if ref.get("hash") and ref["hash"] != space.content_hash():
        raise ValueError(
            f"space hash mismatch: file {ref['hash'][:12]}..., "
            f"rebuilt {space.content_hash()[:12]}...")
    members = analysis.validate_members(space, data["members"])
    return space, members


def cmd_space(args):
    stats = _build(args).stats()
    text = "\n".join(f"{k}: {v}" for k, v in stats.items())
    _emit(args, stats, text)
    return EXIT_OK


def cmd_construct(args):
    space = _build(args)
    vertex = _parse_vertex(space, args.seed_vertex) if args.seed_vertex else None
    name = args.example
    if name == "pencil":
        bs = constructions.pencil(space, vertex)
    elif name == "ruling":
        if space.kind == "qplus3":
            bs = constructions.ruling_spread(space, args.which)
        else:
            sec = constructions.hyperbolic_section(space)
            bs = constructions.ruling_spread(space, args.which,
                                             lines=sec.gen_indices)
    elif name == "section-cover":
        bs = constructions.section_cover(space)
    elif name in CONE_EXAMPLES:
        bs = constructions.cone_example(space, name.split(":", 1)[1], vertex)
    else:
        print(f"unknown example {name!r}", file=sys.stderr)
        return EXIT_USAGE
    payload = bs.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        print(f"wrote {name} ({bs.size} generators) on {space.name} to {args.out}")
    else:
        print(json.dumps(payload))
    return EXIT_OK


def cmd_verify(args):
    space, members = _load_set(args.set)
    blocking = analysis.is_blocking(space, members)
    essential = analysis.essential_members(space, members)
    minimal = len(essential) == len(members)
    prof = analysis.coverage_profile(space, members)
    report = {
        "space": space.name,
        "size": len(members),
        "delta": analysis.delta_of(space, len(members)),
        "blocking": blocking,
        "minimal": minimal,
        "essential": list(essential),
        "partial_spread": analysis.is_partial_spread(space, members),
        "maximal_partial_spread": analysis.is_maximal_partial_spread(space, members),
        "covered_points": prof.num_covered,
        "excess_W": prof.W,
        "holes": len(prof.holes),
    }
    identities = analysis.check_coverage_identities(space, members)
    report["identities"] = {
        "applicable": identities.applicable,
        "reason": identities.reason,
        "items": {k: {"ok": v.ok, "detail": v.detail}
                  for k, v in identities.items.items()},
    }
    text_lines = [f"{k}: {v}" for k, v in report.items() if k != "identities"]
    if identities.applicable:
        for k, v in identities.items.items():
            text_lines.append(f"identity {k}: {'ok' if v.ok else 'FAIL ' + v.detail}")
    else:
        text_lines.append(f"identities: not applicable ({identities.reason})")
    _emit(args, report, "\n".join(text_lines))
    ok = blocking and (identities.all_ok or not identities.applicable)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_classify(args):
    space, members = _load_set(args.set)
    if not analysis.is_blocking(space, members):
        print("set is not blocking; nothing to classify", file=sys.stderr)
        return EXIT_CHECK_FAILED
    stripped = members
    if not analysis.is_minimal(space, members) and args.minimize:
        stripped = analysis.minimize_blocking_set(space, members)
    if not analysis.is_minimal(space, stripped):
        print("set is not minimal (re-run with --minimize to strip it)",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    cls = analysis.classify(space, stripped)
    payload = cls.to_json()
    payload["members"] = list(stripped)
    text = f"label: {cls.label}"
    if cls.vertex is not None:
        text += f"\nvertex: {cls.vertex.to_json()}"
    if stripped != members:
        text += f"\nminimized from {len(members)} to {len(stripped)} members"
    _emit(args, payload, text)
    return EXIT_OK


def cmd_search(args):
    space = _build(args)
    kw = dict(budget_nodes=args.budget_nodes, budget_secs=args.budget_secs)
    if args.search_cmd == "min-blocking":
        res = search.min_blocking(space, args.bound, **kw)
    elif args.search_cmd == "min-cover":
        res = search.min_cover_of_space(space, upper_bound=args.bound, **kw)
    elif args.search_cmd == "min-maximal-spread":
        res = search.min_maximal_partial_spread(space, args.bound, **kw)
    else:  # enumerate-minimal
        if args.bound is None:
            print("enumerate-minimal requires --bound", file=sys.stderr)
            return EXIT_USAGE
        er = search.enumerate_minimal(space, args.bound, **kw)
        payload = {"space": space.name, "max_size": args.bound,
                   "count": len(er.sets), "complete": er.complete,
                   "nodes": er.nodes, "seconds": er.seconds,
                   "sets": [list(w) for w in er.sets]}
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        _emit(args, payload,
              f"{space.name}: {len(er.sets)} minimal blocking sets of size <= "
              f"{args.bound} (complete: {er.complete}, {er.nodes} nodes)")
        return EXIT_OK if er.complete else EXIT_BUDGET
    payload = res.to_json()
    payload["space"] = space.name
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    _emit(args, payload,
          f"{space.name} {args.search_cmd}: optimum {res.optimum} "
          f"({len(res.witnesses)} witnesses, complete: {res.complete}, "
          f"{res.nodes} nodes, {res.seconds:.2f}s)")
    return EXIT_OK if res.complete else EXIT_BUDGET


def cmd_thresholds(args):
    q = args.q
    eps = search.smallest_nontrivial_pg2(q) if q <= 9 else None
    # the oracle's answer feeds the threshold, so it runs once
    epsilon = "auto" if eps is None else (eps.epsilon if eps.exists else None)
    payload = {"q": q}
    for kind in ("qminus", "h", "q"):
        th = analysis.theorem_threshold(kind, q, epsilon=epsilon)
        payload[kind] = {
            "description": th.description,
            "max_delta": th.max_delta,
            "value": th.value,
        }
    if eps is not None:
        payload["epsilon"] = {
            "exists": eps.exists, "size": eps.size, "epsilon": eps.epsilon,
            "source": eps.source,
        }
    else:  # th is the "q" threshold, with the prime-formula epsilon
        payload["epsilon"] = {"exists": th.epsilon_exists, "epsilon": th.epsilon,
                              "source": th.epsilon_source}
    text = [f"q = {q}"]
    for kind in ("qminus", "h", "q"):
        d = payload[kind]
        text.append(f"{kind}: {d['description']}; admissible delta up to "
                    f"{d['max_delta']}")
    e = payload["epsilon"]
    text.append(f"epsilon: {e}")
    _emit(args, payload, "\n".join(text))
    return EXIT_OK


def cmd_accept(args):
    results = run_acceptance()
    table = format_table(results)
    if getattr(args, "format", "text") == "json":
        print(json.dumps([r.__dict__ for r in results], indent=2))
    else:
        print(table)
    if any(r.status == "fail" for r in results):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _budget_nodes(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return n


def _budget_secs(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not 0 <= x < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative number of seconds, got {text!r}")
    return x


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line and exits 2; subcommand
    parsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="polarblock",
        description="finite classical polar spaces and generator blocking sets")
    ap.add_argument("--format", choices=["json", "text"], default="text")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("space", help="inspect a polar space")
    spsub = sp.add_subparsers(dest="space_cmd", required=True)
    p = spsub.add_parser("stats")
    _add_space_args(p)
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("construct", help="build a catalogue blocking set")
    _add_space_args(p)
    p.add_argument("--example", required=True,
                   help="pencil | ruling | section-cover | cone:<row> with row "
                        "in conic-pencil, qplus3-spread, elliptic-pencil, "
                        "q4-cover, hermitian-pencil")
    p.add_argument("--seed-vertex",
                   help="vertex rows, e.g. '0,0,1,0,0;0,0,0,1,0'")
    p.add_argument("--which", type=int, default=0, choices=[0, 1],
                   help="ruling selector")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a blocking-set file")
    p.add_argument("--set", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="classify a minimal blocking set")
    p.add_argument("--set", required=True)
    p.add_argument("--minimize", action="store_true",
                   help="strip removable members before classifying")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("search", help="exact searches")
    p.add_argument("search_cmd",
                   choices=["min-blocking", "enumerate-minimal", "min-cover",
                            "min-maximal-spread"])
    _add_space_args(p)
    p.add_argument("--bound", type=int)
    p.add_argument("--budget-nodes", type=_budget_nodes,
                   default=search.DEFAULT_BUDGET_NODES)
    p.add_argument("--budget-secs", type=_budget_secs, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("thresholds", help="classification delta-thresholds")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.set_defaults(func=cmd_accept)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (BuildError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except AssertionError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

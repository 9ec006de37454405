"""Record perfbench/reference.json from the library as it stands.

The reference holds, for the full and the smoke specs: each ladder space's
counts, content hash, meets digest and pencil; each certified search
problem's optimum, witness count and witness digest (node counts are left
out on purpose); the stored census lists with the label of every minimal
set; and the projected size from every hole of every cone example.  Run it
only on a commit whose answers are trusted, from the repository root:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

from polarblock import analysis, constructions, search, spaces

import worker as w


def main() -> int:
    specs = (w.FULL, w.SMOKE)
    build = {}

    def space(key):
        if key not in build:
            build[key] = spaces.build_polar_space(*w.SPACES[key])
        return build[key]

    ref = {"ladder": {}, "search": {}, "lists": {}, "cones": {}}
    for key in sorted({k for s in specs for k in s["ladder"]}):
        ref["ladder"][key] = w.ladder_outcome(space(key), constructions.pencil(space(key)))
        print("ladder", key, file=sys.stderr, flush=True)

    for problem in {p[0]: p for s in specs for p in s["search"]}.values():
        fn, args, kwargs = w.run_search(problem, {k: space(k) for k in w.SPACES})
        res = fn(*args, **kwargs)
        if w.is_budgeted(problem):
            ref["search"][problem[0]] = {"optimum": res.optimum}
        else:
            ref["search"][problem[0]] = w.search_outcome(res)
        print("search", problem[0], file=sys.stderr, flush=True)

    for name in sorted({n for s in specs for n in s["lists"]}):
        key, func, kw = w.LISTS[name]
        res = getattr(search, func)(space(key), budget_nodes=w.CERTIFIED_NODES,
                                    budget_secs=w.NO_WALL_BUDGET, **kw)
        sets = res.sets if isinstance(res, search.EnumerationResult) else res.witnesses
        if not res.complete:
            raise SystemExit(f"{name}: search incomplete, nothing recorded")
        rows = []
        for members in sets:
            label = (analysis.classify(space(key), members).label
                     if analysis.is_minimal(space(key), members) else None)
            rows.append([list(members), label])
        ref["lists"][name] = {"space": key, "sets": rows}
        print("list", name, len(rows), file=sys.stderr, flush=True)

    cones = {c for s in specs for c in s["cones_all_holes"] + s["cones_sampled"]}
    for key, row in sorted(cones):
        members = constructions.cone_example(space(key), row).members
        holes = analysis.coverage_profile(space(key), members).holes
        sizes = {str(h): len(analysis.project_blocking_set(space(key), members, h)[1])
                 for h in holes}
        ref["cones"][f"{key}/{row}"] = {"members": list(members), "sizes": sizes}
        print("cone", key, row, len(holes), file=sys.stderr, flush=True)

    with open(w.REFERENCE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

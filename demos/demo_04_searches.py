#!/usr/bin/env python3
"""Exact searches: minimum covers, maximal partial spreads, budgets.

One deterministic branch-and-bound engine answers all of these; node
counts and witness order reproduce across runs, and budget exhaustion is
an explicit flag, never a silent truncation.
"""

from polarblock import (
    build_polar_space, is_maximal_partial_spread, is_spread, min_blocking,
    min_cover_of_space, min_maximal_partial_spread, spread_size_gate,
)

print("== minimum covers ==")
for kind, rank, q in [("qplus3", 2, 2), ("q", 2, 2), ("q", 2, 3)]:
    sp = build_polar_space(kind, rank, q)
    res = min_cover_of_space(sp)
    spread = all(is_spread(sp, w) for w in res.witnesses)
    print(f"{sp.name}: minimum cover {res.optimum} "
          f"({len(res.witnesses)} witnesses, all spreads: {spread})")

print("\n== smallest maximal partial spreads ==")
for kind, rank, q in [("qplus3", 2, 2), ("q", 2, 2), ("q", 2, 3),
                      ("qminus", 2, 2), ("q", 3, 2)]:
    sp = build_polar_space(kind, rank, q)
    res = min_maximal_partial_spread(sp)
    ok = all(is_maximal_partial_spread(sp, w) for w in res.witnesses[:5])
    print(f"{sp.name}: smallest maximal partial spread {res.optimum} "
          f"({len(res.witnesses)} witnesses, verified: {ok})")
gate = spread_size_gate("q", 2)
print(f"the rank-3 classification forces maximal partial spreads of Q(6,2) "
      f"to have size >= {gate}; the exact minimum above is 5")

print("\n== determinism ==")
sp = build_polar_space("q", 2, 3)
a = min_blocking(sp)
b = min_blocking(sp)
print(f"two runs on {sp.name}: identical witnesses: "
      f"{a.witnesses == b.witnesses}, identical node counts: "
      f"{a.nodes == b.nodes} ({a.nodes} nodes)")

print("\n== explicit budgets ==")
sp = build_polar_space("h", 2, 2)
res = min_blocking(sp, budget_nodes=300)
print(f"H(4,4) with a 300-node budget: complete={res.complete}, upper bound "
      f"{res.optimum} from the {len(res.witnesses)} witnesses through "
      f"generator 0 found in {res.nodes} nodes")
res = min_blocking(sp)
print(f"H(4,4) unbudgeted: complete={res.complete}, optimum {res.optimum}, "
      f"{len(res.witnesses)} witnesses (the point pencils) in {res.nodes} "
      f"nodes")

#!/usr/bin/env python3
"""Coverage diagnostics: weights, excess, line histograms, projections.

For a blocking set L the coverage profile tracks w(P) (how many members
pass through each covered point), the excess W = sum of (w(P)-1) and the
holes.  On a rank-2 space with delta < s-1 the identity battery counts
each line not in L once, for the members it meets and the covered points
on it: the histograms b_i and b~_i of those counts, and the lines through
each hole, satisfy a battery of identities, returned as a reusable report
that carries b and b~.
"""

import numpy as np

from polarblock import (
    build_polar_space, check_coverage_identities, coverage_profile,
    greedy_then_minimize, pencil, project_blocking_set, is_blocking,
)

print("== profile of a pencil on Q-(5,2) ==")
sp = build_polar_space("qminus", 2, 2)
p = pencil(sp)
prof = coverage_profile(sp, p.members)
print(f"|L| = {p.size}, covered points |M| = {prof.num_covered} "
      f"= |L|(s+1) - W with W = {prof.W}; holes: {len(prof.holes)}")

print("\n== the identity battery ==")
rep = check_coverage_identities(sp, p.members)
print(f"b histogram (lines not in L by members met): {dict(sorted(rep.b.items()))}")
print(f"b~ histogram (lines not in L by covered points): "
      f"{dict(sorted(rep.b_tilde.items()))}")
for name, item in rep.items.items():
    print(f"{name:18s} {'ok' if item.ok else 'FAIL: ' + item.detail}")

print("\n== random minimized blocking sets of Q(4,3) ==")
sp3 = build_polar_space("q", 2, 3)
rng = np.random.default_rng(7)
applicable = 0
for _ in range(25):
    members = greedy_then_minimize(sp3, rng)
    rep = check_coverage_identities(sp3, members)
    if rep.applicable:
        applicable += 1
        assert rep.all_ok
print(f"25 random sets, {applicable} within the delta < s-1 regime, "
      "every applicable check passed")

print("\n== projecting a blocking set from a hole ==")
s6 = build_polar_space("q", 3, 2)
from polarblock import cone_example

bs = cone_example(s6, "qplus3-spread")
prof = coverage_profile(s6, bs.members)
hole = prof.holes[0]
quot, projected, _ = project_blocking_set(s6, bs.members, hole)
print(f"{s6.name} example of size {bs.size}, hole {hole}: projects to a "
      f"blocking set of {quot.name} with {len(projected)} lines "
      f"(blocks: {is_blocking(quot, projected)})")

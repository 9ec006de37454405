#!/usr/bin/env python3
"""Build the small classical polar spaces and inspect their combinatorics.

Every space is enumerated exactly over its finite field: singular points
in lexicographic order, generators as canonical row-echelon bases, and
the full generator-meets-generator relation.  The rank-2 spaces are
generalized quadrangles; their point and line counts follow the order
formulas (st+1)(s+1) and (st+1)(t+1).
"""

from polarblock import build_polar_space, check_gq_axioms, enumerate_hyperplanes, hyperplane_section

print("== polar spaces at small q ==")
for kind, rank, q in [("q", 2, 2), ("q", 2, 3), ("qminus", 2, 2),
                      ("qminus", 2, 3), ("h", 2, 2), ("qplus3", 2, 2),
                      ("h3", 2, 2), ("q", 3, 2), ("qminus", 3, 2)]:
    sp = build_polar_space(kind, rank, q)
    order = f", order (s,t) = ({sp.s},{sp.t})" if sp.rank == 2 else ""
    print(f"{sp.name:10s} ambient PG({sp.n},{sp.field.q}): "
          f"{sp.num_points:4d} points, {sp.num_generators:4d} generators{order}")

print("\n== generalized quadrangle axioms ==")
for kind, q in [("q", 2), ("qminus", 2), ("h", 2), ("qplus3", 2), ("h3", 2)]:
    sp = build_polar_space(kind, 2, q)
    res = check_gq_axioms(range(sp.num_points), sp.gen_points)
    print(f"{sp.name:10s} axioms hold, order {res.order}")

print("\n== hyperplane sections of Q-(5,2) ==")
sp = build_polar_space("qminus", 2, 2)
census = {}
for h in enumerate_hyperplanes(sp):
    sec = hyperplane_section(sp, h)
    census[sec.label] = census.get(sec.label, 0) + 1
for label, n in sorted(census.items()):
    print(f"{n:3d} sections of type {label}")
print("(the nondegenerate ones are the parabolic subquadrangles; the "
      "tangent ones are cones over the point's quotient)")

print("\n== quotient geometry ==")
s7 = build_polar_space("qminus", 3, 2)
quot = s7.quotient_map(0).quotient
print(f"{s7.name} projected from a point gives {quot.name}: "
      f"{quot.num_points} points, {quot.num_generators} lines")

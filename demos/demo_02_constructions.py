#!/usr/bin/env python3
"""The catalogue of small generator blocking sets, built and verified.

Pencils (all generators through a codimension-1 subspace of a generator),
rulings of embedded hyperbolic grids, exact minimum covers of parabolic
hyperplane sections, and the higher-rank cone examples that join a
totally singular vertex to one of those rank-2 bases.
"""

from polarblock import (
    build_polar_space, classify, coverage_profile, is_blocking, is_minimal,
    is_partial_spread, pencil, ruling_spread, section_cover, cone_example,
    hyperbolic_section,
)

print("== pencils ==")
for kind, rank, q in [("q", 2, 2), ("qminus", 2, 2), ("h", 2, 2),
                      ("q", 3, 2), ("qminus", 3, 2)]:
    sp = build_polar_space(kind, rank, q)
    p = pencil(sp)
    print(f"{sp.name:9s} pencil of {p.size} generators: "
          f"blocking={is_blocking(sp, p.members)}, "
          f"minimal={is_minimal(sp, p.members)}")

print("\n== a grid ruling inside Q(4,2) ==")
sp = build_polar_space("q", 2, 2)
sec = hyperbolic_section(sp)
ruling = ruling_spread(sp, 0)
print(f"section {sec.label} has lines {sec.gen_indices}")
print(f"one ruling: {ruling.members} -> {classify(sp, ruling.members).label}")

print("\n== minimum cover of a Q(4,q) section of Q-(5,q) ==")
for q in (2, 3):
    se = build_polar_space("qminus", 2, q)
    cov = section_cover(se)
    prof = coverage_profile(se, cov.members)
    kind = "a spread of the section" if is_partial_spread(se, cov.members) \
        else "a proper cover (odd q has no spread)"
    print(f"{se.name}: cover of size {cov.size}, {kind}; "
          f"W={prof.W}, holes in the ambient: {len(prof.holes)}")

print("\n== cone examples in rank 3 ==")
for kind, rows in [("q", ("conic-pencil", "qplus3-spread")),
                   ("qminus", ("elliptic-pencil", "q4-cover"))]:
    sp = build_polar_space(kind, 3, 2)
    for row in rows:
        bs = cone_example(sp, row)
        print(f"{sp.name} {row:15s}: {bs.size} generators, "
              f"classified {classify(sp, bs.members).label}")

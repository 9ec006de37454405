#!/usr/bin/env python3
"""Delta-thresholds and the plane blocking-set oracle.

The classification statements hold for blocking sets whose excess delta
over the pencil size stays under a kind-specific bound; the parabolic
bound involves epsilon, the excess of the smallest non-trivial blocking
set of PG(2,q), which an exact search supplies for q <= 9: it decides
each size on the line-free sets through one fixed triangle.
"""

from polarblock import smallest_nontrivial_pg2, spread_size_gate, theorem_threshold

print("== elliptic threshold (3q - sqrt(5q^2+2q+1))/2 ==")
for q in (2, 3, 4, 5, 7):
    th = theorem_threshold("qminus", q)
    print(f"q={q}: bound {th.value:.4f}, admissible delta in "
          f"{list(range(th.max_delta + 1))}")

print("\n== hermitian threshold delta < q-3 ==")
for q in (2, 3, 4, 5, 7):
    th = theorem_threshold("h", q)
    label = "no admissible delta (no claim)" if th.max_delta < 0 else \
        f"admissible delta in {list(range(th.max_delta + 1))}"
    print(f"q={q}: {label}")

print("\n== plane blocking-set oracle ==")
for q in (2, 3, 4, 5, 7, 8, 9):
    r = smallest_nontrivial_pg2(q)
    if r.exists:
        print(f"q={q}: smallest line-free blocking set has size {r.size} "
              f"(epsilon {r.epsilon}), witness points {r.witness}")
    else:
        print(f"q={q}: every blocking set of PG(2,{q}) contains a line")

print("\n== parabolic threshold delta < min((q-1)/2, epsilon) ==")
for q in (2, 3):
    th = theorem_threshold("q", q, rank=3)
    eps = "does not exist" if th.plane.exists is False else th.plane.epsilon
    print(f"q={q}: admissible delta up to {th.max_delta} (epsilon {eps})")
    print(f"      so maximal partial spreads in rank >= 3 have size >= "
          f"{spread_size_gate('q', q)}")

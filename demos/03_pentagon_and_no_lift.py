#!/usr/bin/env python3
"""From a 2-Segal set to a pseudomonoid of spans, and a family of monoids
in the homotopy category that refuse to lift.

    python3 demos/03_pentagon_and_no_lift.py
"""

from finspan import catalog
from finspan.catalog import no_lift_canonical_associator, no_lift_family
from finspan.pseudomonoid import (
    build_pseudomonoid,
    pentagon_flip_discrepancy,
    search_associator_lift,
    taco_spaces,
    verify_pentagon,
    verify_triangle,
)

print("== the pseudomonoid of a 2-Segal set ==")
X = catalog.nerve(catalog.cyclic_group_category(3), 4)
P = build_pseudomonoid(X)
print(f"carrier size {P.carrier.size}, multiplication apex {P.mult.apex.size}, "
      f"unit apex {P.unit.apex.size}")
print("pentagon equation:", bool(verify_pentagon(P)))
print("triangle equation:", bool(verify_triangle(P)))

print()
print("== 2-truncated data only: taco spaces and associators ==")
T = no_lift_family(2)
left, right = taco_spaces(T)
print(f"the two taco spans have apex sizes {left.apex.size} and {right.apex.size}")

print()
print("== the canonical associator fails the pentagon when |A| = 2 ==")
canon = no_lift_canonical_associator(T)
disc = pentagon_flip_discrepancy(T, canon)
moved = {k: v for k, v in disc.items() if k != v}
lab = T.levels[2].labels
for k, v in sorted(moved.items()):
    print("  ", tuple(lab[c] for c in k), "->", tuple(lab[c] for c in v))
print("the discrepancy swaps the two labels around the middle unit triangle")

print()
print("== pruned exhaustive search over fiber-preserving associators ==")
for a in range(6):
    res = search_associator_lift(no_lift_family(a))
    print(f"|A| = {a}: {res.status} "
          f"({res.candidates_tried} of {res.candidates_total} candidates, "
          f"{res.nodes} search nodes)")
print("only the empty and singleton label sets admit a lift")

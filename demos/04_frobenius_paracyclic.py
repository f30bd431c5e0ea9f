#!/usr/bin/env python3
"""Translations against counits: the Frobenius side of the story.

    python3 demos/04_frobenius_paracyclic.py
"""

from finspan import catalog
from finspan.paracyclic import (
    check_cyclic,
    check_paracyclic,
    evaluate,
    frobenius_from_paracyclic,
    frobenius_witnesses,
    lambda_factorize,
    lambda_t,
    LambdaMor,
    paracyclic_from_frobenius,
)

print("== the paracyclic operator category ==")
f = LambdaMor(2, 2, (-1, 1, 2))
g, a = lambda_factorize(f)
print(f"the equivariant map with values {f.values} factors as a simplex map "
      f"{g.values} after {-a} translation steps")

print("== a cyclic structure on the interval monoid ==")
P = catalog.interval_cyclic(3, 4)
print("relations hold:", check_paracyclic(P).ok)
print("tau on 1-simplices (complement to 3):", P.tau[1].table)
print("verdict:", check_cyclic(P).verdict)

print()
print("== evaluating arbitrary operators through the factorization ==")
t = lambda_t(2)
print("the translation acts as tau:", evaluate(P, t).table == P.tau[2].table)

print()
print("== translations give a counit; the counit gives back translations ==")
C = frobenius_from_paracyclic(P)
print("counit left leg picks the top element:", C.s1_0.table)
P2 = paracyclic_from_frobenius(P.base, C.counit)
print("round trip reproduces every translation exactly:",
      all(x.table == y.table for x, y in zip(P.tau, P2.tau)))

print()
print("== copairing and snake witnesses ==")
w = frobenius_witnesses(C)
print("copairing graph:", w.beta.right.table)
print("snake coherences hold:", w.report.ok)

print()
print("== a paracyclic-only example: twisting by inversion ==")
Q = catalog.twisted_cyclic_paracyclic(catalog.cyclic_group_category(3), catalog.inversion_twist(3), 4)
print("relations hold:", check_paracyclic(Q).ok)
print("verdict:", check_cyclic(Q).verdict)

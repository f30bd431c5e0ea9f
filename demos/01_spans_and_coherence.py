#!/usr/bin/env python3
"""Spans of finite sets: composition by pullback, 2-cells, and the
coherence cells of the monoidal structure.

    python3 demos/01_spans_and_coherence.py
"""

from finspan.diagrams import syllepsis_cell, tensorator_cell
from finspan.spans import (
    FinMap,
    FinSet,
    Span,
    braiding_span,
    compose_spans,
    identity_span,
    pullback,
    spans_isomorphic,
)

print("== pullbacks ==")
Y = FinSet(2, labels=("y0", "y1"))
A = FinSet(3, labels=("a0", "a1", "a2"))
B = FinSet(2, labels=("b0", "b1"))
f = FinMap(A, Y, (0, 0, 1))
g = FinMap(B, Y, (0, 1))
apex, p1, p2 = pullback(f, g)
print(f"f matches a0,a1 -> y0 and a2 -> y1; g matches b0 -> y0, b1 -> y1")
print(f"the pullback has {apex.size} elements:",
      [(A.label(p1.table[i]), B.label(p2.table[i])) for i in apex])

print()
print("== composition of spans ==")
left = Span(FinSet(2), FinSet(1), FinSet(2), FinMap(FinSet(2), FinSet(2), (0, 1)),
            FinMap(FinSet(2), FinSet(1), (0, 0)))
right = Span(FinSet(1), FinSet(3), FinSet(3), FinMap(FinSet(3), FinSet(1), (0, 0, 0)),
             FinMap(FinSet(3), FinSet(3), (0, 1, 2)))
composite = compose_spans(left, right)
print(f"composing apexes of sizes 2 and 3 over a point gives size {composite.apex.size}")

print()
print("== deciding isomorphism of spans ==")
s = Span(FinSet(2), FinSet(2), FinSet(3),
         FinMap(FinSet(3), FinSet(2), (0, 0, 1)),
         FinMap(FinSet(3), FinSet(2), (1, 0, 1)))
t = Span(FinSet(2), FinSet(2), FinSet(3),
         FinMap(FinSet(3), FinSet(2), (0, 1, 0)),
         FinMap(FinSet(3), FinSet(2), (0, 1, 1)))
cell = spans_isomorphic(s, t)
print("s and t are isomorphic:", cell is not None)
print("the witnessing bijection on apexes:", cell.map.table)

print()
print("== the braiding squares to the identity, witnessed by the syllepsis ==")
X, Z = FinSet(2), FinSet(3)
rho = braiding_span(X, Z)
rho_back = braiding_span(Z, X)
double = compose_spans(rho, rho_back)
v = syllepsis_cell(X, Z)
print("double braiding apex size:", double.apex.size)
print("syllepsis maps it to the identity span:", v.target == identity_span(FinSet(6)))

print()
print("== the tensorator: sliding boxes past one another ==")
c = tensorator_cell(s, t)
print("both composites canonically identify with the product of apexes:",
      c.source.apex.size == s.apex.size * t.apex.size)
print("and the slide cell is invertible:", c.is_invertible())

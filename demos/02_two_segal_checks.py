#!/usr/bin/env python3
"""Truncated simplicial sets and the polygon checkers: triangulations,
the 2-Segal bijections, unitality, and the graphical calculus.

    python3 demos/02_two_segal_checks.py
"""

from finspan import catalog
from finspan.acceptance import catalog_non_two_segal
from finspan.simplicial import (
    Triangulation,
    check_2segal,
    check_simplicial_identities,
    check_subdivision_criterion,
    check_unitality,
    degen_via_polygon,
    enumerate_triangulations,
    face_via_polygon,
    glue,
    unglue,
)

print("== triangulations of small polygons ==")
for n in (2, 3, 4, 5):
    print(f"the {n + 1}-gon has {len(enumerate_triangulations(n))} triangulations")

print()
print("== the catalog passes every checker ==")
fixtures = {
    "nerve of Z3": catalog.nerve(catalog.cyclic_group_category(3), 4),
    "interval partial monoid L=3": catalog.partial_monoid_nerve(catalog.interval_monoid(3), 4),
    "building of the 3-chain": catalog.building(3, 4),
    "graph partitions of P3": catalog.graph_partition_gamma(catalog.path_graph(3), 4).base,
}
for name, X in fixtures.items():
    ids = check_simplicial_identities(X).ok
    seg = check_2segal(X).ok
    uni = check_unitality(X).ok
    sizes = [l.size for l in X.levels]
    print(f"{name}: levels {sizes}, identities={ids}, 2-Segal={seg}, unitality={uni}")

print()
print("== a fixture that fails: one doubled 3-simplex ==")
bad = catalog_non_two_segal()
rep = check_2segal(bad)
print("still a simplicial set:", check_simplicial_identities(bad).ok)
first = rep.failures[0]
print(f"but {first.name} fails with witness {first.witness}")

print()
print("== subdivisions refine the same story ==")
X = fixtures["nerve of Z3"]
print("all subdivision maps bijective:", check_subdivision_criterion(X).ok)

print()
print("== the graphical calculus recomputes faces and degeneracies ==")
T = Triangulation(3, ((0, 1, 2), (0, 2, 3)))
psi = 5
parts = unglue(X, T, psi)
print(f"3-simplex {psi} decomposes along the (0,2) diagonal as {parts}")
print("gluing back returns it:", glue(X, T, parts) == psi)
agree_faces = all(face_via_polygon(X, 3, i) == X.d(3, i) for i in range(4))
agree_degens = all(degen_via_polygon(X, 2, i) == X.s(2, i) for i in range(3))
print("delete-a-triangle faces agree with the tables:", agree_faces)
print("attach-a-triangle degeneracies agree with the tables:", agree_degens)

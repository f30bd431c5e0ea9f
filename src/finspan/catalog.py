"""Constructors for the example families used as fixtures everywhere.

Each constructor emits a truncated simplicial set, optionally together
with the paracyclic translations or the transposition actions that the
family carries.  Composable tuples are enumerated lexicographically in
morphism indices, so documents and witnesses are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .gammaset import GammaData, PhiStarMor, phistar_d, phistar_s, phistar_theta
from .paracyclic import ParacyclicData
from .pseudomonoid import TwoTruncatedData, two_truncated_simplicial  # re-exported
from .simplicial import TruncSimplicialSet, make_simplicial
from .spans import FinMap, FinSet, StructuralError, iterated_pullback


# ---------------------------------------------------------------------------
# small categories


@dataclass(frozen=True)
class SmallCategory:
    """A finite category; `then_table[f][g]` is the composite "f then g"
    (g after f), or -1 when the pair is not composable."""

    objects: FinSet
    morphisms: FinSet
    src: FinMap
    tgt: FinMap
    identity: FinMap
    then_table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for f in self.morphisms:
            for g in self.morphisms:
                h = self.then_table[f][g]
                composable = self.tgt.table[f] == self.src.table[g]
                if composable != (h >= 0):
                    raise StructuralError("composability does not match the table")
                if h >= 0:
                    if self.src.table[h] != self.src.table[f] or self.tgt.table[h] != self.tgt.table[g]:
                        raise StructuralError("composite has wrong endpoints")
        for u in self.objects:
            e = self.identity.table[u]
            if self.src.table[e] != u or self.tgt.table[e] != u:
                raise StructuralError("identity has wrong endpoints")
        for f in self.morphisms:
            if self.then(self.identity.table[self.src.table[f]], f) != f:
                raise StructuralError("left identity law fails")
            if self.then(f, self.identity.table[self.tgt.table[f]]) != f:
                raise StructuralError("right identity law fails")
        for f in self.morphisms:
            for g in self.morphisms:
                for h in self.morphisms:
                    if (
                        self.tgt.table[f] == self.src.table[g]
                        and self.tgt.table[g] == self.src.table[h]
                    ):
                        if self.then(self.then(f, g), h) != self.then(f, self.then(g, h)):
                            raise StructuralError("associativity fails")

    def then(self, f: int, g: int) -> int:
        h = self.then_table[f][g]
        if h < 0:
            raise StructuralError("morphisms are not composable")
        return h

    def is_groupoid(self) -> bool:
        for f in self.morphisms:
            has_inverse = any(
                self.tgt.table[g] == self.src.table[f]
                and self.src.table[g] == self.tgt.table[f]
                and self.then(f, g) == self.identity.table[self.src.table[f]]
                and self.then(g, f) == self.identity.table[self.tgt.table[f]]
                for g in self.morphisms
            )
            if not has_inverse:
                return False
        return True

    def inverse(self, f: int) -> int:
        for g in self.morphisms:
            if (
                self.tgt.table[g] == self.src.table[f]
                and self.src.table[g] == self.tgt.table[f]
                and self.then(f, g) == self.identity.table[self.src.table[f]]
            ):
                return g
        raise StructuralError("morphism has no inverse")


def cyclic_group_category(k: int) -> SmallCategory:
    """The cyclic group of order k as a one-object groupoid."""
    objects = FinSet(1)
    morphisms = FinSet(k, labels=tuple(f"g{v}" for v in range(k)))
    table = tuple(tuple((f + g) % k for g in range(k)) for f in range(k))
    return SmallCategory(
        objects, morphisms,
        FinMap(morphisms, objects, tuple([0] * k)),
        FinMap(morphisms, objects, tuple([0] * k)),
        FinMap(objects, morphisms, (0,)),
        table,
    )


def chain_poset_category(k: int) -> SmallCategory:
    """The poset 0 <= 1 <= ... <= k-1 as a category; morphisms are pairs."""
    objects = FinSet(k)
    pairs = [(a, b) for a in range(k) for b in range(a, k)]
    index = {p: i for i, p in enumerate(pairs)}
    morphisms = FinSet(len(pairs), labels=tuple(f"{a}<={b}" for a, b in pairs))
    table = []
    for (a, b) in pairs:
        row = []
        for (c, d) in pairs:
            row.append(index[(a, d)] if b == c else -1)
        table.append(tuple(row))
    return SmallCategory(
        objects, morphisms,
        FinMap(morphisms, objects, tuple(a for a, _ in pairs)),
        FinMap(morphisms, objects, tuple(b for _, b in pairs)),
        FinMap(objects, morphisms, tuple(index[(a, a)] for a in range(k))),
        tuple(table),
    )


def pair_groupoid(k: int) -> SmallCategory:
    """The groupoid with k objects and exactly one morphism between any two."""
    objects = FinSet(k)
    pairs = [(a, b) for a in range(k) for b in range(k)]
    index = {p: i for i, p in enumerate(pairs)}
    morphisms = FinSet(len(pairs), labels=tuple(f"{a}->{b}" for a, b in pairs))
    table = []
    for (a, b) in pairs:
        row = []
        for (c, d) in pairs:
            row.append(index[(a, d)] if b == c else -1)
        table.append(tuple(row))
    return SmallCategory(
        objects, morphisms,
        FinMap(morphisms, objects, tuple(a for a, _ in pairs)),
        FinMap(morphisms, objects, tuple(b for _, b in pairs)),
        FinMap(objects, morphisms, tuple(index[(a, a)] for a in range(k))),
        tuple(table),
    )


def nerve(C: SmallCategory, N: int) -> TruncSimplicialSet:
    """The nerve: level n holds composable n-tuples, lexicographic order."""
    if N < 3:
        raise StructuralError("correspondence checks need N >= 3")
    tuple_levels = [[()]] + [_nerve_tuples(C, n) for n in range(1, N + 1)]
    index_levels = [{t: i for i, t in enumerate(ts)} for ts in tuple_levels]
    levels = [C.objects] + [FinSet(len(ts)) for ts in tuple_levels[1:]]

    def chain_objects(t: tuple[int, ...]) -> tuple[int, ...]:
        return (C.src.table[t[0]],) + tuple(C.tgt.table[f] for f in t)

    face = [()]
    for n in range(1, N + 1):
        maps = []
        for i in range(n + 1):
            table = []
            for t in tuple_levels[n]:
                if n == 1:
                    objs = chain_objects(t)
                    table.append(objs[1] if i == 0 else objs[0])
                    continue
                if i == 0:
                    new = t[1:]
                elif i == n:
                    new = t[:-1]
                else:
                    new = t[: i - 1] + (C.then(t[i - 1], t[i]),) + t[i + 1 :]
                table.append(index_levels[n - 1][new])
            maps.append(FinMap(levels[n], levels[n - 1], tuple(table)))
        face.append(tuple(maps))

    degen = []
    for n in range(N):
        maps = []
        for i in range(n + 1):
            table = []
            if n == 0:
                for u in C.objects:
                    table.append(index_levels[1][(C.identity.table[u],)])
            else:
                for t in tuple_levels[n]:
                    objs = chain_objects(t)
                    new = t[:i] + (C.identity.table[objs[i]],) + t[i:]
                    table.append(index_levels[n + 1][new])
            maps.append(FinMap(levels[n], levels[n + 1], tuple(table)))
        degen.append(tuple(maps))
    degen.append(())

    return make_simplicial(levels, face, degen)


def groupoid_cyclic(C: SmallCategory, N: int, bisection: Optional[FinMap] = None) -> ParacyclicData:
    """The paracyclic structure on a groupoid nerve; with a bisection, the
    last entry is twisted by it.  Cyclic exactly when the bisection is
    central (the default identity bisection is)."""
    if not C.is_groupoid():
        raise StructuralError("cyclic structure needs a groupoid")
    if bisection is not None:
        if bisection.dom != C.objects or bisection.cod != C.morphisms:
            raise StructuralError("bisection must map objects to morphisms")
        if any(C.src.table[bisection.table[u]] != u for u in C.objects):
            raise StructuralError("bisection must be a section of the source")
        if len(set(C.tgt.table[bisection.table[u]] for u in C.objects)) != C.objects.size:
            raise StructuralError("bisection target map must be bijective")
    X = nerve(C, N)
    omega = bisection or C.identity

    tuple_levels = [None] + [
        _nerve_tuples(C, n) for n in range(1, N + 1)
    ]
    index_levels = [None] + [{t: i for i, t in enumerate(ts)} for ts in tuple_levels[1:]]

    tau_maps = []
    # tau^0 = d_0 omega: u -> target of the bisection
    tau_maps.append(FinMap(C.objects, C.objects, tuple(
        C.tgt.table[omega.table[u]] for u in C.objects
    )))
    for n in range(1, N + 1):
        table = []
        for t in tuple_levels[n]:
            total = t[0]
            for f in t[1:]:
                total = C.then(total, f)
            last = C.then(C.inverse(total), omega.table[C.src.table[t[0]]])
            new = t[1:] + (last,)
            table.append(index_levels[n][new])
        tau_maps.append(FinMap(X.levels[n], X.levels[n], tuple(table)))
    return ParacyclicData(X, tuple(tau_maps))


def _chain_factors(C: SmallCategory, n: int) -> list:
    """n morphism factors, the i-th keyed by the objects i and i + 1 it
    runs between, for `iterated_pullback`."""
    ends = tuple(zip(C.src.table, C.tgt.table))
    return [((i, i + 1), ends) for i in range(n)]


def _nerve_tuples(C: SmallCategory, n: int) -> tuple[tuple[int, ...], ...]:
    return iterated_pullback(_chain_factors(C, n))


# ---------------------------------------------------------------------------
# partial monoids


@dataclass(frozen=True)
class PartialMonoid:
    """A partially defined monoid; `product[x][y]` is -1 when undefined.
    Equations hold in the strong sense: both sides undefined or both equal."""

    elements: FinSet
    product: tuple[tuple[int, ...], ...]
    unit: int

    def __post_init__(self):
        if not 0 <= self.unit < self.elements.size:
            raise StructuralError(f"unit {self.unit} is not an element")
        for x in self.elements:
            if self.product[self.unit][x] != x or self.product[x][self.unit] != x:
                raise StructuralError("unit law fails")
        for x in self.elements:
            for y in self.elements:
                for z in self.elements:
                    xy = self.product[x][y]
                    yz = self.product[y][z]
                    lhs = self.product[xy][z] if xy >= 0 else -1
                    rhs = self.product[x][yz] if yz >= 0 else -1
                    if lhs != rhs:
                        raise StructuralError("associativity convention fails")

    def defined(self, x: int, y: int) -> bool:
        return self.product[x][y] >= 0

    def is_commutative(self) -> bool:
        return all(
            self.product[x][y] == self.product[y][x]
            for x in self.elements
            for y in self.elements
        )


def interval_monoid(L: int) -> PartialMonoid:
    """Addition on {0..L}, undefined for sums larger than L."""
    elements = FinSet(L + 1, labels=tuple(str(v) for v in range(L + 1)))
    product = tuple(
        tuple(x + y if x + y <= L else -1 for y in range(L + 1)) for x in range(L + 1)
    )
    return PartialMonoid(elements, product, 0)


def _monoid_tuples(M: PartialMonoid, n: int) -> list[tuple[int, ...]]:
    """The fully composable n-tuples in lexicographic order.  Each composable
    tuple carries the products of its suffix runs, and is extended by x only
    when every run times x is defined."""
    level: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    for _ in range(n):
        longer = []
        for t, runs in level:
            for x in range(M.elements.size):
                products = tuple(M.product[r][x] for r in runs)
                if all(p >= 0 for p in products):
                    longer.append((t + (x,), products + (x,)))
        level = longer
    return [t for t, _ in level]


def partial_monoid_nerve(M: PartialMonoid, N: int) -> TruncSimplicialSet:
    """Level n holds the fully composable n-tuples; level 0 is a point."""
    return _monoid_nerve(M, N)[0]


def _monoid_nerve(M: PartialMonoid, N: int) -> tuple[TruncSimplicialSet, list, list]:
    """`partial_monoid_nerve` with the tuple levels it is built from and
    their index dicts."""
    if N < 3:
        raise StructuralError("correspondence checks need N >= 3")
    tuple_levels = [[()]] + [_monoid_tuples(M, n) for n in range(1, N + 1)]
    index_levels = [{t: i for i, t in enumerate(ts)} for ts in tuple_levels]
    levels = [FinSet(1)] + [FinSet(len(ts)) for ts in tuple_levels[1:]]

    face = [()]
    for n in range(1, N + 1):
        maps = []
        for i in range(n + 1):
            table = []
            for t in tuple_levels[n]:
                if i == 0:
                    new = t[1:]
                elif i == n:
                    new = t[:-1]
                else:
                    new = t[: i - 1] + (M.product[t[i - 1]][t[i]],) + t[i + 1 :]
                table.append(index_levels[n - 1][new])
            maps.append(FinMap(levels[n], levels[n - 1], tuple(table)))
        face.append(tuple(maps))

    degen = []
    for n in range(N):
        maps = []
        for i in range(n + 1):
            table = []
            for t in tuple_levels[n]:
                new = t[:i] + (M.unit,) + t[i:]
                table.append(index_levels[n + 1][new])
            maps.append(FinMap(levels[n], levels[n + 1], tuple(table)))
        degen.append(tuple(maps))
    degen.append(())
    return make_simplicial(levels, face, degen), tuple_levels, index_levels


def interval_cyclic(L: int, N: int) -> ParacyclicData:
    """The cyclic structure on the interval nerve: rotate and complete the
    sum to L."""
    X, tuple_levels, index_levels = _monoid_nerve(interval_monoid(L), N)
    tau_maps = [FinMap(X.levels[0], X.levels[0], (0,))]
    for n in range(1, N + 1):
        table = []
        for t in tuple_levels[n]:
            new = t[1:] + (L - sum(t),)
            table.append(index_levels[n][new])
        tau_maps.append(FinMap(X.levels[n], X.levels[n], tuple(table)))
    return ParacyclicData(X, tuple(tau_maps))


def commutative_monoid_gamma(M: PartialMonoid, N: int) -> GammaData:
    """The transposition actions on the nerve of a commutative partial
    monoid: permutation of tuple components."""
    if not M.is_commutative():
        raise StructuralError("transposition actions need commutativity")
    X, tuple_levels, index_levels = _monoid_nerve(M, N)
    tables: list[tuple[FinMap, ...]] = [(), ()]
    for n in range(2, N + 1):
        row = []
        for i in range(1, n):
            table = []
            for t in tuple_levels[n]:
                new = list(t)
                new[i - 1], new[i] = new[i], new[i - 1]
                table.append(index_levels[n][tuple(new)])
            row.append(FinMap(X.levels[n], X.levels[n], tuple(table)))
        tables.append(tuple(row))
    return GammaData(X, tuple(tables))


# ---------------------------------------------------------------------------
# twisted cyclic nerves (inertia groupoids and buildings as special cases)


@dataclass(frozen=True)
class Endofunctor:
    on_objects: FinMap
    on_morphisms: FinMap

    def validate(self, C: SmallCategory):
        for f in C.morphisms:
            ff = self.on_morphisms.table[f]
            if C.src.table[ff] != self.on_objects.table[C.src.table[f]]:
                raise StructuralError("endofunctor breaks sources")
            if C.tgt.table[ff] != self.on_objects.table[C.tgt.table[f]]:
                raise StructuralError("endofunctor breaks targets")
        for u in C.objects:
            if self.on_morphisms.table[C.identity.table[u]] != C.identity.table[self.on_objects.table[u]]:
                raise StructuralError("endofunctor breaks identities")
        for f in C.morphisms:
            for g in C.morphisms:
                if C.tgt.table[f] == C.src.table[g]:
                    if self.on_morphisms.table[C.then(f, g)] != C.then(
                        self.on_morphisms.table[f], self.on_morphisms.table[g]
                    ):
                        raise StructuralError("endofunctor breaks composition")

    def is_automorphism(self) -> bool:
        return self.on_objects.is_bijective() and self.on_morphisms.is_bijective()


def identity_endofunctor(C: SmallCategory) -> Endofunctor:
    from .spans import identity_map

    return Endofunctor(identity_map(C.objects), identity_map(C.morphisms))


def _twisted_tuples(C: SmallCategory, F: Endofunctor, n: int) -> list[tuple[int, ...]]:
    """Ascending tuples (f_0, ..., f_n): consecutive composable and the top
    morphism composable with the twist of the bottom one."""
    # a last factor, the source u of f_0 paired with its twist F(u), closes
    # the cycle; u is determined by f_0, so dropping it keeps the order
    twist = tuple((u, F.on_objects.table[u]) for u in C.objects)
    return [t[:-1] for t in iterated_pullback(_chain_factors(C, n + 1) + [((0, n + 1), twist)])]


def twisted_cyclic_nerve(C: SmallCategory, F: Endofunctor, N: int) -> TruncSimplicialSet:
    """Levels hold twisted composable cycles; the initial face folds the
    twisted bottom morphism into the top one."""
    if N < 3:
        raise StructuralError("correspondence checks need N >= 3")
    F.validate(C)
    tuple_levels = [_twisted_tuples(C, F, n) for n in range(N + 1)]
    index_levels = [{t: i for i, t in enumerate(ts)} for ts in tuple_levels]
    levels = [FinSet(len(ts)) for ts in tuple_levels]

    face = [()]
    for n in range(1, N + 1):
        maps = []
        for i in range(n + 1):
            table = []
            for t in tuple_levels[n]:
                if i == 0:
                    new = t[1:-1] + (C.then(t[-1], F.on_morphisms.table[t[0]]),)
                else:
                    new = t[: i - 1] + (C.then(t[i - 1], t[i]),) + t[i + 1 :]
                table.append(index_levels[n - 1][new])
            maps.append(FinMap(levels[n], levels[n - 1], tuple(table)))
        face.append(tuple(maps))

    degen = []
    for n in range(N):
        maps = []
        for i in range(n + 1):
            table = []
            for t in tuple_levels[n]:
                new = t[:i] + (C.identity.table[C.src.table[t[i]]],) + t[i:]
                table.append(index_levels[n + 1][new])
            maps.append(FinMap(levels[n], levels[n + 1], tuple(table)))
        degen.append(tuple(maps))
    degen.append(())
    return make_simplicial(levels, face, degen)


def twisted_cyclic_paracyclic(C: SmallCategory, F: Endofunctor, N: int) -> ParacyclicData:
    """The paracyclic translations on a twisted cyclic nerve; needs the
    twist to be an automorphism."""
    if not F.is_automorphism():
        raise StructuralError("paracyclic translations need an automorphism twist")
    X = twisted_cyclic_nerve(C, F, N)
    tuple_levels = [_twisted_tuples(C, F, n) for n in range(N + 1)]
    index_levels = [{t: i for i, t in enumerate(ts)} for ts in tuple_levels]
    tau_maps = []
    for n in range(N + 1):
        table = []
        for t in tuple_levels[n]:
            new = t[1:] + (F.on_morphisms.table[t[0]],)
            table.append(index_levels[n][new])
        tau_maps.append(FinMap(X.levels[n], X.levels[n], tuple(table)))
    return ParacyclicData(X, tuple(tau_maps))


def building(k: int, N: int) -> TruncSimplicialSet:
    """The building of the k-chain poset with the identity twist."""
    return twisted_cyclic_nerve(chain_poset_category(k), identity_endofunctor(chain_poset_category(k)), N)


# ---------------------------------------------------------------------------
# graph partitions


@dataclass(frozen=True)
class Graph:
    vertices: FinSet
    edges: frozenset  # of frozensets {u, v}

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2 or any(not 0 <= v < self.vertices.size for v in e):
                raise StructuralError("edges must be unordered vertex pairs")


def path_graph(k: int) -> Graph:
    return Graph(FinSet(k), frozenset(frozenset((i, i + 1)) for i in range(k - 1)))


def _partition_elements(G: Graph, n: int) -> list[tuple[int, ...]]:
    """Level n elements: a block index 1..n (or 0 for absent) per vertex;
    the full subgraph on the present vertices is implied."""
    return list(itertools.product(range(n + 1), repeat=G.vertices.size))


def graph_partition_action(G: Graph, f: PhiStarMor, element: tuple[int, ...]) -> tuple[int, ...]:
    """The pointed-map functor on vertex block assignments: block i goes to
    block f(i); vertices sent to the basepoint drop out."""
    return tuple(f(b) for b in element)


def graph_partition_gamma(G: Graph, N: int) -> GammaData:
    """Subgraph partitions as a functor on pointed cardinals, exposed via
    the derived simplicial structure and transposition actions."""
    if N < 3:
        raise StructuralError("correspondence checks need N >= 3")
    elems = [_partition_elements(G, n) for n in range(N + 1)]
    index = [{t: i for i, t in enumerate(ts)} for ts in elems]
    levels = [FinSet(len(ts)) for ts in elems]

    def action_map(f: PhiStarMor) -> FinMap:
        table = tuple(
            index[f.m][graph_partition_action(G, f, t)] for t in elems[f.n]
        )
        return FinMap(levels[f.n], levels[f.m], table)

    face = [()]
    for n in range(1, N + 1):
        face.append(tuple(
            action_map(phistar_d(n, i)) for i in range(n)
        ) + (action_map(_phistar_dn(n)),))
    degen = []
    for n in range(N):
        degen.append(tuple(action_map(phistar_s(n, i)) for i in range(n + 1)))
    degen.append(())
    X = make_simplicial(levels, face, degen)

    tables: list[tuple[FinMap, ...]] = [(), ()]
    for n in range(2, N + 1):
        tables.append(tuple(action_map(phistar_theta(n, i)) for i in range(1, n)))
    return GammaData(X, tuple(tables))


def _phistar_dn(n: int) -> PhiStarMor:
    from .gammaset import phistar_d_top

    return phistar_d_top(n)


# ---------------------------------------------------------------------------
# monoids in the homotopy category that may not lift


def no_lift_family(a_size: int) -> TwoTruncatedData:
    """The 2-truncated family with carrier {0, 1} whose sum-to-zero
    2-simplices are labeled by an arbitrary set of size a_size."""
    x0 = FinSet(1)
    x1 = FinSet(2)
    base = [(0, 0), (1, 0), (0, 1)]
    labels = ["(0,0)", "(1,0)", "(0,1)"] + [f"a{k}" for k in range(a_size)]
    x2 = FinSet(3 + a_size, labels=tuple(labels))

    def d0(e):
        return base[e][1] if e < 3 else 1

    def d1(e):
        return (base[e][0] + base[e][1]) % 2 if e < 3 else 0

    def d2(e):
        return base[e][0] if e < 3 else 1

    d2_maps = (
        FinMap(x2, x1, tuple(d0(e) for e in x2)),
        FinMap(x2, x1, tuple(d1(e) for e in x2)),
        FinMap(x2, x1, tuple(d2(e) for e in x2)),
    )
    d1_maps = (FinMap(x1, x0, (0, 0)), FinMap(x1, x0, (0, 0)))
    s0 = FinMap(x0, x1, (0,))
    s1_maps = (
        FinMap(x1, x2, (0, 2)),  # s_0(k) = (0, k)
        FinMap(x1, x2, (0, 1)),  # s_1(k) = (k, 0)
    )
    return TwoTruncatedData(x0, x1, x2, d1_maps, d2_maps, s0, s1_maps)


def no_lift_canonical_associator(T: TwoTruncatedData) -> dict:
    """The canonical associator of the no-lift family: match taco fibers by
    their label component (fibers are singletons or copies of the label set)."""
    from .pseudomonoid import taco_fibers

    def label(p):
        return tuple(x for x in p if x >= 3) or None

    left, right = taco_fibers(T)
    out = {}
    for key, pairs in left.items():
        by_label = {label(p): p for p in right[key]}
        out.update((p, by_label[label(p)]) for p in pairs)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# degenerate examples


def constant_point(N: int) -> TruncSimplicialSet:
    """The terminal simplicial set: a single simplex in every level."""
    pt = FinSet(1)
    one = FinMap(pt, pt, (0,))
    levels = [pt] * (N + 1)
    face = [()] + [tuple([one] * (n + 1)) for n in range(1, N + 1)]
    degen = [tuple([one] * (n + 1)) for n in range(N)] + [()]
    return make_simplicial(levels, face, degen)


def constant_point_paracyclic(N: int) -> ParacyclicData:
    X = constant_point(N)
    return ParacyclicData(X, tuple(FinMap(FinSet(1), FinSet(1), (0,)) for _ in range(N + 1)))

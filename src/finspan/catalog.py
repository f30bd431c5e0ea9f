"""Constructors for the example families used as fixtures everywhere.

Each constructor emits a truncated simplicial set, optionally together
with the paracyclic translations or the transposition actions that the
family carries.  Composable tuples are enumerated lexicographically in
morphism indices, so documents and witnesses are reproducible.  Every
family lists its simplices as tuples and states each structure map as a
rule on tuples; `_tuple_structure` tabulates the rules.  `EXAMPLES`
names the documents that `finspan example` emits and the shipped
fixtures hold.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .pseudomonoid import TwoTruncatedData, two_truncated_simplicial  # re-exported
from .simplicial import TruncSimplicialSet, make_simplicial
from .spans import FinMap, FinSet, StructuralError, gather, identity_map

if TYPE_CHECKING:  # loaded by the constructors that build them
    from .documents import StructureDocument
    from .gammaset import GammaData, PhiStarMor
    from .paracyclic import ParacyclicData


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
    if k < 1:
        raise StructuralError(f"cyclic group needs order k >= 1, got k={k}")
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
    return _pair_category(k, [(a, b) for a in range(k) for b in range(a, k)], "<=")


def pair_groupoid(k: int) -> SmallCategory:
    """The groupoid with k objects and exactly one morphism between any two."""
    return _pair_category(k, [(a, b) for a in range(k) for b in range(k)], "->")


def _pair_category(k: int, pairs: list[tuple[int, int]], arrow: str) -> SmallCategory:
    """The category on objects 0..k-1 with one morphism a -> b for each
    pair (a, b) in `pairs`, labelled `a{arrow}b`; (a, b) then (b, d) is
    (a, d)."""
    objects = FinSet(k)
    index = {p: i for i, p in enumerate(pairs)}
    morphisms = FinSet(len(pairs), labels=tuple(f"{a}{arrow}{b}" for a, b in pairs))
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


def _tuple_structure(levels, tuples, face, degen) -> tuple[TruncSimplicialSet, Callable]:
    """The simplicial set whose level n lists `tuples[n]`, with the faces
    and degeneracies that `face(n, i)` and `degen(n, i)` give as rules on
    tuples, together with `move(n, m, rule)`, the map from level n to
    level m that sends each tuple t to `rule(t)`."""
    index = [{t: i for i, t in enumerate(ts)} for ts in tuples]

    def move(n, m, rule):
        return FinMap(levels[n], levels[m], gather(index[m], [*map(rule, tuples[n])]))

    N = len(tuples) - 1
    X = make_simplicial(
        levels,
        [()] + [tuple(move(n, n - 1, face(n, i)) for i in range(n + 1)) for n in range(1, N + 1)],
        [tuple(move(n, n + 1, degen(n, i)) for i in range(n + 1)) for n in range(N)] + [()],
    )
    return X, move


def _bar_face(product):
    """The faces of a bar construction: drop the first or the last entry,
    or multiply two neighbours by the table `product`."""

    def face(n, i):
        if i == 0:
            return lambda t: t[1:]
        if i == n:
            return lambda t: t[:-1]
        return lambda t: t[: i - 1] + (product[t[i - 1]][t[i]],) + t[i + 1 :]

    return face


def nerve(C: SmallCategory, N: int) -> TruncSimplicialSet:
    """The nerve: level n holds composable n-tuples, lexicographic order."""
    return _nerve(C, N)[0]


def _nerve(C: SmallCategory, N: int) -> tuple[TruncSimplicialSet, Callable]:
    """`nerve` with its `move`; level 0 lists the objects as 1-tuples."""
    _require_correspondence_level(N)
    src, tgt, ident = C.src.table, C.tgt.table, C.identity.table
    tuples = _chain_levels(C, N)
    levels = [C.objects] + [FinSet(len(ts)) for ts in tuples[1:]]
    inner = _bar_face(C.then_table)

    def face(n, i):
        if n == 1:
            ends = src if i else tgt
            return lambda t: (ends[t[0]],)
        return inner(n, i)

    def degen(n, i):
        if n == 0:
            return lambda t: (ident[t[0]],)
        return lambda t: t[:i] + (ident[tgt[t[i - 1]] if i else src[t[0]]],) + t[i:]

    return _tuple_structure(levels, tuples, face, degen)


def groupoid_cyclic(C: SmallCategory, N: int, bisection: Optional[FinMap] = None) -> ParacyclicData:
    """The paracyclic structure on a groupoid nerve; with a bisection, the
    last entry is twisted by it.  Cyclic exactly when the bisection is
    central (the default identity bisection is)."""
    from .paracyclic import ParacyclicData

    if not C.is_groupoid():
        raise StructuralError("cyclic structure needs a groupoid")
    if bisection is not None:
        if bisection.dom != C.objects or bisection.cod != C.morphisms:
            raise StructuralError("bisection must map objects to morphisms")
        if any(C.src.table[bisection.table[u]] != u for u in C.objects):
            raise StructuralError("bisection must be a section of the source")
        if len(set(C.tgt.table[bisection.table[u]] for u in C.objects)) != C.objects.size:
            raise StructuralError("bisection target map must be bijective")
    X, move = _nerve(C, N)
    then, omega = C.then_table, (bisection or C.identity).table
    inverse = tuple(C.inverse(f) for f in C.morphisms)

    def rotate(t):
        total = t[0]
        for f in t[1:]:
            total = then[total][f]
        return t[1:] + (then[inverse[total]][omega[C.src.table[t[0]]]],)

    # tau^0 = d_0 omega: u -> target of the bisection
    tau = [move(0, 0, lambda t: (C.tgt.table[omega[t[0]]],))]
    return ParacyclicData(X, tuple(tau + [move(n, n, rotate) for n in range(1, N + 1)]))


def _chain_levels(C: SmallCategory, N: int) -> list[list[tuple[int, ...]]]:
    """The objects as 1-tuples, then the composable n-tuples for n = 1..N
    in lexicographic order: each level extends the one before by every
    morphism out of its last target, in index order."""
    out_of: list[list[int]] = [[] for _ in C.objects]
    for f in C.morphisms:
        out_of[C.src.table[f]].append(f)
    tgt = C.tgt.table
    levels = [[(u,) for u in C.objects], [(f,) for f in C.morphisms]]
    for _ in range(2, N + 1):
        levels.append([t + (f,) for t in levels[-1] for f in out_of[tgt[t[-1]]]])
    return levels


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
    if L < 0:
        raise StructuralError(f"interval monoid needs L >= 0, got L={L}")
    elements = FinSet(L + 1, labels=tuple(str(v) for v in range(L + 1)))
    product = tuple(
        tuple(x + y if x + y <= L else -1 for y in range(L + 1)) for x in range(L + 1)
    )
    return PartialMonoid(elements, product, 0)


def _monoid_levels(M: PartialMonoid, N: int) -> list[list[tuple[int, ...]]]:
    """The fully composable tuples of each length 0..N in lexicographic
    order.  Each composable tuple carries the products of its suffix runs,
    and is extended by x only when every run times x is defined."""
    levels: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [[((), ())]]
    for _ in range(N):
        longer = []
        for t, runs in levels[-1]:
            for x in range(M.elements.size):
                products = tuple(M.product[r][x] for r in runs)
                if all(p >= 0 for p in products):
                    longer.append((t + (x,), products + (x,)))
        levels.append(longer)
    return [[t for t, _ in level] for level in levels]


def partial_monoid_nerve(M: PartialMonoid, N: int) -> TruncSimplicialSet:
    """Level n holds the fully composable n-tuples; level 0 is a point."""
    return _monoid_nerve(M, N)[0]


def _require_correspondence_level(N: int) -> None:
    if N < 3:
        raise StructuralError("correspondence checks need N >= 3")


def _monoid_nerve(M: PartialMonoid, N: int) -> tuple[TruncSimplicialSet, Callable]:
    """`partial_monoid_nerve` with its `move`."""
    _require_correspondence_level(N)
    tuples = _monoid_levels(M, N)
    levels = [FinSet(len(ts)) for ts in tuples]
    unit = M.unit
    return _tuple_structure(
        levels, tuples, _bar_face(M.product), lambda n, i: lambda t: t[:i] + (unit,) + t[i:]
    )


def _interval_nerve(L: int, N: int) -> tuple[TruncSimplicialSet, Callable, tuple[FinMap, ...]]:
    """The interval nerve with its `move` and its cyclic structure: rotate
    and complete the sum to L."""
    _require_correspondence_level(N)  # before the monoid's (L+1)^2 table is built
    X, move = _monoid_nerve(interval_monoid(L), N)
    tau = [move(0, 0, lambda t: t)]
    tau += [move(n, n, lambda t: t[1:] + (L - sum(t),)) for n in range(1, N + 1)]
    return X, move, tuple(tau)


def interval_cyclic(L: int, N: int) -> ParacyclicData:
    """The cyclic structure on the interval nerve."""
    from .paracyclic import ParacyclicData

    X, _, tau = _interval_nerve(L, N)
    return ParacyclicData(X, tau)


def _component_swaps(N: int, move: Callable) -> tuple[tuple[FinMap, ...], ...]:
    """theta_i^n on a monoid nerve: swap the tuple components i - 1 and i."""
    return ((), ()) + tuple(
        tuple(move(n, n, lambda t: t[: i - 1] + (t[i], t[i - 1]) + t[i + 1 :]) for i in range(1, n))
        for n in range(2, N + 1)
    )


def commutative_monoid_gamma(M: PartialMonoid, N: int) -> GammaData:
    """The transposition actions on the nerve of a commutative partial
    monoid: permutation of tuple components."""
    from .gammaset import GammaData

    if not M.is_commutative():
        raise StructuralError("transposition actions need commutativity")
    X, move = _monoid_nerve(M, N)
    return GammaData(X, _component_swaps(N, move))


def _interval_document(L: int, N: int) -> StructureDocument:
    """The interval nerve with its cyclic structure and its transpositions."""
    from .gammaset import GammaData
    from .paracyclic import ParacyclicData

    X, move, tau = _interval_nerve(L, N)
    return _document(paracyclic=ParacyclicData(X, tau), gamma=GammaData(X, _component_swaps(N, move)))


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
    return Endofunctor(identity_map(C.objects), identity_map(C.morphisms))


def twisted_cyclic_nerve(C: SmallCategory, F: Endofunctor, N: int) -> TruncSimplicialSet:
    """Levels hold twisted composable cycles; the initial face folds the
    twisted bottom morphism into the top one."""
    return _twisted_nerve(C, F, N)[0]


def _twisted_nerve(C: SmallCategory, F: Endofunctor, N: int) -> tuple[TruncSimplicialSet, Callable]:
    """`twisted_cyclic_nerve` with its `move`."""
    _require_correspondence_level(N)
    F.validate(C)
    # level n: the composable (n + 1)-tuples (f_0, ..., f_n) whose top
    # morphism is composable with the twist of the bottom one
    then, Fo, Fm = C.then_table, F.on_objects.table, F.on_morphisms.table
    src, tgt, ident = C.src.table, C.tgt.table, C.identity.table
    tuples = [[t for t in chains if tgt[t[-1]] == Fo[src[t[0]]]] for chains in _chain_levels(C, N + 1)[1:]]
    levels = [FinSet(len(ts)) for ts in tuples]

    def face(n, i):
        if i == 0:
            return lambda t: t[1:-1] + (then[t[-1]][Fm[t[0]]],)
        return lambda t: t[: i - 1] + (then[t[i - 1]][t[i]],) + t[i + 1 :]

    def degen(n, i):
        return lambda t: t[:i] + (ident[src[t[i]]],) + t[i:]

    return _tuple_structure(levels, tuples, face, degen)


def twisted_cyclic_paracyclic(C: SmallCategory, F: Endofunctor, N: int) -> ParacyclicData:
    """The paracyclic translations on a twisted cyclic nerve; needs the
    twist to be an automorphism."""
    from .paracyclic import ParacyclicData

    if not F.is_automorphism():
        raise StructuralError("paracyclic translations need an automorphism twist")
    X, move = _twisted_nerve(C, F, N)
    Fm = F.on_morphisms.table
    return ParacyclicData(X, tuple(move(n, n, lambda t: t[1:] + (Fm[t[0]],)) for n in range(N + 1)))


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
    return tuple(map(f, element))


def graph_partition_gamma(G: Graph, N: int) -> GammaData:
    """Subgraph partitions as a functor on pointed cardinals, exposed via
    the derived simplicial structure and transposition actions."""
    from .gammaset import GammaData, phistar_d, phistar_d_top, phistar_s, phistar_theta

    _require_correspondence_level(N)
    tuples = [_partition_elements(G, n) for n in range(N + 1)]

    def action(f: PhiStarMor):
        return functools.partial(graph_partition_action, G, f)

    X, move = _tuple_structure(
        [FinSet(len(ts)) for ts in tuples], tuples,
        lambda n, i: action(phistar_d(n, i) if i < n else phistar_d_top(n)),
        lambda n, i: action(phistar_s(n, i)),
    )
    return GammaData(X, ((), ()) + tuple(
        tuple(move(n, n, action(phistar_theta(n, i))) for i in range(1, n)) for n in range(2, N + 1)
    ))


# ---------------------------------------------------------------------------
# monoids in the homotopy category that may not lift


def no_lift_family(a_size: int) -> TwoTruncatedData:
    """The 2-truncated family with carrier {0, 1} whose sum-to-zero
    2-simplices are labeled by an arbitrary set of size a_size."""
    if a_size < 0:
        raise StructuralError(f"no-lift family needs a label set of size a >= 0, got a={a_size}")
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
    from .paracyclic import ParacyclicData

    X = constant_point(N)
    return ParacyclicData(X, tuple(FinMap(FinSet(1), FinSet(1), (0,)) for _ in range(N + 1)))


# ---------------------------------------------------------------------------
# named examples


def swap_bisection_cyclic(N: int) -> ParacyclicData:
    """The pair groupoid on two objects with its last entry twisted by the
    swap bisection (0 to 0->1, 1 to 1->0): paracyclic but not cyclic."""
    C = pair_groupoid(2)
    return groupoid_cyclic(C, N, bisection=FinMap(C.objects, C.morphisms, (1, 2)))


def inversion_twist(k: int) -> Endofunctor:
    """Inversion g -> -g on the cyclic group of order k."""
    C = cyclic_group_category(k)
    return Endofunctor(
        identity_map(C.objects), FinMap(C.morphisms, C.morphisms, tuple(-g % k for g in C.morphisms))
    )


def _document(X=None, paracyclic=None, gamma=None) -> StructureDocument:
    """The document of `X`, or of the base of the blocks it carries."""
    from .documents import StructureDocument

    base = (paracyclic or gamma).base if X is None else X
    return StructureDocument(base, paracyclic=paracyclic, gamma=gamma)


# each example's document, from the truncation N and the sizes k, L and a
EXAMPLES: dict[str, Callable[[int, int, int, int], StructureDocument]] = {
    "nerve-z2": lambda N, k, L, a: _document(nerve(cyclic_group_category(2), N)),
    "nerve-z3": lambda N, k, L, a: _document(nerve(cyclic_group_category(3), N)),
    "nerve-zk": lambda N, k, L, a: _document(nerve(cyclic_group_category(k), N)),
    "chain-poset": lambda N, k, L, a: _document(nerve(chain_poset_category(k), N)),
    "building": lambda N, k, L, a: _document(building(k, N)),
    "pair-groupoid": lambda N, k, L, a: _document(paracyclic=groupoid_cyclic(pair_groupoid(k), N)),
    "groupoid-zk": lambda N, k, L, a: _document(paracyclic=groupoid_cyclic(cyclic_group_category(k), N)),
    "pair-groupoid-bisection": lambda N, k, L, a: _document(paracyclic=swap_bisection_cyclic(N)),
    "interval": lambda N, k, L, a: _interval_document(L, N),
    "twisted-zk-id": lambda N, k, L, a: _document(paracyclic=twisted_cyclic_paracyclic(
        cyclic_group_category(k), identity_endofunctor(cyclic_group_category(k)), N
    )),
    "twisted-z3-inversion": lambda N, k, L, a: _document(
        paracyclic=twisted_cyclic_paracyclic(cyclic_group_category(3), inversion_twist(3), N)
    ),
    "graph-path": lambda N, k, L, a: _document(gamma=graph_partition_gamma(path_graph(k), N)),
    "nolift": lambda N, k, L, a: _document(two_truncated_simplicial(no_lift_family(a))),
    "point": lambda N, k, L, a: _document(constant_point(N)),
}


def example(name: str, n_levels: int = 4, k: int = 2, L: int = 2, a_size: int = 1) -> StructureDocument:
    """The document of the example `name`; the defaults are `finspan example`'s."""
    return EXAMPLES[name](n_levels, k, L, a_size)

"""The paracyclic operator calculus and the Frobenius correspondence.

Morphisms [m] -> [n] of the paracyclic category are order-preserving maps
of the integers commuting with the translations by m+1 and n+1; they are
stored by their values on 0..m.  Every morphism factors uniquely as a
simplex-category morphism following a power of the translation generator,
which gives evaluation of arbitrary morphisms on a paracyclic set.

A paracyclic structure on a 2-Segal set yields a counit span via the extra
degeneracy, and conversely a counit with biexact induced pairing rebuilds
the whole tower of extra degeneracies: first s_2^1 from the pairing
pullback, then s_{n+1}^n by attaching the extra degenerate triangle along
the outgoing edge, and finally the top-level translation from its face
components.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .diagrams import (
    Box,
    ClosedFormRule,
    DiagramPath,
    compare_paths,
    equation_witness,
    identity_box,
    tensorator_rule,
)
from .reporting import CheckResult, Report
from .simplicial import (
    Relation,
    Token,
    TruncSimplicialSet,
    check_2segal,
    check_relations,
    degeneracy_relations,
    face_relations,
    fan_triangulation,
    glued_map,
    relation_name,
    structure_tables,
)
from .spans import (
    FinMap,
    FinSet,
    Span,
    SpanCell,
    StructuralError,
    UNIT,
    constant_map,
    encode_columns,
    identity_map,
    pullback_pairs,
    pullback_square_witness,
    spans_isomorphic,
)


class NotFrobeniusError(ValueError):
    """The supplied counit does not induce a biexact pairing."""


# ---------------------------------------------------------------------------
# the paracyclic category


@dataclass(frozen=True)
class LambdaMor:
    """An equivariant monotone map [m] -> [n], stored on 0..m."""

    m: int
    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.m + 1:
            raise StructuralError("need one value per domain element")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise StructuralError("values must be weakly increasing")
        if self.values[-1] > self.values[0] + self.n + 1:
            raise StructuralError("values exceed one fundamental domain")

    def value_at(self, i: int) -> int:
        q, r = divmod(i, self.m + 1)
        return self.values[r] + q * (self.n + 1)

    def in_delta(self) -> bool:
        return self.values[0] >= 0 and self.values[-1] <= self.n


def lambda_identity(n: int) -> LambdaMor:
    return LambdaMor(n, n, tuple(range(n + 1)))


def lambda_delta(n: int, i: int) -> LambdaMor:
    """The coface [n-1] -> [n] skipping i."""
    return LambdaMor(n - 1, n, tuple(v for v in range(n + 1) if v != i))


def lambda_sigma(n: int, i: int) -> LambdaMor:
    """The codegeneracy [n+1] -> [n] repeating i; i = n+1 gives the extra
    codegeneracy (the identity values 0..n+1, leaving the simplex category)."""
    if i == n + 1:
        return LambdaMor(n + 1, n, tuple(range(n + 2)))
    vals = list(range(i + 1)) + list(range(i, n + 1))
    return LambdaMor(n + 1, n, tuple(vals))


def lambda_t(n: int, power: int = 1) -> LambdaMor:
    """The translation generator T^n (and its powers): i -> i + power."""
    return LambdaMor(n, n, tuple(v + power for v in range(n + 1)))


def lambda_compose(f: LambdaMor, g: LambdaMor) -> LambdaMor:
    """The composite g∘f of f: [m] -> [n] then g: [n] -> [k]."""
    if f.n != g.m:
        raise StructuralError("object mismatch in composition")
    return LambdaMor(f.m, g.n, tuple(g.value_at(v) for v in f.values))


def lambda_factorize(f: LambdaMor) -> tuple[LambdaMor, int]:
    """The unique factorization f = g ∘ (T^m)^(-a) with g in the simplex
    category; a is the least integer with f(a) >= 0."""
    a = 0
    while f.value_at(a) >= 0:
        a -= 1
    while f.value_at(a) < 0:
        a += 1
    g = LambdaMor(f.m, f.n, tuple(f.value_at(a + i) for i in range(f.m + 1)))
    if not g.in_delta():
        raise StructuralError("factorization left the simplex category")
    return g, a


def lambda_recompose(g: LambdaMor, a: int) -> LambdaMor:
    return lambda_compose(lambda_t(g.m, -a), g)


def check_on_morphisms(relations: Iterable[Relation], compose) -> Report:
    """One line per relation, decided on the morphisms `compose(n, word)`
    of its two words in an abstract category and witnessed on failure by
    both of them."""
    report = Report()
    for relation in relations:
        _, n, lhs, rhs = relation
        a, b = compose(n, lhs), compose(n, rhs)
        report.add(CheckResult(relation_name(relation), None if a == b else (a, b)))
    return report


_LAMBDA_GENERATORS = {"d": lambda_delta, "s": lambda_sigma, "t": lambda n, i: lambda_t(n)}


def lambda_word(n: int, word: Sequence[Token]) -> LambdaMor:
    """The morphism into [n] whose action on X_n is `word`.  The action is
    contravariant, so each token's generator composes on the left."""
    out = lambda_identity(n)
    for kind, m, i in word:
        out = lambda_compose(_LAMBDA_GENERATORS[kind](m, i), out)
    return out


def check_lambda_relations(n_max: int = 6) -> Report:
    """The generator relations of the paracyclic category on its
    morphisms: the cosimplicial identities, translation against cofaces
    and codegeneracies, the extra-codegeneracy relations and the extra
    codegeneracy as sigma_0 T, each up to level n_max.  A truncation
    checks extra degeneracies against degeneracies one level below its
    top, so that list is taken a level higher."""
    N = n_max + 1
    extra_as_s0_tau = ((("s_extra = s_0 tau at level {}", n), n, (("s", n, n + 1),), (("s", n, 0), ("t", n + 1, 0)))
                       for n in range(N))
    relations = chain(face_relations(N), degeneracy_relations(N), translation_relations(N),
                      extra_relations(N + 1), extra_as_s0_tau)
    return check_on_morphisms(relations, lambda_word)


# ---------------------------------------------------------------------------
# paracyclic structures on truncated simplicial sets


@dataclass(frozen=True)
class ParacyclicData:
    """A truncated simplicial set with level translations tau^n."""

    base: TruncSimplicialSet
    tau: tuple[FinMap, ...]

    def __post_init__(self):
        if len(self.tau) != self.base.N + 1:
            raise StructuralError("need one tau per level")
        for n, t in enumerate(self.tau):
            if t.dom != self.base.levels[n] or t.cod != self.base.levels[n]:
                raise StructuralError(f"tau^{n} has wrong boundaries")

    def extra_degeneracy(self, n: int) -> FinMap:
        """s_{n+1}^n = tau^{n+1} ∘ s_0^n."""
        if n >= self.base.N:
            raise StructuralError("extra degeneracy exceeds the truncation")
        return self.base.s(n, 0).then(self.tau[n + 1])

    def tau_power(self, n: int, k: int) -> FinMap:
        out = identity_map(self.base.levels[n])
        step = self.tau[n] if k >= 0 else self.tau[n].inverse()
        for _ in range(abs(k)):
            out = out.then(step)
        return out


def translation_relations(N: int) -> Iterator[Relation]:
    """tau against faces and degeneracies, and the exceptional rule
    d_0 s_extra = tau, within truncation N."""
    yield from ((("d_{} tau relation at level {}", i, n), n, (("t", n, 0), ("d", n, i)),
                 (("d", n, i + 1), ("t", n - 1, 0)) if i < n else (("d", n, 0),))
                for n in range(1, N + 1) for i in range(n + 1))
    yield from ((("s_{} tau relation at level {}", i, n), n, (("t", n, 0), ("s", n, i)),
                 (("s", n, i + 1), ("t", n + 1, 0)) if i < n else (("s", n, 0), ("t", n + 1, 0), ("t", n + 1, 0)))
                for n in range(N) for i in range(n + 1))
    yield from ((("exceptional rule d_0 s_extra = tau at level {}", n), n,
                 (("s", n, n + 1), ("d", n + 1, 0)), (("t", n, 0),)) for n in range(N))


def extra_relations(N: int) -> Iterator[Relation]:
    """The extra-degeneracy forms of the relations, d_i s_{n+1} and
    s_i s_{n+1}, within truncation N."""
    for n in range(N):
        yield from ((("d_{} s_extra at level {}", i, n), n, (("s", n, n + 1), ("d", n + 1, i)),
                     (("d", n, i), ("s", n - 1, n))) for i in range(1, n + 1))
        yield (("d_top s_extra = id at level {}", n), n, (("s", n, n + 1), ("d", n + 1, n + 1)), ())
    for n in range(N - 1):
        yield from ((("s_{} s_extra at level {}", i, n), n, (("s", n, n + 1), ("s", n + 1, i)),
                     (("s", n, i), ("s", n + 1, n + 2))) for i in range(n + 1))
        yield (("s_extra s_extra at level {}", n), n, (("s", n, n + 1), ("s", n + 1, n + 1)),
               (("s", n, n + 1), ("s", n + 1, n + 2)))


def paracyclic_tables(P: ParacyclicData) -> dict[Token, tuple[int, ...]]:
    """The token tables of P: faces, degeneracies, tau and the extra
    degeneracies."""
    tables = structure_tables(P.base)
    tables.update({("t", n, 0): t.table for n, t in enumerate(P.tau)})
    tables.update({("s", n, n + 1): P.extra_degeneracy(n).table for n in range(P.base.N)})
    return tables


def check_paracyclic(P: ParacyclicData) -> Report:
    """All translation relations and bijectivity, within the truncation."""
    report = Report()
    for n, t in enumerate(P.tau):
        report.add(CheckResult(f"tau bijective at level {n}", None if t.is_bijective() else t.table))
    if not report.ok:
        return report
    return report.extend(check_relations(translation_relations(P.base.N), paracyclic_tables(P), P.base.levels))


def check_extra_degeneracy_relations(P: ParacyclicData) -> Report:
    """The extra-degeneracy relations within the truncation."""
    return check_relations(extra_relations(P.base.N), paracyclic_tables(P), P.base.levels)


def evaluate(P: ParacyclicData, f: LambdaMor) -> FinMap:
    """The action of an arbitrary paracyclic morphism: X_n -> X_m, computed
    via the unique factorization and the stored structure maps."""
    if f.n > P.base.N or f.m > P.base.N:
        raise StructuralError("level outside the truncation")
    g, a = lambda_factorize(f)
    return delta_action(P.base, g).then(P.tau_power(f.m, -a))


def delta_action(X: TruncSimplicialSet, g: LambdaMor) -> FinMap:
    """The action X(g): X_n -> X_m of a simplex-category morphism."""
    if not g.in_delta():
        raise StructuralError("morphism is not in the simplex category")
    if g.n > X.N or g.m > X.N:
        raise StructuralError("level outside the truncation")
    return _monotone_action(X, g.values, g.n)


def _monotone_action(X: TruncSimplicialSet, values: tuple[int, ...], n: int) -> FinMap:
    m = len(values) - 1
    present = set(values)
    missing = [i for i in range(n + 1) if i not in present]
    if missing:
        i = missing[0]
        rest = tuple(v - 1 if v > i else v for v in values)
        return X.d(n, i).then(_monotone_action(X, rest, n - 1))
    if m > n:
        j = next(k for k in range(m) if values[k] == values[k + 1])
        rest = values[:j] + values[j + 1 :]
        return _monotone_action(X, rest, n).then(X.s(m - 1, j))
    return identity_map(X.levels[n])


# ---------------------------------------------------------------------------
# paracyclic -> Frobenius


@dataclass(frozen=True)
class CounitData:
    """A counit span X_1 <- X_0 -> {*} with the derived structure."""

    base: TruncSimplicialSet
    counit: Span
    s1_0: FinMap
    tau1: FinMap


def counit_span(X: TruncSimplicialSet, s1_0: FinMap) -> Span:
    return Span(X.levels[1], UNIT, X.levels[0], s1_0, constant_map(X.levels[0], UNIT))


def pairing_graph(X: TruncSimplicialSet, eps: Span) -> tuple[dict[int, int], Optional[int]]:
    """The induced pairing eps ∘ mu read as a graph, walking its apex pairs
    (m, e) in order: each carrier element x = d_2 m to the simplex m over
    it, and the first x found over a second m (None when no fiber has two),
    where the walk stops.  The pairing is the graph of x -> d_0 m."""
    chosen: dict[int, int] = {}
    d2 = X.d(2, 2).table
    for m, _ in pullback_pairs(X.d(2, 1), eps.left):
        if d2[m] in chosen:
            return chosen, d2[m]
        chosen[d2[m]] = m
    return chosen, None


def frobenius_from_paracyclic(P: ParacyclicData) -> CounitData:
    """The counit of a 2-Segal paracyclic set, with biexactness verified:
    the extra-degeneracy pullback square and the (id, tau) form of the
    induced pairing."""
    X = P.base
    check_2segal(X).require(NotFrobeniusError, "base is not 2-Segal: ")
    s1_0 = P.extra_degeneracy(0)
    eps = counit_span(X, s1_0)
    tau1 = P.tau[1]

    if pullback_square_witness(P.extra_degeneracy(1), X.d(1, 1), X.d(2, 1), s1_0) is not None:
        raise NotFrobeniusError("extra-degeneracy unitality square is not a pullback")

    chosen, repeated = pairing_graph(X, eps)
    if repeated is not None:
        raise NotFrobeniusError(f"pairing fiber over {repeated} is not a singleton")
    if len(chosen) != X.levels[1].size:
        raise NotFrobeniusError("pairing does not cover the carrier")
    if any(X.d(2, 0).table[chosen[x]] != tau1.table[x] for x in X.levels[1]):
        raise NotFrobeniusError("pairing is not the graph of tau")
    return CounitData(X, eps, s1_0, tau1)


# ---------------------------------------------------------------------------
# Frobenius -> paracyclic


def _glued_tower(X: TruncSimplicialSet, s1_0: FinMap, s2_1: FinMap) -> tuple[dict[int, FinMap], list[FinMap]]:
    """The extra degeneracies s_{n+1}^n for n < N, from s_1^0 and s_2^1,
    and the translations tau^n for n <= N.

    Each s_{n+1}^n with n >= 2 glues the degenerate triangle s_2 e_out
    along the outgoing edge, and tau^n = d_0 s_{n+1}^n below the top.  The
    top translation glues its triangle components: the first N-1 fan
    components shift, the last one is tau^2 of the initial triangle.
    """
    extra: dict[int, FinMap] = {0: s1_0, 1: s2_1}
    for n in range(2, X.N):
        parts = {t: (t, None) for t in fan_triangulation(range(n + 1))}
        parts[(0, n, n + 1)] = ((0, n), s2_1)
        extra[n] = glued_map(X, n, n + 1, parts)
    tau = [extra[n].then(X.d(n + 1, 0)) for n in range(X.N)]

    N = X.N
    parts = {(0, i, i + 1): ((1, i + 1, i + 2), None) for i in range(1, N - 1)}
    parts[(0, N - 1, N)] = ((0, 1, N), tau[2])
    tau.append(glued_map(X, N, N, parts))
    return extra, tau


def paracyclic_from_frobenius(X: TruncSimplicialSet, eps: Span) -> ParacyclicData:
    """Rebuild the paracyclic structure from a counit span.

    Follows the extraction proof: tau^1 from the (id, tau) form of the
    pairing, s_1^0 = tau^1 s_0^0, s_2^1 from the pairing pullback, higher
    extra degeneracies by attaching the degenerate triangle along the
    outgoing edge, and the top translation from its face components.
    """
    if eps.src != X.levels[1] or eps.tgt != UNIT:
        raise StructuralError("counit must be a span X_1 -> {*}")
    check_2segal(X).require(NotFrobeniusError, "base is not 2-Segal: ")
    if X.N < 3:
        raise StructuralError("need truncation level at least 3")

    # biexactness: the pairing must be the graph of a bijection
    chosen, repeated = pairing_graph(X, eps)
    if repeated is not None:
        raise NotFrobeniusError(f"pairing fiber over carrier element {repeated} has size > 1")
    if len(chosen) != X.levels[1].size:
        missing = next(x for x in X.levels[1] if x not in chosen)
        raise NotFrobeniusError(f"pairing fiber over carrier element {missing} is empty")
    tau1 = FinMap(X.levels[1], X.levels[1], tuple(X.d(2, 0).table[chosen[x]] for x in X.levels[1]))
    if not tau1.is_bijective():
        raise NotFrobeniusError("pairing is not the graph of a bijection")

    s1_0 = X.s(0, 0).then(tau1)
    if spans_isomorphic(eps, counit_span(X, s1_0)) is None:
        raise NotFrobeniusError("counit is not isomorphic to a degeneracy-form span")

    # s_2^1 from the pairing pullback; d_1 s_2 = s_1 d_1 and the pullback
    # property are consequences, but are verified rather than assumed
    s2_1 = FinMap(X.levels[1], X.levels[2], tuple(chosen[x] for x in X.levels[1]))
    if s2_1.then(X.d(2, 1)).table != X.d(1, 1).then(s1_0).table:
        raise NotFrobeniusError("derived s_2 does not satisfy d_1 s_2 = s_1 d_1")
    if pullback_square_witness(s2_1, X.d(1, 1), X.d(2, 1), s1_0) is not None:
        raise NotFrobeniusError("extra-degeneracy unitality square is not a pullback")

    extra, tau = _glued_tower(X, s1_0, s2_1)

    for n, t in enumerate(tau):
        if not t.is_bijective():
            raise NotFrobeniusError(f"derived translation at level {n} is not bijective")

    # constructive invertibility at the reduction level: the deleted
    # triangle is recoverable, d_2 s_3 = s_2 tau^{-1} d_1 tau on X_2
    lhs = extra[2].then(X.d(3, 2))
    rhs = tau[2].then(X.d(2, 1)).then(tau1.inverse()).then(s2_1)
    if lhs.table != rhs.table:
        raise NotFrobeniusError("triangle reconstruction identity fails")
    # tau^0 inverse formula: d_1 (tau^1)^{-1} s_0 inverts tau^0
    back = X.s(0, 0).then(tau1.inverse()).then(X.d(1, 1))
    if tau[0].then(back).table != tuple(range(X.levels[0].size)):
        raise NotFrobeniusError("tau^0 inverse formula fails")

    P = ParacyclicData(X, tuple(tau))
    check_paracyclic(P).require(NotFrobeniusError, "derived structure fails: ")
    return P


# ---------------------------------------------------------------------------
# copairing and snake witnesses


def normalized_pairing_span(x1: FinSet, tau1: FinMap) -> Span:
    """The pairing in its (id, tau) graph form: X_1 x X_1 <- X_1 -> {*}."""
    left = FinMap(x1, FinSet(x1.size * x1.size), encode_columns((tuple(x1), tau1.table), (x1.size, x1.size), x1.size))
    return Span(left.cod, UNIT, x1, left, constant_map(x1, UNIT))


def copairing_span(x1: FinSet, tau1: FinMap) -> Span:
    """The copairing {*} <- X_1 -> X_1 x X_1 with right leg x -> (x, tau^{-1} x)."""
    tinv = tau1.inverse()
    right = FinMap(x1, FinSet(x1.size * x1.size), encode_columns((tuple(x1), tinv.table), (x1.size, x1.size), x1.size))
    return Span(UNIT, right.cod, x1, constant_map(x1, UNIT), right)


@dataclass
class FrobeniusWitnesses:
    beta: Span
    zig: SpanCell
    zag: SpanCell
    report: Report


def frobenius_witnesses(C: CounitData) -> FrobeniusWitnesses:
    """Copairing and snake cells for a biexact pairing, plus the two
    tensorator coherence checks on pairing and copairing."""
    x1 = C.base.levels[1]
    tau = C.tau1
    alpha = normalized_pairing_span(x1, tau)
    beta = copairing_span(x1, tau)
    ab = Box(alpha, (x1, x1), (), name="pairing")
    bb = Box(beta, (), (x1, x1), name="copairing")
    idb = identity_box(x1)

    # zig: (beta x id) then (id x alpha), and zag: (id x beta) then
    # (alpha x id), each equal to the identity wire; the element in the
    # first column (the copairing's for zig, the wire's for zag) is the
    # wire's value, read by both identity rows
    def snake(columns, count):
        return columns[0], columns[0]

    zig_rule = ClosedFormRule("zig", ((bb, idb), (idb, ab)), ((idb,), (idb,)), carry=snake)
    zag_rule = ClosedFormRule("zag", ((idb, bb), (ab, idb)), ((idb,), (idb,)), carry=snake)

    report = Report()
    c_alpha = tensorator_rule(ab, ab)
    start1 = ((idb, bb, idb), (ab, idb, idb), (ab,))
    lhs1 = DiagramPath(start1).rewrite(zag_rule, 0, (0, 0))
    rhs1 = DiagramPath(start1).rewrite(c_alpha, 1, (0, 0)).rewrite(zig_rule, 0, (1, 1))
    report.add(CheckResult("pairing snake coherence", equation_witness(*compare_paths(lhs1, rhs1))))

    c_beta = tensorator_rule(bb, bb)
    start2 = ((bb,), (idb, idb, bb), (idb, ab, idb))
    lhs2 = DiagramPath(start2).rewrite(zag_rule, 1, (1, 1))
    rhs2 = DiagramPath(start2).rewrite(c_beta, 0, (0, 0)).rewrite(zig_rule, 1, (0, 0))
    report.add(CheckResult("copairing snake coherence", equation_witness(*compare_paths(lhs2, rhs2))))

    return FrobeniusWitnesses(beta, zig_rule.cell, zag_rule.cell, report)


# ---------------------------------------------------------------------------
# cyclicity


@dataclass
class CyclicityResult:
    verdict: str  # "cyclic" | "paracyclic-only"
    all_levels: bool
    two_condition: bool

    @property
    def agree(self) -> bool:
        return self.all_levels == self.two_condition

    @property
    def disagreement(self) -> Optional[tuple[bool, bool]]:
        """The witness that the two criteria disagree: (two_condition,
        all_levels), or None when they agree."""
        return None if self.agree else (self.two_condition, self.all_levels)


def check_cyclic(P: ParacyclicData) -> CyclicityResult:
    """Cyclicity by the definitional all-levels check and by the reduced
    two-condition criterion; they must agree on 2-Segal bases."""
    all_levels = all(
        P.tau_power(n, n + 1).table == tuple(range(P.base.levels[n].size))
        for n in range(P.base.N + 1)
    )
    two = (
        P.tau_power(1, 2).table == tuple(range(P.base.levels[1].size))
        and P.tau_power(2, 3).table == tuple(range(P.base.levels[2].size))
    )
    return CyclicityResult("cyclic" if all_levels else "paracyclic-only", all_levels, two)

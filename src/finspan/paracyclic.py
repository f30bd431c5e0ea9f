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

from .diagrams import (
    Box,
    DiagramPath,
    compare_paths,
    first_moved,
    identity_box,
    make_rule,
    tensorator_rule,
)
from .reporting import CheckResult, Report
from .simplicial import (
    Triangulation,
    TruncSimplicialSet,
    check_2segal,
    fan_triangulation,
    glue,
    vertex_map,
)
from .spans import (
    FinMap,
    FinSet,
    Span,
    SpanCell,
    StructuralError,
    UNIT,
    constant_map,
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


def check_lambda_relations(n_max: int = 6) -> Report:
    """The generator relations of the paracyclic category up to level n_max:
    translation against cofaces/codegeneracies, the extra-codegeneracy
    relations, and the cosimplicial identities."""
    report = Report()

    def eq(name, lhs, rhs):
        ok = lhs == rhs
        report.add(CheckResult(name, ok, witness=None if ok else (lhs.values, rhs.values)))

    for n in range(1, n_max + 1):
        for i in range(n + 1):
            lhs = lambda_compose(lambda_delta(n, i), lambda_t(n))
            rhs = (
                lambda_compose(lambda_t(n - 1), lambda_delta(n, i + 1))
                if i < n
                else lambda_delta(n, 0)
            )
            eq(f"T delta_{i} at level {n}", lhs, rhs)
    for n in range(n_max + 1):
        for i in range(n + 1):
            lhs = lambda_compose(lambda_sigma(n, i), lambda_t(n))
            if i < n:
                rhs = lambda_compose(lambda_t(n + 1), lambda_sigma(n, i + 1))
            else:
                rhs = lambda_compose(lambda_t(n + 1, 2), lambda_sigma(n, 0))
            eq(f"T sigma_{i} at level {n}", lhs, rhs)
    for n in range(n_max + 1):
        extra = lambda_sigma(n, n + 1)
        eq(f"extra codegeneracy = sigma_0 T at level {n}",
           extra, lambda_compose(lambda_t(n + 1), lambda_sigma(n, 0)))
        for i in range(n + 2):
            lhs = lambda_compose(lambda_delta(n + 1, i), extra)
            if i == 0:
                rhs = lambda_t(n)
            elif i == n + 1:
                rhs = lambda_identity(n)
            else:
                rhs = lambda_compose(lambda_sigma(n - 1, n), lambda_delta(n, i))
            eq(f"extra codegeneracy against delta_{i} at level {n}", lhs, rhs)
        for i in range(n + 2):
            lhs = lambda_compose(lambda_sigma(n + 1, i), extra)
            rhs = lambda_compose(lambda_sigma(n + 1, n + 2), lambda_sigma(n, i))
            eq(f"extra codegeneracy against sigma_{i} at level {n}", lhs, rhs)
    for n in range(1, n_max):
        for i in range(n + 1):
            for j in range(i, n + 1):
                lhs = lambda_compose(lambda_delta(n, i), lambda_delta(n + 1, j + 1))
                rhs = lambda_compose(lambda_delta(n, j), lambda_delta(n + 1, i))
                eq(f"delta delta ({i},{j}) at level {n}", lhs, rhs)
        for j in range(n):
            for i in range(j + 1):
                lhs = lambda_compose(lambda_sigma(n, i), lambda_sigma(n - 1, j))
                rhs = lambda_compose(lambda_sigma(n, j + 1), lambda_sigma(n - 1, i))
                eq(f"sigma sigma ({i},{j}) at level {n}", lhs, rhs)
    for n in range(1, n_max + 1):
        for j in range(n):
            for i in range(n + 1):
                lhs = lambda_compose(lambda_delta(n, i), lambda_sigma(n - 1, j))
                if i < j:
                    rhs = lambda_compose(lambda_sigma(n - 2, j - 1), lambda_delta(n - 1, i)) if n >= 2 else None
                elif i in (j, j + 1):
                    rhs = lambda_identity(n - 1)
                else:
                    rhs = lambda_compose(lambda_sigma(n - 2, j), lambda_delta(n - 1, i - 1)) if n >= 2 else None
                if rhs is not None:
                    eq(f"sigma_{j} delta_{i} at level {n}", lhs, rhs)
    return report


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


def check_paracyclic(P: ParacyclicData) -> Report:
    """All translation relations and bijectivity, within the truncation."""
    X, tau = P.base, P.tau
    report = Report()
    for n, t in enumerate(tau):
        report.add(CheckResult(
            f"tau bijective at level {n}", t.is_bijective(),
            witness=None if t.is_bijective() else t.table,
        ))
    if not report.ok:
        return report
    for n in range(1, X.N + 1):
        for i in range(n + 1):
            lhs = tau[n].then(X.d(n, i))
            rhs = X.d(n, i + 1).then(tau[n - 1]) if i < n else X.d(n, 0)
            report.equal(f"d_{i} tau relation at level {n}", lhs, rhs)
    for n in range(X.N):
        for i in range(n + 1):
            lhs = tau[n].then(X.s(n, i))
            if i < n:
                rhs = X.s(n, i + 1).then(tau[n + 1])
            else:
                rhs = X.s(n, 0).then(tau[n + 1]).then(tau[n + 1])
            report.equal(f"s_{i} tau relation at level {n}", lhs, rhs)
    for n in range(X.N):
        report.equal(
            f"exceptional rule d_0 s_extra = tau at level {n}",
            P.extra_degeneracy(n).then(X.d(n + 1, 0)),
            tau[n],
        )
    return report


def check_extra_degeneracy_relations(P: ParacyclicData) -> Report:
    """The extra-degeneracy forms of the relations: d_i s_{n+1} and
    s_i s_{n+1}, within the truncation."""
    X = P.base
    report = Report()
    for n in range(X.N):
        s_extra = P.extra_degeneracy(n)
        if n >= 1:
            for i in range(1, n + 1):
                report.equal(f"d_{i} s_extra at level {n}",
                             s_extra.then(X.d(n + 1, i)),
                             X.d(n, i).then(P.extra_degeneracy(n - 1)))
        report.equal(f"d_top s_extra = id at level {n}",
                     s_extra.then(X.d(n + 1, n + 1)), identity_map(X.levels[n]))
    for n in range(X.N - 1):
        s_extra = P.extra_degeneracy(n)
        for i in range(n + 1):
            report.equal(f"s_{i} s_extra at level {n}",
                         s_extra.then(X.s(n + 1, i)),
                         X.s(n, i).then(P.extra_degeneracy(n + 1)))
        report.equal(f"s_extra s_extra at level {n}",
                     s_extra.then(X.s(n + 1, n + 1)),
                     s_extra.then(P.extra_degeneracy(n + 1)))
    return report


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


def pairing_apex_pairs(X: TruncSimplicialSet, eps: Span) -> tuple[tuple[int, int], ...]:
    """Apex pairs (m, e) of the induced pairing eps ∘ mu."""
    return pullback_pairs(X.d(2, 1), eps.left)


def frobenius_from_paracyclic(P: ParacyclicData) -> CounitData:
    """The counit of a 2-Segal paracyclic set, with biexactness verified:
    the extra-degeneracy pullback square and the (id, tau) form of the
    induced pairing."""
    X = P.base
    segal = check_2segal(X)
    if not segal.ok:
        raise NotFrobeniusError(f"base is not 2-Segal: {segal.failures[0].name}")
    s1_0 = P.extra_degeneracy(0)
    eps = counit_span(X, s1_0)
    tau1 = P.tau[1]

    if pullback_square_witness(P.extra_degeneracy(1), X.d(1, 1), X.d(2, 1), s1_0) is not None:
        raise NotFrobeniusError("extra-degeneracy unitality square is not a pullback")

    alpha = pairing_apex_pairs(X, eps)
    seen = {}
    for m, e in alpha:
        x = X.d(2, 2).table[m]
        if x in seen:
            raise NotFrobeniusError(f"pairing fiber over {x} is not a singleton")
        seen[x] = X.d(2, 0).table[m]
    if len(seen) != X.levels[1].size:
        raise NotFrobeniusError("pairing does not cover the carrier")
    if any(seen[x] != tau1.table[x] for x in X.levels[1]):
        raise NotFrobeniusError("pairing is not the graph of tau")
    return CounitData(X, eps, s1_0, tau1)


# ---------------------------------------------------------------------------
# Frobenius -> paracyclic


def paracyclic_from_frobenius(X: TruncSimplicialSet, eps: Span) -> ParacyclicData:
    """Rebuild the paracyclic structure from a counit span.

    Follows the extraction proof: tau^1 from the (id, tau) form of the
    pairing, s_1^0 = tau^1 s_0^0, s_2^1 from the pairing pullback, higher
    extra degeneracies by attaching the degenerate triangle along the
    outgoing edge, and the top translation from its face components.
    """
    if eps.src != X.levels[1] or eps.tgt != UNIT:
        raise StructuralError("counit must be a span X_1 -> {*}")
    segal = check_2segal(X)
    if not segal.ok:
        raise NotFrobeniusError(f"base is not 2-Segal: {segal.failures[0].name}")
    if X.N < 3:
        raise StructuralError("need truncation level at least 3")

    # biexactness: the pairing must be the graph of a bijection
    alpha = pairing_apex_pairs(X, eps)
    graph: dict[int, int] = {}
    chosen: dict[int, int] = {}
    for m, e in alpha:
        x = X.d(2, 2).table[m]
        if x in graph:
            raise NotFrobeniusError(f"pairing fiber over carrier element {x} has size > 1")
        graph[x] = X.d(2, 0).table[m]
        chosen[x] = m
    if len(graph) != X.levels[1].size:
        missing = next(x for x in X.levels[1] if x not in graph)
        raise NotFrobeniusError(f"pairing fiber over carrier element {missing} is empty")
    tau1 = FinMap(X.levels[1], X.levels[1], tuple(graph[x] for x in X.levels[1]))
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

    # the tower of extra degeneracies: s_{n+1}^n for n >= 2 by gluing the
    # degenerate triangle s_2 e_out along the outgoing edge
    extra: dict[int, FinMap] = {0: s1_0, 1: s2_1}
    for n in range(2, X.N):
        base_tris = fan_triangulation(list(range(n + 1)), anchor=0)
        new_tris = tuple(sorted(set(base_tris) | {(0, n, n + 1)}))
        T_new = Triangulation(n + 1, new_tris)
        e_out = vertex_map(X, n, (0, n))
        comp_tables = {t: vertex_map(X, n, t) for t in base_tris}
        table = []
        for psi in X.levels[n]:
            comps = {t: comp_tables[t].table[psi] for t in base_tris}
            comps[(0, n, n + 1)] = s2_1.table[e_out.table[psi]]
            table.append(glue(X, T_new, tuple(comps[t] for t in sorted(comps))))
        extra[n] = FinMap(X.levels[n], X.levels[n + 1], tuple(table))

    tau = [s1_0.then(X.d(1, 0))]
    for n in range(1, X.N):
        tau.append(extra[n].then(X.d(n + 1, 0)))

    # the top translation from its triangle components: the first N-1 fan
    # components shift, the last one is tau^2 of the initial triangle
    N = X.N
    fan = fan_triangulation(list(range(N + 1)), anchor=0)
    T_fan = Triangulation(N, tuple(sorted(fan)))
    shift_tables = {
        i: vertex_map(X, N, (1, i + 1, i + 2)) for i in range(1, N - 1)
    }
    wrap_table = vertex_map(X, N, (0, 1, N))
    tau2 = tau[2]
    table = []
    for psi in X.levels[N]:
        comps = {}
        for i in range(1, N):
            tri = tuple(sorted((0, i, i + 1)))
            if i <= N - 2:
                comps[tri] = shift_tables[i].table[psi]
            else:
                comps[tri] = tau2.table[wrap_table.table[psi]]
        table.append(glue(X, T_fan, tuple(comps[t] for t in sorted(comps))))
    tau.append(FinMap(X.levels[N], X.levels[N], tuple(table)))

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
    rep = check_paracyclic(P)
    if not rep.ok:
        raise NotFrobeniusError(f"derived structure fails: {rep.failures[0].name}")
    return P


# ---------------------------------------------------------------------------
# copairing and snake witnesses


def normalized_pairing_span(x1: FinSet, tau1: FinMap) -> Span:
    """The pairing in its (id, tau) graph form: X_1 x X_1 <- X_1 -> {*}."""
    left = FinMap(x1, FinSet(x1.size * x1.size), tuple(
        x * x1.size + tau1.table[x] for x in x1
    ))
    return Span(left.cod, UNIT, x1, left, constant_map(x1, UNIT))


def copairing_span(x1: FinSet, tau1: FinMap) -> Span:
    """The copairing {*} <- X_1 -> X_1 x X_1 with right leg x -> (x, tau^{-1} x)."""
    tinv = tau1.inverse()
    right = FinMap(x1, FinSet(x1.size * x1.size), tuple(
        x * x1.size + tinv.table[x] for x in x1
    ))
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
    tinv = tau.inverse()
    alpha = normalized_pairing_span(x1, tau)
    beta = copairing_span(x1, tau)
    ab = Box(alpha, (x1, x1), (), name="pairing")
    bb = Box(beta, (), (x1, x1), name="copairing")
    idb = identity_box(x1)

    # zig: (beta x id) then (id x alpha), equal to the identity wire
    def zig_fn(asn):
        b = asn[0][0]
        return ((b,), (b,))

    zig_rule = make_rule("zig", ((bb, idb), (idb, ab)), ((idb,), (idb,)), zig_fn)

    def zag_fn(asn):
        x = asn[0][0]
        return ((x,), (x,))

    zag_rule = make_rule("zag", ((idb, bb), (ab, idb)), ((idb,), (idb,)), zag_fn)

    report = Report()
    c_alpha = tensorator_rule(ab, ab)
    start1 = ((idb, bb, idb), (ab, idb, idb), (ab,))
    lhs1 = DiagramPath(start1).rewrite(zag_rule, 0, (0, 0))
    rhs1 = DiagramPath(start1).rewrite(c_alpha, 1, (0, 0)).rewrite(zig_rule, 0, (1, 1))
    ok1, disc1 = compare_paths(lhs1, rhs1)
    report.add(CheckResult("pairing snake coherence", ok1, witness=first_moved(disc1)))

    c_beta = tensorator_rule(bb, bb)
    start2 = ((bb,), (idb, idb, bb), (idb, ab, idb))
    lhs2 = DiagramPath(start2).rewrite(zag_rule, 1, (1, 1))
    rhs2 = DiagramPath(start2).rewrite(c_beta, 0, (0, 0)).rewrite(zig_rule, 1, (0, 0))
    ok2, disc2 = compare_paths(lhs2, rhs2)
    report.add(CheckResult("copairing snake coherence", ok2, witness=first_moved(disc2)))

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

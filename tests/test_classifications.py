"""The paper's two classifications as exact round trips on generated
inputs: Γ-sets against commutative pseudomonoids, on partial monoids of
vectors, and paracyclic sets against Frobenius pseudomonoids, on twisted
cyclic nerves whose twist is not the identity.  On the same inputs with
one table entry changed, every failing relation line names a relation
whose two words differ first at its witness."""

import itertools
import math
import random

import pytest

from finspan import catalog
from finspan.gammaset import (
    GammaData,
    NotCommutativeError,
    check_gamma,
    commutative_from_gamma,
    gamma_from_commutative,
    gamma_relations,
    gamma_tables,
)
from finspan.paracyclic import (
    NotFrobeniusError,
    ParacyclicData,
    check_extra_degeneracy_relations,
    check_paracyclic,
    extra_relations,
    frobenius_from_paracyclic,
    paracyclic_from_frobenius,
    paracyclic_tables,
    translation_relations,
)
from finspan.simplicial import (
    act,
    check_simplicial_identities,
    degeneracy_relations,
    face_relations,
    make_simplicial,
    relation_name,
)
from finspan.spans import FinMap, FinSet


def random_ideal_monoid(rng: random.Random) -> catalog.PartialMonoid:
    """Vector addition on a random order ideal of N^d (d <= 3, generated
    by one to three vectors of height at most 2), undefined outside it."""
    d = rng.randint(1, 3)
    generators = [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(rng.randint(1, 3))]
    elements = sorted({v for g in generators for v in itertools.product(*(range(c + 1) for c in g))})
    index = {v: i for i, v in enumerate(elements)}
    product = tuple(
        tuple(index.get(tuple(a + b for a, b in zip(x, y)), -1) for y in elements)
        for x in elements
    )
    return catalog.PartialMonoid(FinSet(len(elements)), product, index[(0,) * d])


def random_twisted_nerve(rng: random.Random):
    """The twisted cyclic nerve of Z_k (k <= 5) at 4, twisted by
    multiplication with a random unit mod k."""
    k = rng.randint(2, 5)
    u = rng.choice([u for u in range(1, k) if math.gcd(u, k) == 1])
    G = catalog.cyclic_group_category(k)
    F = catalog.Endofunctor(
        FinMap(G.objects, G.objects, (0,)),
        FinMap(G.morphisms, G.morphisms, tuple(u * m % k for m in range(k))),
    )
    return catalog.twisted_cyclic_paracyclic(G, F, 4)


@pytest.mark.parametrize("seed", range(40))
def test_gamma_commutative_gamma_is_exact(seed):
    G = catalog.commutative_monoid_gamma(random_ideal_monoid(random.Random(seed)), 4)
    cell, report = commutative_from_gamma(G)
    assert report.ok
    assert cell.theta == G.theta(2, 1)
    G2 = gamma_from_commutative(G.base, cell.gamma)
    assert G2.theta_tables == G.theta_tables


@pytest.mark.parametrize("seed", range(30))
def test_paracyclic_frobenius_paracyclic_is_exact(seed):
    P = random_twisted_nerve(random.Random(seed))
    C = frobenius_from_paracyclic(P)
    assert (C.s1_0, C.tau1) == (P.extra_degeneracy(0), P.tau[1])
    assert P.tau == paracyclic_from_frobenius(P.base, C.counit).tau


def entry_changed(rng: random.Random, f: FinMap) -> FinMap:
    """f with one entry changed to another element of its codomain."""
    table = list(f.table)
    e = rng.randrange(len(table))
    table[e] = rng.choice([v for v in range(f.cod.size) if v != table[e]])
    return FinMap(f.dom, f.cod, tuple(table))


def test_a_transposition_that_is_not_a_span_cell_is_refused():
    """With one entry of theta^2 changed, theta^2 no longer swaps the outer
    faces, so no commutativity cell carries it back."""
    refused = 0
    for seed in range(40):
        rng = random.Random(seed)
        G = catalog.commutative_monoid_gamma(random_ideal_monoid(rng), 4)
        if G.base.levels[2].size < 2:
            continue
        tables = list(G.theta_tables)
        tables[2] = (entry_changed(rng, G.theta(2, 1)),)
        with pytest.raises(NotCommutativeError, match="transposition is not a span cell"):
            commutative_from_gamma(GammaData(G.base, tuple(tables)))
        refused += 1
    assert refused > 30


@pytest.mark.parametrize("seed", range(30))
def test_a_translation_its_counit_does_not_give_back_is_refused(seed):
    """tau^1 with one entry changed off the degenerate edges keeps the counit,
    from which `paracyclic_from_frobenius` rebuilds the old tau^1, so the
    counit's pairing is not the graph of the new one."""
    rng = random.Random(seed)
    P = random_twisted_nerve(rng)
    X = P.base
    table = list(P.tau[1].table)
    e = rng.choice([x for x in X.levels[1] if x not in X.s(0, 0).table])
    table[e] = rng.choice([v for v in X.levels[1] if v != table[e]])
    changed = ParacyclicData(X, (P.tau[0], FinMap(X.levels[1], X.levels[1], tuple(table)), *P.tau[2:]))
    assert changed.extra_degeneracy(0) == P.extra_degeneracy(0)
    with pytest.raises(NotFrobeniusError, match="pairing is not the graph of tau"):
        frobenius_from_paracyclic(changed)


def mutated(rng: random.Random, S, kind: str):
    """S, a ParacyclicData or GammaData, with one entry of one of its
    `kind` tables ("face", "degen", "tau" or "theta") changed."""
    X = S.base
    rows = {"face": [list(r) for r in X.face], "degen": [list(r) for r in X.degen]}
    rows["tau" if isinstance(S, ParacyclicData) else "theta"] = (
        [list(S.tau)] if isinstance(S, ParacyclicData) else [list(r) for r in S.theta_tables])
    r, i = rng.choice([(r, i) for r, row in enumerate(rows[kind]) for i, f in enumerate(row) if f.cod.size > 1])
    rows[kind][r][i] = entry_changed(rng, rows[kind][r][i])
    base = make_simplicial(X.levels, rows["face"], rows["degen"])
    if isinstance(S, ParacyclicData):
        return ParacyclicData(base, tuple(rows["tau"][0]))
    return GammaData(base, tuple(tuple(r) for r in rows["theta"]))


def failing_relations(S):
    """The [FAIL] lines of every relation check that applies to S, each
    with the relation it names, and the token tables of S."""
    X = S.base
    relations = [*face_relations(X.N), *degeneracy_relations(X.N)]
    reports = [check_simplicial_identities(X)]
    if isinstance(S, ParacyclicData):
        relations += [*translation_relations(X.N), *extra_relations(X.N)]
        reports += [check_paracyclic(S), check_extra_degeneracy_relations(S)]
        tables = paracyclic_tables(S)
    else:
        relations += gamma_relations(X.N)
        reports.append(check_gamma(S))
        tables = gamma_tables(S)
    by_name = {relation_name(r): r for r in relations}
    failures = [(r, by_name.get(r.name)) for report in reports for r in report.failures]
    return failures, tables


MUTATED = [("gamma", seed, kind) for seed in (0, 1, 3, 6, 7, 10) for kind in ("face", "degen", "theta")]
MUTATED += [("paracyclic", seed, kind) for seed in (1, 2, 3, 4, 7) for kind in ("face", "degen", "tau")]


@pytest.mark.parametrize("family,seed,kind", MUTATED)
def test_every_failing_relation_is_witnessed_by_its_words(family, seed, kind):
    rng = random.Random(seed)
    if family == "gamma":
        S = catalog.commutative_monoid_gamma(random_ideal_monoid(rng), 4)
    else:
        S = random_twisted_nerve(rng)
    for k in range(4):
        failures, tables = failing_relations(mutated(random.Random(f"{family}/{seed}/{kind}/{k}"), S, kind))
        for result, relation in failures:
            if relation is None:
                assert result.name.startswith("tau bijective at level ")
                continue
            _, n, lhs, rhs = relation
            a = act(tables, lhs, S.base.levels[n].size)
            b = act(tables, rhs, S.base.levels[n].size)
            w = result.witness
            assert a[:w] == b[:w] and a[w] != b[w], result.name
        if kind in ("tau", "theta"):
            assert failures

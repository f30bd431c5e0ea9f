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
    check_gamma,
    commutative_from_gamma,
    gamma_from_commutative,
    gamma_relations,
    gamma_tables,
)
from finspan.paracyclic import (
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
    G2 = gamma_from_commutative(G.base, cell.gamma)
    assert G2.theta_tables == G.theta_tables


@pytest.mark.parametrize("seed", range(30))
def test_paracyclic_frobenius_paracyclic_is_exact(seed):
    P = random_twisted_nerve(random.Random(seed))
    C = frobenius_from_paracyclic(P)
    assert P.tau == paracyclic_from_frobenius(P.base, C.counit).tau


def mutated(rng: random.Random, S, kind: str):
    """S, a ParacyclicData or GammaData, with one entry of one of its
    `kind` tables ("face", "degen", "tau" or "theta") changed."""
    X = S.base
    rows = {"face": [list(r) for r in X.face], "degen": [list(r) for r in X.degen]}
    rows["tau" if isinstance(S, ParacyclicData) else "theta"] = (
        [list(S.tau)] if isinstance(S, ParacyclicData) else [list(r) for r in S.theta_tables])
    r, i = rng.choice([(r, i) for r, row in enumerate(rows[kind]) for i, f in enumerate(row) if f.cod.size > 1])
    f = rows[kind][r][i]
    table = list(f.table)
    e = rng.randrange(len(table))
    table[e] = rng.choice([v for v in range(f.cod.size) if v != table[e]])
    rows[kind][r][i] = FinMap(f.dom, f.cod, tuple(table))
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

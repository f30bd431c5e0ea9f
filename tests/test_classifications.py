"""The paper's two classifications as exact round trips on generated
inputs: Γ-sets against commutative pseudomonoids, on partial monoids of
vectors, and paracyclic sets against Frobenius pseudomonoids, on twisted
cyclic nerves whose twist is not the identity."""

import itertools
import math
import random

import pytest

from finspan import catalog
from finspan.gammaset import commutative_from_gamma, gamma_from_commutative
from finspan.paracyclic import frobenius_from_paracyclic, paracyclic_from_frobenius
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

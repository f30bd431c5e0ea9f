"""The message each construction raises when one of its requirements fails:
a fixed prefix and the name of the first failing line."""

import pytest

from finspan import catalog, gammaset, paracyclic
from finspan.acceptance import catalog_non_two_segal
from finspan.gammaset import (
    GammaData,
    NotCommutativeError,
    commutative_from_gamma,
    gamma_cell,
    gamma_from_commutative,
)
from finspan.paracyclic import (
    NotFrobeniusError,
    ParacyclicData,
    counit_span,
    frobenius_from_paracyclic,
    paracyclic_from_frobenius,
)
from finspan.pseudomonoid import ConstructionError, build_pseudomonoid
from finspan.reporting import CheckResult, Report
from finspan.simplicial import make_simplicial
from finspan.spans import FinMap, identity_map

NOT_TWO_SEGAL = "2-Segal map at n=3, diagonals ((1, 3),)"


def _planted_failure(*args) -> Report:
    return Report([CheckResult("planted relation", 0)])


def _swap_theta(X) -> FinMap:
    """The swap of the two entries of a pair in the nerve of Z_2, at level 2."""
    pairs = [(a, b) for a in range(2) for b in range(2)]
    return FinMap(X.levels[2], X.levels[2], tuple(pairs.index((b, a)) for a, b in pairs))


def test_build_pseudomonoid_names_the_first_failing_segal_map():
    with pytest.raises(ConstructionError) as error:
        build_pseudomonoid(catalog_non_two_segal())
    assert str(error.value) == f"not 2-Segal: {NOT_TWO_SEGAL}"


def test_build_pseudomonoid_names_the_first_failing_unitality_square():
    X = catalog.nerve(catalog.cyclic_group_category(2), 4)
    degen = [list(row) for row in X.degen]
    s = degen[1][1]
    degen[1][1] = FinMap(s.dom, s.cod, ((s.table[0] + 1) % X.levels[2].size,) + s.table[1:])
    with pytest.raises(ConstructionError) as error:
        build_pseudomonoid(make_simplicial(X.levels, X.face, degen))
    assert str(error.value) == "not unital: unitality square d0/s1"


def test_every_derive_direction_requires_a_two_segal_base():
    X = catalog_non_two_segal()
    P = ParacyclicData(X, tuple(identity_map(level) for level in X.levels))
    G = GammaData(X, ((), (), (_swap_theta(X),), (identity_map(X.levels[3]),) * 2))
    for error, derive in (
        (NotFrobeniusError, lambda: frobenius_from_paracyclic(P)),
        (NotFrobeniusError, lambda: paracyclic_from_frobenius(X, counit_span(X, X.s(0, 0)))),
        (NotCommutativeError, lambda: commutative_from_gamma(G)),
        (NotCommutativeError, lambda: gamma_from_commutative(X, gamma_cell(X, _swap_theta(X)))),
    ):
        with pytest.raises(error) as raised:
            derive()
        assert str(raised.value) == f"base is not 2-Segal: {NOT_TWO_SEGAL}"


def test_paracyclic_from_frobenius_requires_the_derived_relations(monkeypatch):
    P = catalog.interval_cyclic(3, 4)
    eps = frobenius_from_paracyclic(P).counit
    monkeypatch.setattr(paracyclic, "check_paracyclic", _planted_failure)
    with pytest.raises(NotFrobeniusError) as error:
        paracyclic_from_frobenius(P.base, eps)
    assert str(error.value) == "derived structure fails: planted relation"


def test_gamma_from_commutative_requires_the_derived_relations(monkeypatch):
    G = catalog.commutative_monoid_gamma(catalog.interval_monoid(3), 4)
    cell, _ = commutative_from_gamma(G)
    monkeypatch.setattr(gammaset, "check_gamma", _planted_failure)
    with pytest.raises(NotCommutativeError) as error:
        gamma_from_commutative(G.base, cell.gamma)
    assert str(error.value) == "derived structure fails: planted relation"

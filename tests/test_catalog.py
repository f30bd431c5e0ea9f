"""Constructor invariants for every example family."""

import itertools
import random

import pytest

from finspan import catalog
from finspan.gammaset import PhiStarMor, phistar_compose
from finspan.simplicial import check_2segal, check_simplicial_identities, check_unitality
from finspan.spans import FinMap, StructuralError


class TestCategories:
    def test_category_axioms_validated(self):
        for C in (
            catalog.cyclic_group_category(3),
            catalog.chain_poset_category(3),
            catalog.pair_groupoid(2),
        ):
            assert C.then_table  # construction already validates

    def test_groupoid_detection(self):
        assert catalog.cyclic_group_category(4).is_groupoid()
        assert catalog.pair_groupoid(3).is_groupoid()
        assert not catalog.chain_poset_category(3).is_groupoid()

    def test_nerve_sizes_z2(self, nerve_z2):
        assert [l.size for l in nerve_z2.levels] == [1, 2, 4, 8, 16]

    def test_nerve_trivial_group(self):
        X = catalog.nerve(catalog.cyclic_group_category(1), 4)
        assert [l.size for l in X.levels] == [1, 1, 1, 1, 1]

    def test_all_nerves_simplicial_and_segal(self):
        for C in (
            catalog.cyclic_group_category(2),
            catalog.cyclic_group_category(3),
            catalog.chain_poset_category(3),
            catalog.pair_groupoid(2),
        ):
            X = catalog.nerve(C, 4)
            assert check_simplicial_identities(X).ok
            assert check_2segal(X).ok
            assert check_unitality(X).ok


class TestPartialMonoids:
    def test_interval_validates(self):
        M = catalog.interval_monoid(3)
        assert M.is_commutative()

    def test_invalid_monoid_rejected(self):
        from finspan.catalog import PartialMonoid
        from finspan.spans import FinSet

        # drop closure under the unit
        with pytest.raises(StructuralError):
            PartialMonoid(FinSet(2), ((0, -1), (-1, -1)), 0)

    def test_interval_level_sizes(self, interval_l2):
        # pairs with sum <= 2
        assert interval_l2.levels[2].size == 6

    def test_interval_zero_is_trivial(self):
        X = catalog.partial_monoid_nerve(catalog.interval_monoid(0), 4)
        assert [l.size for l in X.levels] == [1, 1, 1, 1, 1]

    @pytest.mark.parametrize("L", range(8))
    def test_monoid_tuples_match_filtered_product(self, L):
        M = catalog.interval_monoid(L)

        def fully_composable(t):
            for a in range(len(t)):
                acc = t[a]
                for b in t[a + 1 :]:
                    if not M.defined(acc, b):
                        return False
                    acc = M.product[acc][b]
            return True

        for n in range(1, 6):
            expected = [t for t in itertools.product(range(L + 1), repeat=n) if fully_composable(t)]
            assert catalog._monoid_tuples(M, n) == expected

    def test_nerves_are_segal(self, interval_l2, interval_l3):
        for X in (interval_l2, interval_l3):
            assert check_simplicial_identities(X).ok
            assert check_2segal(X).ok
            assert check_unitality(X).ok


class TestTwistedCyclicNerves:
    def test_inertia_groupoid_sizes(self):
        g2 = catalog.cyclic_group_category(2)
        X = catalog.twisted_cyclic_nerve(g2, catalog.identity_endofunctor(g2), 4)
        assert X.levels[0].size == 2   # objects are group elements
        assert X.levels[1].size == 4   # pairs (f_1, f_0)

    def test_trivial_category(self):
        one = catalog.cyclic_group_category(1)
        X = catalog.twisted_cyclic_nerve(one, catalog.identity_endofunctor(one), 4)
        assert [l.size for l in X.levels] == [1, 1, 1, 1, 1]

    def test_building_of_chain_is_discrete(self):
        X = catalog.building(3, 4)
        assert [l.size for l in X.levels] == [3, 3, 3, 3, 3]
        assert check_2segal(X).ok

    def test_twisted_nerves_are_segal(self):
        g3 = catalog.cyclic_group_category(3)
        inv = catalog.Endofunctor(
            FinMap(g3.objects, g3.objects, (0,)),
            FinMap(g3.morphisms, g3.morphisms, (0, 2, 1)),
        )
        for F in (catalog.identity_endofunctor(g3), inv):
            X = catalog.twisted_cyclic_nerve(g3, F, 4)
            assert check_simplicial_identities(X).ok
            assert check_2segal(X).ok

    def test_non_automorphism_rejected_for_translations(self):
        g2 = catalog.cyclic_group_category(2)
        collapse = catalog.Endofunctor(
            FinMap(g2.objects, g2.objects, (0,)),
            FinMap(g2.morphisms, g2.morphisms, (0, 0)),
        )
        with pytest.raises(StructuralError):
            catalog.twisted_cyclic_paracyclic(g2, collapse, 4)


class TestGraphPartitions:
    def test_single_edge_level_one(self):
        G = catalog.Graph(catalog.FinSet(2), frozenset({frozenset((0, 1))}))
        data = catalog.graph_partition_gamma(G, 3)
        # level 1: one block per vertex-or-absent assignment
        assert data.base.levels[1].size == 4

    def test_empty_graph_constant(self):
        G = catalog.Graph(catalog.FinSet(0), frozenset())
        data = catalog.graph_partition_gamma(G, 4)
        assert [l.size for l in data.base.levels] == [1, 1, 1, 1, 1]

    def test_path3_is_segal(self, path3_gamma):
        X = path3_gamma.base
        assert check_simplicial_identities(X).ok
        assert check_2segal(X).ok
        assert check_unitality(X).ok

    def test_functor_on_random_morphisms(self, path3_gamma):
        from finspan.gammaset import evaluate_gamma

        rng = random.Random(4)
        G = path3_gamma
        for _ in range(50):
            n, m, k = (rng.randrange(0, 5) for _ in range(3))
            f = PhiStarMor(n, m, tuple(rng.randrange(0, m + 1) for _ in range(n)))
            g = PhiStarMor(m, k, tuple(rng.randrange(0, k + 1) for _ in range(m)))
            lhs = evaluate_gamma(G, phistar_compose(f, g))
            rhs = evaluate_gamma(G, f).then(evaluate_gamma(G, g))
            assert lhs.table == rhs.table

    def test_direct_functor_matches_generator_actions(self):
        """The pointed-map formula and the generated simplicial structure
        agree map for map."""
        from finspan.catalog import _partition_elements, graph_partition_action
        from finspan.gammaset import phistar_d, phistar_d_top, phistar_s

        G = catalog.path_graph(3)
        data = catalog.graph_partition_gamma(G, 4)
        X = data.base
        elems = [_partition_elements(G, n) for n in range(5)]
        index = [{t: i for i, t in enumerate(ts)} for ts in elems]
        for n in range(1, 5):
            for i in range(n + 1):
                f = phistar_d(n, i) if i < n else phistar_d_top(n)
                for t in elems[n]:
                    assert X.d(n, i).table[index[n][t]] == \
                        index[n - 1][graph_partition_action(G, f, t)]
        for n in range(4):
            for i in range(n + 1):
                f = phistar_s(n, i)
                for t in elems[n]:
                    assert X.s(n, i).table[index[n][t]] == \
                        index[n + 1][graph_partition_action(G, f, t)]


class TestNoLiftFamily:
    def test_singleton_is_truncated_z2_nerve(self, nerve_z2):
        T = catalog.no_lift_family(1)
        from finspan.pseudomonoid import two_truncation

        Z = two_truncation(nerve_z2)
        # same shape: relabel the 2-simplices by their face triples
        def profile(data):
            return sorted(
                (data.d2[2].table[e], data.d2[0].table[e], data.d2[1].table[e])
                for e in data.x2
            )

        assert T.x1.size == Z.x1.size
        assert profile(T) == profile(Z)
        assert T.s1[0].then(T.d2[0]).table == Z.s1[0].then(Z.d2[0]).table

    def test_m100_is_singleton(self):
        T = catalog.no_lift_family(3)
        from finspan.pseudomonoid import taco_pairs

        left, _ = taco_pairs(T)
        d0, d1, d2 = T.d2
        m100 = [p for p in left
                if (d2.table[p[0]], d0.table[p[0]], d0.table[p[1]]) == (1, 0, 0)]
        assert len(m100) == 1

    def test_empty_label_set(self):
        T = catalog.no_lift_family(0)
        assert T.x2.size == 3


class TestParacyclicAndGammaFixturesValidate:
    def test_every_paracyclic_fixture(self):
        from finspan.paracyclic import check_paracyclic

        for P in (
            catalog.groupoid_cyclic(catalog.cyclic_group_category(2), 4),
            catalog.interval_cyclic(3, 4),
            catalog.constant_point_paracyclic(4),
        ):
            assert check_simplicial_identities(P.base).ok
            assert check_paracyclic(P).ok

    def test_every_gamma_fixture(self, interval_l3_gamma, path3_gamma):
        from finspan.gammaset import check_gamma

        for G in (interval_l3_gamma, path3_gamma):
            assert check_simplicial_identities(G.base).ok
            assert check_gamma(G).ok

    def test_invalid_bisection_rejected(self):
        C = catalog.pair_groupoid(2)
        bad = FinMap(C.objects, C.morphisms, (1, 1))  # target map not bijective
        with pytest.raises(StructuralError):
            catalog.groupoid_cyclic(C, 4, bisection=bad)

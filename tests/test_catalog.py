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

    @pytest.mark.parametrize("k", [0, -1])
    def test_cyclic_group_needs_an_element(self, k):
        with pytest.raises(StructuralError, match=f"got k={k}$"):
            catalog.cyclic_group_category(k)

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
            assert catalog._monoid_levels(M, n)[n] == expected

    def test_nerves_are_segal(self, interval_l2, interval_l3):
        for X in (interval_l2, interval_l3):
            assert check_simplicial_identities(X).ok
            assert check_2segal(X).ok
            assert check_unitality(X).ok

    def test_interval_example_builds_one_nerve(self, monkeypatch):
        calls = []
        nerve = catalog._monoid_nerve
        monkeypatch.setattr(catalog, "_monoid_nerve", lambda M, N: calls.append(N) or nerve(M, N))
        doc = catalog.example("interval", 4, 2, 3, 1)
        assert calls == [4]
        assert doc.paracyclic.base is doc.gamma.base
        assert doc.paracyclic.tau == catalog.interval_cyclic(3, 4).tau
        assert doc.gamma.theta_tables == catalog.commutative_monoid_gamma(catalog.interval_monoid(3), 4).theta_tables


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


def _catalog_documents():
    """Every catalog family across a grid of sizes, as (name, document);
    the shipped fixtures pin N = 4 only."""
    from finspan.documents import StructureDocument

    for N in (3, 4, 5):
        for k in (1, 2, 3):
            for name, C in (
                ("z", catalog.cyclic_group_category(k)),
                ("pairs", catalog.pair_groupoid(k)),
            ):
                P = catalog.groupoid_cyclic(C, N)
                yield f"{name}{k}_n{N}", StructureDocument(catalog.nerve(C, N), paracyclic=P)
            yield f"chain{k}_n{N}", StructureDocument(catalog.nerve(catalog.chain_poset_category(k), N))
            yield f"building{k}_n{N}", StructureDocument(catalog.building(k, N))
            G = catalog.graph_partition_gamma(catalog.path_graph(k), N)
            yield f"path{k}_n{N}", StructureDocument(G.base, gamma=G)
        for k in (2, 3):
            C = catalog.pair_groupoid(k)
            shift = FinMap(C.objects, C.morphisms, tuple(u * k + (u + 1) % k for u in range(k)))
            P = catalog.groupoid_cyclic(C, N, bisection=shift)
            yield f"pairs{k}_shift_n{N}", StructureDocument(P.base, paracyclic=P)
            g = catalog.cyclic_group_category(k)
            inversion = catalog.Endofunctor(
                FinMap(g.objects, g.objects, (0,)),
                FinMap(g.morphisms, g.morphisms, tuple((-f) % k for f in range(k))),
            )
            for twist, F in (("identity", catalog.identity_endofunctor(g)), ("inversion", inversion)):
                P = catalog.twisted_cyclic_paracyclic(g, F, N)
                yield f"twisted_z{k}_{twist}_n{N}", StructureDocument(
                    catalog.twisted_cyclic_nerve(g, F, N), paracyclic=P
                )
        for L in range(5):
            P = catalog.interval_cyclic(L, N)
            G = catalog.commutative_monoid_gamma(catalog.interval_monoid(L), N)
            yield f"interval{L}_n{N}", StructureDocument(P.base, paracyclic=P, gamma=G)


RECORDED_DIGESTS = {
    "z1_n3": "74fb9c485aae6f2add7c4f3b20e6f192bb1cb8f787ecbf0ad4de3b6e6afd3fe1",
    "pairs1_n3": "74fb9c485aae6f2add7c4f3b20e6f192bb1cb8f787ecbf0ad4de3b6e6afd3fe1",
    "chain1_n3": "84c975ec10ee849fb367cee430ae3b055512e3d91ee5d0ce7c6b8568a4121705",
    "building1_n3": "84c975ec10ee849fb367cee430ae3b055512e3d91ee5d0ce7c6b8568a4121705",
    "path1_n3": "417a510101471e59e321df029496449b2b8eec1df97e998f14a9729e97cf03fe",
    "z2_n3": "57e60da34e3ce32f9e99e071fad6b2dc478d2c9bfd4e3f673c94334a73ab030e",
    "pairs2_n3": "56b907e960e34e6f2c31c8724c382c6ef4963ca05dedb800cae0bf1a4e778f4b",
    "chain2_n3": "1012c4ccc99b628fa5653b2812ec42fcfdddbbaba32a491c9f21428887101972",
    "building2_n3": "5ac5ed3da224868716d62f1a4dcc4f19930d230e2aad0d94c1519758e75bd759",
    "path2_n3": "3c0e30ffd8f05be14c00830477eb463034ed4b5201563c8d63b76fd4cf969872",
    "z3_n3": "20cb85f1093eaa9c5de665d4e97b312a0ca9220cd9f746d0428ab96bf036d680",
    "pairs3_n3": "5f28173fd9a7c2169352e2cb769e474814487881aad67a9a1856ffdfc1aadcbf",
    "chain3_n3": "6bbd96d07a7ada647430b4e5e96b6b5cfde979d6007d9a4aec83311f53a82637",
    "building3_n3": "2f9fcbb3c4837199fa5901cf8c06382910389b8c5221ea5ee377556420a85c03",
    "path3_n3": "2f11b24887d8a416fab3daf317a342d61173fe086a87f76ed165162d8575c68e",
    "pairs2_shift_n3": "a5ddaff36304047d6cbc75c499f059c2e5b738b0e401a72508243b3ab286e6e2",
    "twisted_z2_identity_n3": "0f4babf30aec06bf61857d07e641649264e5d1c5f5b8c927e070ee764b0ea777",
    "twisted_z2_inversion_n3": "0f4babf30aec06bf61857d07e641649264e5d1c5f5b8c927e070ee764b0ea777",
    "pairs3_shift_n3": "32fce939c757f3792dbbcf834b2bba0585bb75073f0c90fd1983c9964df2bbff",
    "twisted_z3_identity_n3": "759cef055b0b7cb162eecb4faff51b7474efd83cc50d0f07d830b2e8ce93d9ee",
    "twisted_z3_inversion_n3": "3ce1a82baae2b02b96809961d2d3998e18e745c8de93d8976ccf46014434ffda",
    "interval0_n3": "2a2dc9c14cc41ae5ac4799205b8c209ec082d3c8904369c7d56aa9f8e7d20ce0",
    "interval1_n3": "f16f6c5ab57f18631caccdd3b92f8069aa38b0ef86c02a8d1de7b20c85727dd0",
    "interval2_n3": "45b4e4432d5a142a85a3634e6d74fe0eaa0ceccfcb092b3f12cd1195cc034d18",
    "interval3_n3": "9c0d35857808d23a8eb5987eb59e4246e34598b9a3e80fba2d7e5d683f3a07de",
    "interval4_n3": "82558ce05e93ff4d50eedf5cef488d3df70a16ccbe731fb4a6e81c26b8307f54",
    "z1_n4": "6f34c0bad32954a238534f05dd766f3cc038da5f583bbd954c4c82eeffec3da9",
    "pairs1_n4": "6f34c0bad32954a238534f05dd766f3cc038da5f583bbd954c4c82eeffec3da9",
    "chain1_n4": "0cf63cc9f0133905506500dd7aa560335aeea205b8221d304b81b748e8998118",
    "building1_n4": "0cf63cc9f0133905506500dd7aa560335aeea205b8221d304b81b748e8998118",
    "path1_n4": "bf3de6c413572c918d5aaf943d4a860c1495eb8e72b7a16327a4fa683c9c4745",
    "z2_n4": "d39d2a712a02cf4eb9742e5c14bef15a2317aa2c895d7d42db2f0677e901c111",
    "pairs2_n4": "4d382376c085878101277c22048a33d2184f7b18a1dfacdab76170a4f1901af4",
    "chain2_n4": "5e4d109747bc7a0021e977c29c9eb0f85bbe9dfa1bf7944115e6711a7e2bca7e",
    "building2_n4": "5f34046fbbc6b661730d1ba571b5b34668b5db0b337cf9ef2a848d4bdfc19f22",
    "path2_n4": "51961a9670b2ab94b018a958cd2b5e5f6e97cb32b79b9d10d8f14fd39eec869c",
    "z3_n4": "3bed5483a55e064f6cdb53e7a7bc4df320d5181fee35fdd83b57e2699f39ed3b",
    "pairs3_n4": "6c038762bf256a45ce893fe67d1735de31ed97a99e15ed255d72cf31f86f2146",
    "chain3_n4": "cb93e5eb641e6690826c144c2ad6886fe1558a99ba46e8d97850c57269acc5d5",
    "building3_n4": "7e2a90cc5763a2d946bfb0f0554c02665b4da9398ad5eb66c1eb69a003115c40",
    "path3_n4": "4525f37671ed834ec270f86cecb83c73710f82d62a462979a3298b50b3bdc5c1",
    "pairs2_shift_n4": "8eaf999a9423bd0193191f9a6051895ec70c275962682b507fb37a29e87728f1",
    "twisted_z2_identity_n4": "1a17b8e6db8935ed2541fc0f1be2f911e84dbfb48e31a54672fed9e9550d3713",
    "twisted_z2_inversion_n4": "1a17b8e6db8935ed2541fc0f1be2f911e84dbfb48e31a54672fed9e9550d3713",
    "pairs3_shift_n4": "153be01ebf91fb79f5934993b9cb714f7d6528be390d5829d38b1084cfa642e7",
    "twisted_z3_identity_n4": "e8deae71449a6a8094bb61e90afd22a4dd37ee89b01def7b64f317a058d2708c",
    "twisted_z3_inversion_n4": "eb942b28ae4ccc09daa8a2abb888e78b2e18c0e646d87de007570b6ad2b11058",
    "interval0_n4": "ea8b0654a18b2c82aaf4c0dbeb50ba63f49dfb1876614a8954320f109ac9de4d",
    "interval1_n4": "98372b49ea4b4e906239f534b6ff21ee77a25686d2417c8060a4b0e6c810eeb9",
    "interval2_n4": "feabbe2ec38c00e52b45bd73705bfbc567fec983158a63b592c5da58f9705ba1",
    "interval3_n4": "0d8b51a806beb63a13020d12d270d85d29a83fbf6539f13e7e3fc4b40162ecd1",
    "interval4_n4": "abb1b87122999180c081bd2407ecbff5e427f140603c737b1efc7c3f13db7b74",
    "z1_n5": "d1a8f3e48078369ab136f7584f0fa8c739339c9e89b54f36b4e7091776431e35",
    "pairs1_n5": "d1a8f3e48078369ab136f7584f0fa8c739339c9e89b54f36b4e7091776431e35",
    "chain1_n5": "7f62596b9666ff9301d9a99e93385a96e125be5dfc618c9fd8e9f56ca1ecd68e",
    "building1_n5": "7f62596b9666ff9301d9a99e93385a96e125be5dfc618c9fd8e9f56ca1ecd68e",
    "path1_n5": "be513f539053c849719b48b8c70e0696438ccd33093851d516a4c62d446d2e96",
    "z2_n5": "0b616e06b56b068078d772c7f3822651e4ee4b4f80290d765da1d4828896c44b",
    "pairs2_n5": "f85dac79e5c4ee4a2f1d4ef95a9715d22ef810ae3edffa8b4c6e9bfaac11c061",
    "chain2_n5": "9f317502e5b734a30f338fd30571557f28d45dece4a0d82221d70ea84ada9ebb",
    "building2_n5": "348f59837741838d0f4ec431a762beed7dd5eccb5c4e975c947e9559059ee0d1",
    "path2_n5": "4315cdc2224c55b07c510fc047aec6e3f7334e34d5262eb0de896554ffa407cf",
    "z3_n5": "f90d655719d891f4246b70da52db465c75146ff6c3d1be9d60861e26d7253663",
    "pairs3_n5": "e639984ce8e1d30dc3c888803ba2c9bb5c21d5bf49ff1d7b94e4f560baab273b",
    "chain3_n5": "4d992c723b0bd5e20043aecf01500419378d87ce6d48e45a05c0072c62d971d3",
    "building3_n5": "1843c7837f7dc7f9cdb37777846c3a1af1077d67cdbdd46d68d658a40241e4ad",
    "path3_n5": "9e9922f786b2dcefbb2c8d3f5a9d29dab8a34db05b0eda81cd0710c690199a61",
    "pairs2_shift_n5": "beb0b464c35d76abc7b32538549d4b56b4e640901e69bf57ccec99de44755455",
    "twisted_z2_identity_n5": "89d135d18a616cf9ca0cd837850d8243a0792dc6503bf8c67ed8decf73dc871a",
    "twisted_z2_inversion_n5": "89d135d18a616cf9ca0cd837850d8243a0792dc6503bf8c67ed8decf73dc871a",
    "pairs3_shift_n5": "033e604a1d010e25afc1f976713ede0b0fd642912ba1848d833cfb1701b45e20",
    "twisted_z3_identity_n5": "434fdd8e265e04bddd8945c3cdfcd5c824e2874b8d298c72d6a62b178f84f971",
    "twisted_z3_inversion_n5": "191a017c0486607845e49ee11a0d3dccc9b12a208cb1b43f162939d2f3d674a1",
    "interval0_n5": "3b8ed83302086ee14d6e855b66a5de43656cc21dac9479a64b968bfc557f53a4",
    "interval1_n5": "d4af1bb36f03a9b8285e32623ab05cbe95f9a7fa87b3555ef4ff7cdcad3cb42d",
    "interval2_n5": "a98463d0baf4532a927bea5dbbd99805bb801a21858bbfddc260acb63f53f843",
    "interval3_n5": "a3a41be04f8e3feb60c213c5dadd22cd3114011e3cc81e2a2cad99c70942e45b",
    "interval4_n5": "921b4ed84e177b731a98cb9732707e986a1221c4a83f78ca362c41384205c3c0",
}


def test_catalog_documents_match_recorded_digests():
    """Every family's document is byte-identical to the recorded one."""
    import hashlib

    from finspan.documents import dumps_document

    digests = {
        name: hashlib.sha256(dumps_document(doc).encode()).hexdigest()
        for name, doc in _catalog_documents()
    }
    assert digests == RECORDED_DIGESTS

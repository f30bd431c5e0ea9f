"""The paracyclic operator calculus and the Frobenius correspondence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspan import catalog
from finspan.paracyclic import (
    LambdaMor,
    NotFrobeniusError,
    ParacyclicData,
    _glued_tower,
    check_cyclic,
    check_extra_degeneracy_relations,
    check_lambda_relations,
    check_paracyclic,
    counit_span,
    delta_action,
    evaluate,
    frobenius_from_paracyclic,
    frobenius_witnesses,
    lambda_compose,
    lambda_delta,
    lambda_factorize,
    lambda_identity,
    lambda_recompose,
    lambda_sigma,
    lambda_t,
    paracyclic_from_frobenius,
)
from finspan.simplicial import Triangulation, fan_triangulation, vertex_map
from finspan.spans import FinMap, FinSet, Span, StructuralError, UNIT, constant_map
from test_simplicial import differential_inputs, empty_structure, loop_glue, outcome


def all_paracyclic_fixtures():
    C2 = catalog.pair_groupoid(2)
    omega = FinMap(C2.objects, C2.morphisms, (1, 2))
    G2 = catalog.cyclic_group_category(2)
    return {
        "z2": catalog.groupoid_cyclic(catalog.cyclic_group_category(2), 4),
        "pair": catalog.groupoid_cyclic(C2, 4),
        "bisection": catalog.groupoid_cyclic(C2, 4, bisection=omega),
        "interval2": catalog.interval_cyclic(2, 4),
        "interval3": catalog.interval_cyclic(3, 4),
        "twisted": catalog.twisted_cyclic_paracyclic(G2, catalog.identity_endofunctor(G2), 4),
        "point": catalog.constant_point_paracyclic(4),
    }


class TestLambdaCategory:
    def test_translation_inverse(self):
        t = lambda_t(3)
        tinv = lambda_t(3, -1)
        assert lambda_compose(t, tinv) == lambda_identity(3)

    def test_extra_codegeneracy_against_first_coface(self):
        for n in range(5):
            lhs = lambda_compose(lambda_delta(n + 1, 0), lambda_sigma(n, n + 1))
            assert lhs == lambda_t(n)

    def test_factorize_extra_codegeneracy(self):
        # the extra codegeneracy factors through sigma_0 with one backward
        # translation step
        for n in range(5):
            g, a = lambda_factorize(lambda_sigma(n, n + 1))
            assert a == -1
            assert g == lambda_sigma(n, 0)

    def test_factorize_fixes_delta(self):
        for n in range(1, 5):
            for i in range(n + 1):
                g, a = lambda_factorize(lambda_delta(n, i))
                assert a == 0 and g == lambda_delta(n, i)

    @given(st.integers(0, 6), st.integers(0, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_factorize_recompose(self, m, n, data):
        v0 = data.draw(st.integers(-20, 20))
        vals = tuple(sorted(
            data.draw(st.integers(v0, v0 + n + 1)) for _ in range(m + 1)
        ))
        f = LambdaMor(m, n, vals)
        g, a = lambda_factorize(f)
        assert g.in_delta()
        assert lambda_recompose(g, a) == f

    def test_relations_up_to_six(self):
        assert check_lambda_relations(6).ok

    def test_relations_cover_every_relation_of_the_hand_written_check(self):
        # each relation the earlier hand-written check made up to level 6,
        # under the name of the structure check that states it; "level n"
        # of a cosimplicial identity there is the simplicial level n + 1
        # (faces) or n - 1 (degeneracies, mixed) here
        names = {r.name for r in check_lambda_relations(6).results}
        expected = {f"d_{i} tau relation at level {n}" for n in range(1, 7) for i in range(n + 1)}
        expected |= {f"s_{i} tau relation at level {n}" for n in range(7) for i in range(n + 1)}
        expected |= {f"s_extra = s_0 tau at level {n}" for n in range(7)}
        expected |= {f"exceptional rule d_0 s_extra = tau at level {n}" for n in range(7)}
        expected |= {f"d_top s_extra = id at level {n}" for n in range(7)}
        expected |= {f"d_{i} s_extra at level {n}" for n in range(7) for i in range(1, n + 1)}
        expected |= {f"s_{i} s_extra at level {n}" for n in range(7) for i in range(n + 1)}
        expected |= {f"s_extra s_extra at level {n}" for n in range(7)}
        expected |= {f"simplicial identity d_{i} d_{j + 1} = d_{j} d_{i} at level {n + 1}"
                     for n in range(1, 6) for i in range(n + 1) for j in range(i, n + 1)}
        expected |= {f"simplicial identity s_{i} s_{j} = s_{j + 1} s_{i} at level {n - 1}"
                     for n in range(1, 6) for j in range(n) for i in range(j + 1)}
        expected |= {f"simplicial identity d_{i} s_{j} mixed identity at level {n - 1}"
                     for n in range(1, 7) for j in range(n) for i in range(n + 1)
                     if n >= 2 or i in (j, j + 1)}
        assert len(expected) == 334
        assert expected <= names

    def test_invalid_values_rejected(self):
        with pytest.raises(StructuralError):
            LambdaMor(1, 1, (0, 3))
        with pytest.raises(StructuralError):
            LambdaMor(1, 1, (1, 0))


class TestEvaluation:
    def test_translation_acts_as_tau(self, interval_l2_cyclic):
        P = interval_l2_cyclic
        for n in range(5):
            assert evaluate(P, lambda_t(n)).table == P.tau[n].table

    def test_extra_codegeneracy_acts_as_extra_degeneracy(self, interval_l2_cyclic):
        P = interval_l2_cyclic
        for n in range(4):
            assert evaluate(P, lambda_sigma(n, n + 1)).table == P.extra_degeneracy(n).table

    def test_functoriality_on_random_pairs(self, interval_l2_cyclic):
        P = interval_l2_cyclic
        rng = random.Random(0)
        for _ in range(200):
            m, n, k = (rng.randrange(0, 5) for _ in range(3))

            def rand(m_, n_):
                v0 = rng.randrange(-9, 9)
                return LambdaMor(m_, n_, tuple(sorted(
                    rng.randint(v0, v0 + n_ + 1) for _ in range(m_ + 1)
                )))

            f, g = rand(m, n), rand(n, k)
            assert evaluate(P, lambda_compose(f, g)).table == \
                evaluate(P, g).then(evaluate(P, f)).table

    def test_monotone_action_matches_tables(self, nerve_z2):
        X = nerve_z2
        for n in range(1, 5):
            for i in range(n + 1):
                assert delta_action(X, lambda_delta(n, i)).table == X.d(n, i).table
        for n in range(4):
            for i in range(n + 1):
                assert delta_action(X, lambda_sigma(n, i)).table == X.s(n, i).table


class TestParacyclicStructures:
    @pytest.mark.parametrize("name", ["z2", "pair", "bisection", "interval2", "interval3", "twisted", "point"])
    def test_relations(self, name):
        P = all_paracyclic_fixtures()[name]
        assert check_paracyclic(P).ok
        assert check_extra_degeneracy_relations(P).ok

    def test_groupoid_tau_formula(self, z2_groupoid_cyclic):
        # tau on 1-simplices of a group nerve is inversion
        P = z2_groupoid_cyclic
        assert P.tau[1].table == (0, 1)  # in Z2 every element is its own inverse
        P3 = catalog.groupoid_cyclic(catalog.cyclic_group_category(3), 4)
        assert P3.tau[1].table == (0, 2, 1)

    def test_detects_mutated_tau(self, interval_l2_cyclic):
        P = interval_l2_cyclic
        tau = list(P.tau)
        table = list(tau[2].table)
        table[0], table[1] = table[1], table[0]
        tau[2] = FinMap(tau[2].dom, tau[2].cod, tuple(table))
        rep = check_paracyclic(ParacyclicData(P.base, tuple(tau)))
        assert not rep.ok
        assert "tau" in rep.failures[0].name
        assert rep.failures[0].witness is not None

    def test_ss_lemma_identities(self):
        for P in all_paracyclic_fixtures().values():
            X = P.base
            s1_0 = P.extra_degeneracy(0)
            s2_1 = P.extra_degeneracy(1)
            assert s1_0.then(X.s(1, 0)).table == X.s(0, 0).then(s2_1).table
            assert s1_0.then(X.s(1, 1)).table == s1_0.then(s2_1).table


class TestFrobeniusCorrespondence:
    @pytest.mark.parametrize("name", ["z2", "pair", "bisection", "interval2", "interval3", "twisted"])
    def test_round_trip_tau_exact(self, name):
        P = all_paracyclic_fixtures()[name]
        C = frobenius_from_paracyclic(P)
        P2 = paracyclic_from_frobenius(P.base, C.counit)
        for n, (a, b) in enumerate(zip(P.tau, P2.tau)):
            assert a.table == b.table, f"tau at level {n}"

    @pytest.mark.parametrize("name", ["z2", "interval2", "twisted"])
    def test_reverse_round_trip_s10_exact(self, name):
        P = all_paracyclic_fixtures()[name]
        C = frobenius_from_paracyclic(P)
        P2 = paracyclic_from_frobenius(P.base, C.counit)
        C2 = frobenius_from_paracyclic(P2)
        assert C.s1_0.table == C2.s1_0.table

    def test_interval_counit_form(self, interval_l2_cyclic):
        # the counit picks the top element: s_1^0(*) = L, tau^1(x) = L - x
        C = frobenius_from_paracyclic(interval_l2_cyclic)
        assert C.counit.apex.size == 1
        assert C.s1_0.table == (2,)
        assert C.tau1.table == (2, 1, 0)

    def test_unit_transpose_counit_on_z2(self, nerve_z2, z2_groupoid_cyclic):
        # the counit picking the identity element has pairing fibers
        # {(g, g^{-1})} and extracts inversion
        X = nerve_z2
        eps = counit_span(X, X.s(0, 0))
        P = paracyclic_from_frobenius(X, eps)
        assert P.tau[1].table == z2_groupoid_cyclic.tau[1].table

    def test_fat_counit_rejected(self, nerve_z2):
        X = nerve_z2
        apex = FinSet(2)
        eps = Span(X.levels[1], UNIT, apex,
                   FinMap(apex, X.levels[1], (0, 0)), constant_map(apex, UNIT))
        with pytest.raises(NotFrobeniusError):
            paracyclic_from_frobenius(X, eps)

    def test_non_bijective_pairing_rejected(self, interval_l2):
        # the identity-picking counit is not Frobenius on the interval:
        # 2 + 2 is undefined, so the fiber over 2 is empty
        X = interval_l2
        eps = counit_span(X, X.s(0, 0))
        with pytest.raises(NotFrobeniusError):
            paracyclic_from_frobenius(X, eps)


class TestWitnesses:
    def test_trivial_example(self):
        P = catalog.constant_point_paracyclic(4)
        C = frobenius_from_paracyclic(P)
        w = frobenius_witnesses(C)
        assert w.report.ok
        assert w.zig.map.table == (0,)
        assert w.zag.map.table == (0,)

    @pytest.mark.parametrize("name", ["z2", "interval2", "interval3", "bisection"])
    def test_snake_coherences(self, name):
        P = all_paracyclic_fixtures()[name]
        C = frobenius_from_paracyclic(P)
        w = frobenius_witnesses(C)
        assert w.report.ok
        assert w.zig.is_invertible() and w.zag.is_invertible()
        # the copairing is a graph-form span over the carrier
        x1 = P.base.levels[1]
        assert w.beta.apex.size == x1.size
        tinv = C.tau1.inverse()
        assert w.beta.right.table == tuple(
            x * x1.size + tinv.table[x] for x in x1
        )

    def test_brute_force_graph_copairing_search(self, z2_groupoid_cyclic):
        """Independent oracle: enumerate graph-form copairings with apex the
        carrier and check exactly the derived one passes both snakes."""
        import itertools

        P = z2_groupoid_cyclic
        C = frobenius_from_paracyclic(P)
        x1 = P.base.levels[1]
        tau = C.tau1
        passing = []
        for perm in itertools.permutations(range(x1.size)):
            # candidate beta: x -> (x, perm(x)); zig demands tau(perm(x)) = x
            if all(tau.table[perm[x]] == x for x in x1):
                passing.append(perm)
        assert passing == [tuple(tau.inverse().table)]


class TestCyclicity:
    def test_standard_structures_cyclic(self):
        fixtures = all_paracyclic_fixtures()
        for name in ("z2", "pair", "interval2", "interval3", "twisted"):
            res = check_cyclic(fixtures[name])
            assert res.verdict == "cyclic"
            assert res.agree

    def test_swap_bisection_paracyclic_only(self):
        res = check_cyclic(all_paracyclic_fixtures()["bisection"])
        assert res.verdict == "paracyclic-only"
        assert res.agree

    def test_central_bisection_cyclic(self):
        # the identity bisection is central
        C2 = catalog.pair_groupoid(2)
        P = catalog.groupoid_cyclic(C2, 4, bisection=C2.identity)
        res = check_cyclic(P)
        assert res.verdict == "cyclic"

    def test_twisted_inversion_paracyclic_only(self):
        G3 = catalog.cyclic_group_category(3)
        F = catalog.Endofunctor(
            FinMap(G3.objects, G3.objects, (0,)),
            FinMap(G3.morphisms, G3.morphisms, (0, 2, 1)),
        )
        res = check_cyclic(catalog.twisted_cyclic_paracyclic(G3, F, 4))
        assert res.verdict == "paracyclic-only"
        assert res.agree


# ---------------------------------------------------------------------------
# batch gluing against the per-simplex loops


def loop_tower(X, s1_0, s2_1):
    """The extra degeneracies and translations of `paracyclic_from_frobenius`
    with one glue per simplex, as they were before batches."""
    extra = {0: s1_0, 1: s2_1}
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
            table.append(loop_glue(X, T_new, tuple(comps[t] for t in sorted(comps))))
        extra[n] = FinMap(X.levels[n], X.levels[n + 1], tuple(table))
    tau = [s1_0.then(X.d(1, 0))]
    for n in range(1, X.N):
        tau.append(extra[n].then(X.d(n + 1, 0)))

    N = X.N
    T_fan = Triangulation(N, tuple(sorted(fan_triangulation(list(range(N + 1)), anchor=0))))
    table = []
    for psi in X.levels[N]:
        comps = {}
        for i in range(1, N):
            tri = (0, i, i + 1)
            if i <= N - 2:
                comps[tri] = vertex_map(X, N, (1, i + 1, i + 2)).table[psi]
            else:
                comps[tri] = tau[2].table[vertex_map(X, N, (0, 1, N)).table[psi]]
        table.append(loop_glue(X, T_fan, tuple(comps[t] for t in sorted(comps))))
    tau.append(FinMap(X.levels[N], X.levels[N], tuple(table)))
    return extra, tau


class TestBatchGluing:
    def test_tower_matches_the_loops(self):
        # the last degeneracy s_1 always glues along the outgoing edge; a
        # seeded map X_1 -> X_2 mostly does not
        rng = random.Random(11)
        raised = glued = 0
        for _, X in differential_inputs():
            seeded = FinMap(X.levels[1], X.levels[2], tuple(
                rng.randrange(X.levels[2].size) for _ in X.levels[1]))
            for s2_1 in (X.s(1, 1), seeded):
                got = outcome(_glued_tower, X, X.s(0, 0), s2_1)
                assert got == outcome(loop_tower, X, X.s(0, 0), s2_1)
                raised += got[0] == "GluingError"
                glued += got[0] != "GluingError"
        assert raised and glued

    @pytest.mark.parametrize("P", [
        catalog.groupoid_cyclic(catalog.cyclic_group_category(3), 5),
        catalog.groupoid_cyclic(catalog.pair_groupoid(3), 5),
        catalog.interval_cyclic(5, 5),
    ], ids=["Z_3", "pair_groupoid(3)", "interval L=5"])
    def test_derived_translations_match_the_loops(self, P):
        derived = paracyclic_from_frobenius(P.base, frobenius_from_paracyclic(P).counit)
        _, tau = loop_tower(P.base, P.extra_degeneracy(0), P.extra_degeneracy(1))
        assert derived.tau == tuple(tau) == P.tau

    def test_an_empty_structure_glues_nothing(self):
        X = empty_structure(4)
        extra, tau = _glued_tower(X, X.s(0, 0), X.s(1, 1))
        assert [t.table for t in tau] == [()] * 5
        assert all(s.table == () for s in extra.values())

"""Pointed-cardinal morphisms, the interstice functor, Gamma structures,
and the commutativity correspondence."""

import pathlib
import random

import pytest

from finspan import catalog
from finspan.documents import load_document
from finspan.gammaset import (
    GammaData,
    NotCommutativeError,
    PhiStarMor,
    check_gamma,
    check_phistar_relations,
    commutative_from_gamma,
    _mu_box,
    crossing_map,
    cut,
    evaluate_gamma,
    gamma_cell,
    gamma_from_commutative,
    gamma_rule,
    permutation_action,
    phistar_compose,
    phistar_d,
    phistar_d_top,
    phistar_factorize,
    phistar_identity,
    phistar_recompose,
    phistar_s,
    phistar_theta,
    span_level_commutativity,
    theta_via_triangulation,
)
from finspan.paracyclic import LambdaMor, delta_action, lambda_compose, lambda_delta, lambda_sigma
from finspan.simplicial import T13, _triangulation_with_triangle, enumerate_triangulations, vertex_map
from finspan.spans import FinMap, StructuralError
from test_simplicial import differential_inputs, empty_structure, loop_glue, outcome

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


class TestPhiStar:
    def test_identity_factorizes_to_empty_word(self):
        assert phistar_factorize(phistar_identity(4)) == ()

    def test_collapse_to_basepoint_factorization(self):
        # <2> -> <1> sending 1 to 1 and 2 to the basepoint
        f = PhiStarMor(2, 1, (1, 0))
        word = phistar_factorize(f)
        assert phistar_recompose(2, word) == f
        assert all(kind in ("theta", "d", "s") for kind, _, _ in word)

    def test_braid_relation(self):
        lhs = phistar_compose(
            phistar_compose(phistar_theta(3, 1), phistar_theta(3, 2)), phistar_theta(3, 1)
        )
        rhs = phistar_compose(
            phistar_compose(phistar_theta(3, 2), phistar_theta(3, 1)), phistar_theta(3, 2)
        )
        assert lhs == rhs

    def test_random_factorize_recompose(self):
        rng = random.Random(0)
        for _ in range(300):
            n, m = rng.randrange(0, 6), rng.randrange(0, 6)
            f = PhiStarMor(n, m, tuple(rng.randrange(0, m + 1) for _ in range(n)))
            assert phistar_recompose(n, phistar_factorize(f)) == f

    def test_factorize_recompose_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.integers(0, 6), st.integers(0, 6), st.data())
        @settings(max_examples=150, deadline=None)
        def run(n, m, data):
            table = tuple(data.draw(st.integers(0, m)) for _ in range(n))
            f = PhiStarMor(n, m, table)
            assert phistar_recompose(n, phistar_factorize(f)) == f

        run()

    def test_relations_up_to_six(self):
        assert check_phistar_relations(6).ok

    def test_relations_cover_every_relation_of_the_hand_written_check(self):
        # each relation the earlier hand-written check made up to <6>, under
        # the name of the structure check that states it; the final face at
        # <1> is the pointed collapse, the same two words
        names = {r.name for r in check_phistar_relations(6).results}
        expected = {"d_0^1 = d_1^1 (pointed collapse)"}
        expected |= {f"simplicial identity s_{i} s_{j} = s_{j + 1} s_{i} at level {n}"
                     for n in range(6) for j in range(n + 1) for i in range(j + 1)}
        expected |= {f"simplicial identity d_{i} d_{j} = d_{j - 1} d_{i} at level {n}"
                     for n in range(2, 7) for j in range(n) for i in range(j)}
        expected |= {f"simplicial identity d_{i} s_{j} mixed identity at level {n}"
                     for n in range(6) for j in range(n + 1) for i in range(n + 1)}
        expected |= {f"theta_{i}^2 = id at level {n}" for n in range(2, 7) for i in range(1, n)}
        expected |= {f"braid theta_{i} theta_{i + 1} at level {n}" for n in range(2, 7) for i in range(1, n - 1)}
        expected |= {f"theta_{i} theta_{j} commute at level {n}"
                     for n in range(2, 7) for i in range(1, n) for j in range(i + 2, n)}
        expected |= {f"theta_{i} s_{j} at level {n}" for n in range(1, 6) for i in range(1, n + 1) for j in range(n + 1)}
        expected |= {f"theta_{i} d_{j} at level {n}" for n in range(3, 7) for i in range(1, n - 1) for j in range(n)}
        expected |= {f"d_{i} theta_{i} = d_{i} at level {n}" for n in range(2, 7) for i in range(1, n)}
        expected |= {f"final face identity at level {n}" for n in range(2, 7)}
        assert len(expected) == 358
        assert expected <= names

    def test_final_face_collapses_top(self):
        for n in range(1, 6):
            d = phistar_d_top(n)
            assert d(n) == 0
            assert all(d(k) == k for k in range(1, n))

    def test_underlying_map_functor(self):
        from finspan.gammaset import phistar_to_phi

        # faithful, fixes 0, and sends the generators to cofaces,
        # codegeneracies, and main transpositions
        assert phistar_to_phi(phistar_s(3, 1)) == (0, 1, 3, 4)  # skips 2
        assert phistar_to_phi(phistar_d(3, 0)) == (0, 0, 1, 2)  # collapses * and 1
        assert phistar_to_phi(phistar_theta(3, 2)) == (0, 1, 3, 2)
        rng = random.Random(5)
        for _ in range(100):
            n, m = rng.randrange(0, 5), rng.randrange(0, 5)
            f = PhiStarMor(n, m, tuple(rng.randrange(0, m + 1) for _ in range(n)))
            g = PhiStarMor(n, m, tuple(rng.randrange(0, m + 1) for _ in range(n)))
            if f != g:
                assert phistar_to_phi(f) != phistar_to_phi(g)


class TestCut:
    def test_figure_example(self):
        # f: [2] -> [3] with f(0) = 0, f(1) = f(2) = 2
        f = LambdaMor(2, 3, (0, 2, 2))
        c = cut(f)
        assert c.n == 3 and c.m == 2
        assert c(1) == 1 and c(2) == 1 and c(3) == 0

    def test_identity(self):
        for n in range(5):
            assert cut(LambdaMor(n, n, tuple(range(n + 1)))) == phistar_identity(n)

    def test_generators(self):
        for n in range(1, 7):
            for i in range(n):
                assert cut(lambda_delta(n, i)) == phistar_d(n, i)
            assert cut(lambda_delta(n, n)) == phistar_d_top(n)
        for n in range(6):
            for i in range(n + 1):
                assert cut(lambda_sigma(n, i)) == phistar_s(n, i)

    def test_functorial(self):
        rng = random.Random(1)
        for _ in range(200):
            m, n, k = (rng.randrange(0, 6) for _ in range(3))
            f = LambdaMor(m, n, tuple(sorted(rng.randrange(0, n + 1) for _ in range(m + 1))))
            g = LambdaMor(n, k, tuple(sorted(rng.randrange(0, k + 1) for _ in range(n + 1))))
            assert cut(lambda_compose(f, g)) == phistar_compose(cut(g), cut(f))


class TestGammaStructures:
    def test_catalog_passes(self, interval_l3_gamma, path3_gamma):
        assert check_gamma(interval_l3_gamma).ok
        assert check_gamma(path3_gamma).ok

    def test_detects_mutated_theta(self, interval_l3_gamma):
        G = interval_l3_gamma
        tables = [list(row) for row in G.theta_tables]
        t = tables[3][0]
        new = list(t.table)
        new[0], new[1] = new[1], new[0]
        tables[3][0] = FinMap(t.dom, t.cod, tuple(new))
        rep = check_gamma(GammaData(G.base, tuple(tuple(r) for r in tables)))
        assert not rep.ok
        assert rep.failures[0].witness is not None

    def test_evaluate_forced_face_equality(self, interval_l3_gamma):
        # the two collapses <1> -> <0> are equal as pointed maps, so their
        # actions agree
        G = interval_l3_gamma
        f = phistar_d(1, 0)
        assert f == phistar_d_top(1)
        assert evaluate_gamma(G, f).table == G.base.d(1, 0).table
        assert evaluate_gamma(G, f).table == G.base.d(1, 1).table

    def test_evaluate_functorial(self, path3_gamma):
        rng = random.Random(2)
        G = path3_gamma
        for _ in range(50):
            n, m, k = (rng.randrange(0, 5) for _ in range(3))
            f = PhiStarMor(n, m, tuple(rng.randrange(0, m + 1) for _ in range(n)))
            g = PhiStarMor(m, k, tuple(rng.randrange(0, k + 1) for _ in range(m)))
            assert evaluate_gamma(G, phistar_compose(f, g)).table == \
                evaluate_gamma(G, f).then(evaluate_gamma(G, g)).table

    def test_evaluate_restricts_to_simplicial_action(self, interval_l3_gamma):
        # pulling back along the interstice functor recovers the stored
        # simplicial structure
        rng = random.Random(3)
        G = interval_l3_gamma
        X = G.base
        for _ in range(100):
            m, n = rng.randrange(0, 5), rng.randrange(0, 5)
            f = LambdaMor(m, n, tuple(sorted(rng.randrange(0, n + 1) for _ in range(m + 1))))
            assert evaluate_gamma(G, cut(f)).table == delta_action(X, f).table

    def test_symmetric_group_closure(self, interval_l3_gamma):
        import math

        G = interval_l3_gamma
        for n in (2, 3, 4):
            gens = [G.theta(n, i) for i in range(1, n)]
            seen = {tuple(range(G.base.levels[n].size))}
            frontier = [FinMap(G.base.levels[n], G.base.levels[n], t) for t in seen]
            changed = True
            maps = {t for t in seen}
            while changed:
                changed = False
                for t in list(maps):
                    for g in gens:
                        new = FinMap(g.dom, g.dom, t).then(g).table
                        if new not in maps:
                            maps.add(new)
                            changed = True
            assert math.factorial(n) % len(maps) == 0

    def test_permutation_action_matches_components(self, interval_l3_gamma):
        G = interval_l3_gamma
        # the action of the reversal permutation on triples reverses tuples
        act = permutation_action(G, 3, (3, 2, 1))
        tuples3 = catalog._monoid_levels(catalog.interval_monoid(3), 3)[3]
        index = {t: i for i, t in enumerate(tuples3)}
        for t in tuples3:
            assert act.table[index[t]] == index[tuple(reversed(t))]


class TestCommutativityCorrespondence:
    @pytest.mark.parametrize("fixture", ["interval_l3_gamma", "path3_gamma"])
    def test_reduced_and_full_checks(self, fixture, request):
        G = request.getfixturevalue(fixture)
        cell, report = commutative_from_gamma(G, full_span_level=True)
        assert report.ok
        assert cell.gamma.is_invertible()

    @pytest.mark.parametrize("fixture", ["interval_l3_gamma", "path3_gamma"])
    def test_round_trip_exact(self, fixture, request):
        G = request.getfixturevalue(fixture)
        cell, _ = commutative_from_gamma(G)
        G2 = gamma_from_commutative(G.base, cell.gamma)
        for n in range(2, G.base.N + 1):
            for i in range(1, n):
                assert G.theta(n, i).table == G2.theta(n, i).table

    def test_abelian_nerve_swap_cell(self, nerve_z3):
        """On the nerve of an abelian group the tuple swap is a commutor
        and rebuilds coordinate transpositions."""
        X = nerve_z3
        pairs = [(a, b) for a in range(3) for b in range(3)]
        index = {p: i for i, p in enumerate(pairs)}
        theta = FinMap(X.levels[2], X.levels[2], tuple(
            index[(b, a)] for a, b in pairs
        ))
        G = gamma_from_commutative(X, gamma_cell(X, theta))
        assert check_gamma(G).ok
        tuples3 = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        idx3 = {t: i for i, t in enumerate(tuples3)}
        for t in tuples3:
            a, b, c = t
            assert G.theta(3, 1).table[idx3[t]] == idx3[(b, a, c)]
            assert G.theta(3, 2).table[idx3[t]] == idx3[(a, c, b)]

    def test_leg_incompatible_candidate_rejected_before_construction(self):
        """On a noncommutative base no leg-compatible swap exists, so the
        candidate is rejected when the cell is formed."""
        from finspan.spans import StructuralError

        X = catalog.nerve(catalog.pair_groupoid(2), 4)
        d0, d2 = X.d(2, 0), X.d(2, 2)
        swapped = []
        for m in X.levels[2]:
            target = next(
                (mm for mm in X.levels[2]
                 if d2.table[mm] == d0.table[m] and d0.table[mm] == d2.table[m]),
                m,
            )
            swapped.append(target)
        theta = FinMap(X.levels[2], X.levels[2], tuple(swapped))
        with pytest.raises(StructuralError):
            gamma_cell(X, theta)

    @pytest.mark.parametrize("fixture, swap", [("interval_l2", (0, 3)), ("interval_l3", (1, 9))])
    def test_commutor_refuses_an_incompatible_involution_when_made(self, fixture, swap):
        """The golden `theta swap` mutations that `check --full-hexagon`
        reports as a commutor error: theta with two entries swapped."""
        G = load_document(FIXTURES / f"{fixture}.json").gamma
        X, theta = G.base, list(G.theta(2, 1).table)
        e, f = swap
        theta[e], theta[f] = theta[f], theta[e]
        theta = FinMap(X.levels[2], X.levels[2], tuple(theta))
        with pytest.raises(StructuralError) as err:
            gamma_rule(X, theta, _mu_box(X))
        assert str(err.value) == "rule commutor: image assignment is not valid"
        assert not span_level_commutativity(X, G.theta(2, 1)).failures

    def test_non_invertible_cell_rejected(self, interval_l3_gamma):
        G = interval_l3_gamma
        X = G.base
        theta = G.theta(2, 1)
        cell = gamma_cell(X, theta)
        squashed = FinMap(cell.map.dom, cell.map.cod,
                          tuple(cell.map.table[0] for _ in cell.map.table))
        # a squashed map is no longer a span cell; degrade it by hand to
        # exercise the invertibility guard
        with pytest.raises(Exception):
            bad = type(cell)(cell.source, cell.target, squashed)
            gamma_from_commutative(X, bad)

    def test_non_two_segal_base_rejected(self):
        from finspan.acceptance import catalog_non_two_segal

        X = catalog_non_two_segal()
        # the level-2 part is the group nerve, whose tuple swap is a valid
        # leg-compatible involution; the doubled level 3 breaks 2-Segality
        pairs = [(a, b) for a in range(2) for b in range(2)]
        index = {p: i for i, p in enumerate(pairs)}
        theta = FinMap(X.levels[2], X.levels[2], tuple(
            index[(b, a)] for a, b in pairs
        ))
        with pytest.raises(NotCommutativeError):
            gamma_from_commutative(X, gamma_cell(X, theta))

    def test_crossing_map_defining_equations(self, interval_l3_gamma):
        G = interval_l3_gamma
        X = G.base
        theta = G.theta(2, 1)
        c = crossing_map(X, theta)
        assert c.then(X.d(3, 1)).table == X.d(3, 2).then(theta).table
        assert c.then(X.d(3, 3)).table == X.d(3, 0).table

    def test_theta_independent_of_triangulation(self, interval_l3_gamma, path3_gamma):
        for G in (interval_l3_gamma, path3_gamma):
            X = G.base
            theta = G.theta(2, 1)
            for n in (3, 4):
                for i in range(1, n):
                    tri = (i - 1, i, i + 1)
                    reference = None
                    for T in enumerate_triangulations(n):
                        if tri not in T.triangles:
                            continue
                        out = theta_via_triangulation(X, theta, n, i, T)
                        if reference is None:
                            reference = out.table
                        else:
                            assert out.table == reference

    def test_reduced_equivalent_to_full(self, nerve_z3):
        """The reduced hexagon (crossing = theta_2 theta_1) holds exactly
        when the span-level hexagon path comparison does."""
        X = nerve_z3
        pairs = [(a, b) for a in range(3) for b in range(3)]
        index = {p: i for i, p in enumerate(pairs)}
        swap = FinMap(X.levels[2], X.levels[2], tuple(index[(b, a)] for a, b in pairs))
        G = gamma_from_commutative(X, gamma_cell(X, swap))
        from finspan.gammaset import reduced_commutativity

        assert reduced_commutativity(X, G).ok
        assert span_level_commutativity(X, swap).ok


# ---------------------------------------------------------------------------
# batch gluing against the per-simplex loops


def loop_crossing_map(X, theta):
    """`crossing_map` as one glue per simplex, as it was before batches."""
    table = []
    for psi in X.levels[3]:
        parts = (X.d(3, 0).table[psi], theta.table[X.d(3, 2).table[psi]])
        table.append(loop_glue(X, T13, parts))
    return FinMap(X.levels[3], X.levels[3], tuple(table))


def loop_theta_via_triangulation(X, theta, n, i, T=None):
    """`theta_via_triangulation` as one glue per simplex, as it was before
    batches."""
    if n == 2:
        return theta
    tri = (i - 1, i, i + 1)
    if T is None:
        T = _triangulation_with_triangle(n, tri)
    if tri not in T.triangles:
        raise StructuralError("triangulation misses the required triangle")
    pos = T.triangles.index(tri)
    table = []
    for psi in X.levels[n]:
        comps = [vertex_map(X, T.n, t).table[psi] for t in T.triangles]
        comps[pos] = theta.table[comps[pos]]
        table.append(loop_glue(X, T, tuple(comps)))
    return FinMap(X.levels[n], X.levels[n], tuple(table))


def swap_theta(X, k):
    """The tuple swap on the level 2 of the nerve of Z_k."""
    pairs = [(a, b) for a in range(k) for b in range(k)]
    index = {p: i for i, p in enumerate(pairs)}
    return FinMap(X.levels[2], X.levels[2], tuple(index[(b, a)] for a, b in pairs))


@pytest.fixture(scope="module")
def theta_inputs():
    """Each differential input with level-2 maps to glue through: the
    identity, a seeded permutation, and the structure's own transposition
    where it has one."""
    rng = random.Random(3)
    out = []
    for name, X in differential_inputs():
        size = X.levels[2].size
        shuffled = list(range(size))
        rng.shuffle(shuffled)
        thetas = [FinMap(X.levels[2], X.levels[2], tuple(range(size))),
                  FinMap(X.levels[2], X.levels[2], tuple(shuffled))]
        if name == "Z_3":
            thetas.append(swap_theta(X, 3))
        elif name == "interval L=5":
            thetas.append(catalog.commutative_monoid_gamma(catalog.interval_monoid(5), 5).theta(2, 1))
        out.append((X, thetas))
    return out


class TestBatchGluing:
    def test_theta_via_triangulation_matches_the_loop(self, theta_inputs):
        raised = moved = 0
        for X, thetas in theta_inputs:
            for theta in thetas:
                for n in (3, 4, 5):
                    for i in range(1, n):
                        got = outcome(theta_via_triangulation, X, theta, n, i)
                        assert got == outcome(loop_theta_via_triangulation, X, theta, n, i)
                        raised += isinstance(got, tuple)
                        moved += isinstance(got, FinMap) and got.table != tuple(X.levels[n])
        assert raised and moved

    def test_every_triangulation_matches_the_loop(self, theta_inputs):
        X, thetas = theta_inputs[0]
        for theta in thetas:
            for n in (3, 4):
                for i in range(1, n):
                    for T in enumerate_triangulations(n):
                        if (i - 1, i, i + 1) not in T.triangles:
                            continue
                        assert (outcome(theta_via_triangulation, X, theta, n, i, T)
                                == outcome(loop_theta_via_triangulation, X, theta, n, i, T))

    def test_crossing_map_matches_the_loop(self, theta_inputs):
        raised = glued = 0
        for X, thetas in theta_inputs:
            for theta in thetas:
                got = outcome(crossing_map, X, theta)
                assert got == outcome(loop_crossing_map, X, theta)
                raised += isinstance(got, tuple)
                glued += isinstance(got, FinMap)
        assert raised and glued

    def test_an_empty_structure_glues_nothing(self):
        X = empty_structure(4)
        theta = FinMap(X.levels[2], X.levels[2], ())
        assert crossing_map(X, theta).table == ()
        for n in (3, 4):
            for i in range(1, n):
                assert theta_via_triangulation(X, theta, n, i).table == ()

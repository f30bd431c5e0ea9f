"""Pseudomonoid construction, the coherence equations, taco spaces, and
the associator lift search."""

import hashlib
import itertools
import math
import pathlib
import random
import re
from collections.abc import Mapping

import pytest

from finspan import catalog, pseudomonoid
from finspan.acceptance import catalog_non_two_segal
from finspan.catalog import no_lift_canonical_associator, no_lift_family
from finspan.diagrams import evaluate, first_moved
from finspan.documents import load_document
from finspan.pseudomonoid import (
    PENTAGON_LHS_FLIPS,
    PENTAGON_RHS_FLIPS,
    PENTAGON_TRIANGULATIONS,
    ConstructionError,
    PseudomonoidData,
    _fan_stack,
    _flip,
    build_pseudomonoid,
    canonical_segal_associator,
    n_fold_multiplication,
    pentagon_flip_discrepancy,
    pseudomonoid_from_two_truncated,
    search_associator_lift,
    taco_fibers,
    taco_pairs,
    taco_spaces,
    triangulation_composite_span,
    two_truncated_simplicial,
    verify_pentagon,
    verify_triangle,
)
from finspan.simplicial import (
    T02, T13, GluingError, check_2segal, degeneracy_relations, make_simplicial, relation_name, segal_witness,
)
from finspan.spans import FinMap, FinSet, StructuralError, spans_isomorphic
from test_diagrams import assignments
from test_simplicial import doubled_top_simplex, mutated_face, random_complex_nerve

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# brute-force references for the fan stack and the associator-lift search


def brute_force_fan_stack(T) -> tuple[tuple, ...]:
    """The fan stack by filtering all of X_2^3: the triples of triangles of
    the fan triangulation "a" that agree on every shared edge."""
    d0, d1, d2 = T.face[2]
    triangles = PENTAGON_TRIANGULATIONS["a"]

    def edge(tri, e, elt):
        a, b, c = tri
        if e == (a, b):
            return d2.table[elt]
        if e == (a, c):
            return d1.table[elt]
        if e == (b, c):
            return d0.table[elt]
        raise StructuralError("edge not in triangle")

    elements = []
    for combo in itertools.product(T.levels[2], repeat=len(triangles)):
        edges = {}
        ok = True
        for tri, elt in zip(triangles, combo):
            for e in itertools.combinations(tri, 2):
                v = edge(tri, e, elt)
                if e in edges and edges[e] != v:
                    ok = False
                    break
                edges[e] = v
            if not ok:
                break
        if ok:
            elements.append(combo)
    return tuple(elements)


def _candidates(T):
    """Every fiber-preserving associator, fibers in key order and bijections
    per fiber in lexicographic order, the first fiber varying slowest.  Each
    fiber's bijections are drawn only as the candidates need them."""
    left, right = taco_fibers(T)
    keys = sorted(left)

    def extend(i, pairs):
        if i == len(keys):
            yield dict(pairs)
            return
        for perm in itertools.permutations(right[keys[i]]):
            yield from extend(i + 1, pairs + list(zip(left[keys[i]], perm)))

    return extend(0, [])


def _side(flips, assoc, element):
    """One side of the pentagon cycle from a fan element, flip by flip."""
    triangles = PENTAGON_TRIANGULATIONS["a"]
    for _, _, quad in flips:
        triangles, element = _flip(triangles, quad, assoc, element)
    return element


def _closes(assoc, start):
    """Both sides of the pentagon cycle agree on every fan element.  Each side
    is a bijection of stacks, so this holds exactly when the flip
    discrepancy is the identity; it stops at the first disagreement."""
    return all(_side(PENTAGON_LHS_FLIPS, assoc, e) == _side(PENTAGON_RHS_FLIPS, assoc, e) for e in start)


def flip_discrepancy(assoc, start):
    """The pentagon flip discrepancy walked flip by flip: the left side
    from every start element, then the right side inverted."""
    lhs = {e: _side(PENTAGON_LHS_FLIPS, assoc, e) for e in start}
    rhs_back = {_side(PENTAGON_RHS_FLIPS, assoc, e): e for e in start}
    return {e: rhs_back[lhs[e]] for e in start}


def candidate_total(T):
    """The number of fiber-preserving associators, 0 when the taco fibers
    differ."""
    left, right = taco_fibers(T)
    if set(left) != set(right) or any(len(left[k]) != len(right[k]) for k in left):
        return 0
    return math.prod(math.factorial(len(ps)) for ps in left.values())


def brute_force_lift(T, limit=None):
    """(status, witness, tried, total) from trying every candidate in order,
    or None once more than `limit` candidates have been tried."""
    total = candidate_total(T)
    if total == 0:
        return "no lift", None, 0, 0
    start = brute_force_fan_stack(T)
    for tried, assoc in enumerate(_candidates(T), 1):
        if limit is not None and tried > limit:
            return None
        if _closes(assoc, start):
            return "lift exists", assoc, tried, total
    return "no lift", None, total, total


def simplicial_of(x0, x1, x2, d1, d2, s0, s1):
    """The truncation-2 simplicial set of levels x0, x1, x2, faces d1, d2
    and degeneracies s0, s1, its identities unchecked."""
    return make_simplicial([x0, x1, x2], [(), d1, d2], [(s0,), s1, ()])


def truncated(x0, x1, x2, d1, d2, s0, s1):
    """`simplicial_of`, checked by `two_truncated_simplicial`."""
    return two_truncated_simplicial(simplicial_of(x0, x1, x2, d1, d2, s0, s1))


def relabel_x2(T, rng):
    """The same data with the 2-simplices renumbered by a random permutation."""
    x0, x1, old_x2 = T.levels
    new = list(old_x2)
    rng.shuffle(new)  # new[e] is the index of old element e
    old = sorted(old_x2, key=new.__getitem__)
    x2 = FinSet(old_x2.size, labels=tuple(old_x2.labels[e] for e in old) if old_x2.labels else None)
    return truncated(
        x0, x1, x2, T.face[1],
        tuple(FinMap(x2, x1, tuple(d.table[e] for e in old)) for d in T.face[2]),
        T.s(0, 0),
        tuple(FinMap(x1, x2, tuple(new[e] for e in s.table)) for s in T.degen[1]),
    )


def doubled_point():
    """X_2 of the point, doubled: one fiber of four taco pairs (24 candidates)."""
    pt, two = FinSet(1), FinSet(2)
    one = FinMap(pt, pt, (0,))
    down = FinMap(two, pt, (0, 0))
    up = FinMap(pt, two, (0,))
    return truncated(pt, pt, two, (one, one), (down, down, down), one, (up, up))


def with_extra_simplices(extra):
    """X_1 = {0, 1} with the three degenerate 2-simplices of the no-lift
    family and one more 2-simplex per face triple (d0, d1, d2) of `extra`."""
    faces = [(0, 0, 0), (0, 1, 1), (1, 1, 0), *extra]  # (d0, d1, d2) of (0,0), (1,0), (0,1), then `extra`
    pt, x1, x2 = FinSet(1), FinSet(2), FinSet(len(faces))
    return truncated(
        pt, x1, x2,
        (FinMap(x1, pt, (0, 0)), FinMap(x1, pt, (0, 0))),
        tuple(FinMap(x2, x1, tuple(f[i] for f in faces)) for i in range(3)),
        FinMap(pt, x1, (0,)),
        (FinMap(x1, x2, (0, 2)), FinMap(x1, x2, (0, 1))),
    )


def random_two_truncated(rng):
    """`with_extra_simplices` of two to six random face triples."""
    return with_extra_simplices([tuple(rng.randrange(2) for _ in range(3)) for _ in range(rng.randrange(2, 7))])


def census(m):
    """Every `with_extra_simplices` of a multiset of at most m face triples
    in {0, 1}^3, by size, then in `combinations_with_replacement` order:
    C(8 + m, m) inputs."""
    triples = list(itertools.product((0, 1), repeat=3))
    for size in range(m + 1):
        for extra in itertools.combinations_with_replacement(triples, size):
            yield with_extra_simplices(extra)


def _fixture_truncations():
    return [pytest.param(two_truncated_simplicial(load_document(path).simplicial), id=path.stem)
            for path in sorted(FIXTURES.glob("*.json"))]


class TestBuild:
    def test_nerve_z2_sizes(self, nerve_z2):
        P = build_pseudomonoid(nerve_z2)
        assert P.mult.apex.size == 4
        assert P.unit.apex.size == 1
        for cell in (P.assoc, P.lunit, P.runit):
            assert cell.is_invertible()

    def test_interval_l2_mult_apex(self, interval_l2):
        P = build_pseudomonoid(interval_l2)
        assert P.mult.apex.size == 6  # pairs (x, x') with x + x' <= 2

    def test_constant_point_is_trivial(self):
        P = build_pseudomonoid(catalog.constant_point(4))
        assert P.assoc.map.table == (0,)
        assert P.lunit.map.table == (0,)
        assert P.runit.map.table == (0,)

    def test_handed_over_evaluations_give_the_same_rules(self, interval_l3):
        P = build_pseudomonoid(interval_l3)
        Q = PseudomonoidData(P.carrier, P.unit, P.mult, P.assoc, P.lunit, P.runit)
        assert Q == P
        for attr in ("assoc_rule", "lunit_rule", "runit_rule"):
            rule, again = getattr(P, attr), getattr(Q, attr)
            assert (rule.src, rule.tgt, rule.mapping, rule.cell) == (again.src, again.tgt, again.mapping, again.cell)

    def test_rejects_evaluations_of_other_patterns(self, nerve_z2):
        P = build_pseudomonoid(nerve_z2)
        mu, _, idb = P.boxes()
        ev = evaluate(((mu, idb), (mu,)))
        with pytest.raises(ConstructionError, match="not of the pseudomonoid's patterns"):
            PseudomonoidData(P.carrier, P.unit, P.mult, P.assoc, P.lunit, P.runit, evaluated=(ev,) * 4)

    def test_rejects_non_two_segal(self):
        with pytest.raises(ConstructionError):
            build_pseudomonoid(catalog_non_two_segal())


class TestEquations:
    @pytest.mark.parametrize("fixture", ["nerve_z2", "nerve_z3", "interval_l2", "interval_l3"])
    def test_pentagon_and_triangle(self, fixture, request):
        X = request.getfixturevalue(fixture)
        P = build_pseudomonoid(X)
        assert verify_pentagon(P).ok
        assert verify_triangle(P).ok

    def test_flip_route_agrees_with_diagram_route(self):
        """All sixteen candidate associators of the doubled family get the
        same pentagon verdict from the flip cycle and the rewrite paths."""
        T = no_lift_family(2)
        start = brute_force_fan_stack(T)
        count = 0
        for assoc in _candidates(T):
            flips = pentagon_flip_discrepancy(T, assoc)
            flip_ok = all(k == v for k, v in flips.items())
            diagram_ok = verify_pentagon(pseudomonoid_from_two_truncated(T, assoc)).ok
            assert flip_ok == diagram_ok == _closes(assoc, start)
            count += 1
        assert count == 16

    def test_the_step_walk_is_the_flip_walk(self):
        """Every candidate of the doubled family and of seeded random
        2-truncations gets the same discrepancy, entry order included, and
        an associator missing a taco pair raises on the same pair."""
        inputs = [no_lift_family(2)] + [random_two_truncated(random.Random(seed)) for seed in range(300)]
        walked = 0
        for T in inputs:
            left, right = taco_fibers(T)
            if {k: len(v) for k, v in left.items()} != {k: len(v) for k, v in right.items()}:
                continue
            start = brute_force_fan_stack(T)
            for assoc in itertools.islice(_candidates(T), 12):
                expected = list(flip_discrepancy(assoc, start).items())
                assert list(pentagon_flip_discrepancy(T, assoc).items()) == expected
                walked += 1
            for pair in sorted(assoc)[:3]:
                partial = {p: v for p, v in assoc.items() if p != pair}
                with pytest.raises(KeyError) as expected:
                    flip_discrepancy(partial, start)
                with pytest.raises(KeyError) as raised:
                    pentagon_flip_discrepancy(T, partial)
                assert raised.value.args == expected.value.args
        assert walked > 100

    def test_k4_cycle_identity_on_catalog(self, nerve_z2, nerve_z3, interval_l2):
        for X in (nerve_z2, nerve_z3, interval_l2):
            T = two_truncated_simplicial(X)
            disc = pentagon_flip_discrepancy(T, canonical_segal_associator(X))
            assert all(k == v for k, v in disc.items())


# ---------------------------------------------------------------------------
# the associator read off the faces against the square stacks


def stack_built_associator(X):
    """`canonical_segal_associator` as the two square triangulations'
    stacks built it: each stack element of T13 goes to the stack element of
    T02 of the same simplex."""
    w13 = segal_witness(X, T13)
    w02 = segal_witness(X, T02)
    if w13.inverse is None or w02.inverse is None:
        raise ConstructionError("square triangulation maps are not bijective")
    out = {}
    for pair in w13.stack.elements:
        psi = w13.inverse.table[w13.stack.index[pair]]
        out[pair] = w02.stack.elements[w02.forward.table[psi]]
    return out


def associator_outcome(associator, X):
    """The associator's items in order, or the `ConstructionError` it raises."""
    try:
        return list(associator(X).items())
    except ConstructionError as exc:
        return ("ConstructionError", str(exc))


class TestCanonicalAssociator:
    def test_matches_the_stack_built_associator(self):
        inputs = [random_complex_nerve(random.Random(seed), 4) for seed in range(100)] + [
            catalog.nerve(catalog.cyclic_group_category(3), 3),
            catalog.nerve(catalog.pair_groupoid(3), 4),
            catalog.partial_monoid_nerve(catalog.interval_monoid(3), 4),
            catalog.building(3, 4),
            catalog.constant_point(3),
            catalog_non_two_segal(),
            doubled_top_simplex(catalog.nerve(catalog.cyclic_group_category(3), 3)),
        ]
        raised = 0
        for X in inputs:
            expected = associator_outcome(stack_built_associator, X)
            assert associator_outcome(canonical_segal_associator, X) == expected
            raised += isinstance(expected, tuple)
        assert 0 < raised < len(inputs)

    def test_below_level_three_raises_a_construction_error(self):
        with pytest.raises(ConstructionError, match="square triangulation maps are not bijective"):
            canonical_segal_associator(catalog.constant_point(2))

    def test_broken_face_identities_raise_as_check_2segal_does(self):
        # only a level-4 face moved, so the square stacks still glue; the
        # associator presupposes a simplicial set and refuses it
        X = mutated_face(catalog.nerve(catalog.cyclic_group_category(2), 4), 4, 2, 0)
        assert stack_built_associator(X)
        with pytest.raises(GluingError, match="components of element 0 at level 4"):
            canonical_segal_associator(X)


def hand_written_failures(fields):
    """The names of the truncated identities that the data `fields` break,
    each written out as a composite of its maps."""
    (d0_1, d1_1), (d0_2, d1_2, d2_2), s0_0, (s0_1, s1_1) = fields["d1"], fields["d2"], fields["s0"], fields["s1"]

    def identity(f):
        return f.table == tuple(range(f.dom.size))

    name = "simplicial identity {} at level {}".format
    holds = {
        name("s_0 s_0 = s_1 s_0", 0): s0_0.then(s0_1).table == s0_0.then(s1_1).table,
        name("d_0 s_0 mixed identity", 0): identity(s0_0.then(d0_1)),
        name("d_1 s_0 mixed identity", 0): identity(s0_0.then(d1_1)),
        name("d_0 s_0 mixed identity", 1): identity(s0_1.then(d0_2)),
        name("d_1 s_0 mixed identity", 1): identity(s0_1.then(d1_2)),
        name("d_2 s_0 mixed identity", 1): s0_1.then(d2_2).table == d1_1.then(s0_0).table,
        name("d_0 s_1 mixed identity", 1): s1_1.then(d0_2).table == d0_1.then(s0_0).table,
        name("d_1 s_1 mixed identity", 1): identity(s1_1.then(d1_2)),
        name("d_2 s_1 mixed identity", 1): identity(s1_1.then(d2_2)),
    }
    return {n for n, ok in holds.items() if not ok}


def with_every_face_triple(T):
    """The fields of T with one more 2-simplex for each triple (d0, d1, d2)
    of 1-simplices, so that a degeneracy can be moved to a 2-simplex that
    breaks any one of its identities."""
    x0, x1, old_x2 = T.levels
    triples = list(itertools.product(x1, repeat=3))
    x2 = FinSet(old_x2.size + len(triples))
    return {
        "x0": x0, "x1": x1, "x2": x2, "d1": T.face[1],
        "d2": tuple(FinMap(x2, x1, d.table + tuple(t[i] for t in triples)) for i, d in enumerate(T.face[2])),
        "s0": T.s(0, 0), "s1": tuple(FinMap(x1, x2, s.table) for s in T.degen[1]),
    }


def single_entry_mutations(fields):
    """Copies of `fields` in which one entry of one map takes another value."""
    for key in ("d1", "d2", "s0", "s1"):
        maps = fields[key] if key != "s0" else (fields[key],)
        for i, f in enumerate(maps):
            for e in f.dom:
                for v in f.cod:
                    if v != f.table[e]:
                        moved = maps[:i] + (FinMap(f.dom, f.cod, f.table[:e] + (v,) + f.table[e + 1:]),) + maps[i + 1:]
                        yield dict(fields, **{key: moved if key != "s0" else moved[0]})


class TestTruncatedIdentities:
    def test_each_identity_is_decided_and_named(self):
        fields = with_every_face_triple(two_truncated_simplicial(catalog.nerve(catalog.chain_poset_category(2), 3)))
        assert not hand_written_failures(fields)
        truncated(**fields)
        order = [relation_name(r) for r in degeneracy_relations(2)]
        named, alone = set(), set()
        for mutated in single_entry_mutations(fields):
            broken = hand_written_failures(mutated)
            if not broken:
                truncated(**mutated)
                continue
            first = min(broken, key=order.index)
            with pytest.raises(StructuralError, match=f"^{re.escape(f'truncated identity fails: {first}')}$"):
                truncated(**mutated)
            named.add(first)
            if len(broken) == 1:
                alone.add(first)
        assert named == set(order)
        # d_0 s_0 = id and d_1 s_0 = id on X_0 each make s_0 injective, and
        # then the level-1 identities and s_0 s_0 = s_1 s_0 force the other,
        # so neither fails alone
        assert set(order) - alone == {order[1], order[2]}

    def test_the_search_and_the_builder_refuse_as_the_truncation_does(self):
        fields = with_every_face_triple(two_truncated_simplicial(catalog.nerve(catalog.chain_poset_category(2), 3)))
        X = next(simplicial_of(**m) for m in single_entry_mutations(fields) if hand_written_failures(m))
        with pytest.raises(StructuralError, match="^truncated identity fails: ") as expected:
            two_truncated_simplicial(X)
        for entry in (search_associator_lift, lambda X: pseudomonoid_from_two_truncated(X, {})):
            with pytest.raises(StructuralError) as raised:
                entry(X)
            assert str(raised.value) == str(expected.value)


class TestOneTruncation:
    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
    def test_levels_0_to_2_are_kept(self, path):
        X = load_document(path).simplicial
        T = two_truncated_simplicial(X)
        assert T.N == 2
        assert (T.levels, T.face, T.degen) == (X.levels[:3], X.face[:3], X.degen[:2] + ((),))
        assert (T == X) is (X.N == 2)


class TestLiftProperty:
    def test_a_2segal_nerve_lifts_and_both_equations_hold(self):
        """The lift property: the search finds a lift on every 2-Segal
        complex nerve at N = 4, and the pseudomonoid of its witness passes
        the pentagon and the triangle by the diagram route."""
        lifted = 0
        for seed in range(120):
            X = random_complex_nerve(random.Random(seed), 4)
            if not check_2segal(X).ok:
                continue
            res = search_associator_lift(X)
            assert res.status == "lift exists", seed
            P = pseudomonoid_from_two_truncated(X, res.witness)
            assert verify_pentagon(P).ok and verify_triangle(P).ok, seed
            lifted += 1
        assert lifted == 90


class TestTacoSpaces:
    def test_nerve_z2_sizes(self, nerve_z2):
        T = two_truncated_simplicial(nerve_z2)
        left, right = taco_spaces(T)
        assert left.apex.size == 8 and right.apex.size == 8

    def test_no_lift_unit_tuple_sizes(self):
        T = no_lift_family(1)
        left, right = taco_spaces(T)
        assert left.apex.size == 8 and right.apex.size == 8

    def test_empty_carrier(self):
        empty = FinSet(0)
        # build the genuinely empty two-truncated structure
        nothing = FinMap(empty, empty, ())
        T = truncated(empty, empty, empty, (nothing, nothing),
                      (nothing, nothing, nothing), nothing, (nothing, nothing))
        left, right = taco_spaces(T)
        assert left.apex.size == 0 and right.apex.size == 0


class TestNoLift:
    def test_doubled_family_fiber_contents(self):
        T = no_lift_family(2)
        left, right = taco_pairs(T)
        d0, d1, d2 = T.face[2]
        lab = T.levels[2].labels

        def named(pairs):
            return sorted((lab[a], lab[b]) for a, b in pairs)

        # M_100 is the singleton ((1,0),(1,0)); M'_100 is ((1,0),(0,0))
        m100 = [p for p in left if (d2.table[p[0]], d0.table[p[0]], d0.table[p[1]]) == (1, 0, 0)]
        assert named(m100) == [("(1,0)", "(1,0)")]
        m100p = [p for p in right if (d2.table[p[0]], d2.table[p[1]], d0.table[p[1]]) == (1, 0, 0)]
        assert named(m100p) == [("(1,0)", "(0,0)")]
        # M_110 = {(a, (0,0))}, M'_110 = {(a, (1,0))}
        m110 = [p for p in left if (d2.table[p[0]], d0.table[p[0]], d0.table[p[1]]) == (1, 1, 0)]
        assert named(m110) == [("a0", "(0,0)"), ("a1", "(0,0)")]
        m110p = [p for p in right if (d2.table[p[0]], d2.table[p[1]], d0.table[p[1]]) == (1, 1, 0)]
        assert named(m110p) == [("a0", "(1,0)"), ("a1", "(1,0)")]

    @pytest.mark.parametrize("a,verdict", [(0, "lift exists"), (1, "lift exists"),
                                           (2, "no lift"), (3, "no lift")])
    def test_search_verdicts(self, a, verdict):
        res = search_associator_lift(no_lift_family(a))
        assert res.status == verdict
        assert res.candidates_tried == res.candidates_total

    def test_canonical_discrepancy_is_the_swap(self):
        T = no_lift_family(2)
        disc = pentagon_flip_discrepancy(T, no_lift_canonical_associator(T))
        moved = {k: v for k, v in disc.items() if k != v}
        a0, a1, mid = 3, 4, 2
        assert moved == {(a0, mid, a1): (a1, mid, a0), (a1, mid, a0): (a0, mid, a1)}

    def test_any_associator_swaps_with_automorphisms(self):
        """Every associator choice produces a discrepancy of the shape
        (a, e, a') -> (phi'(a'), e, phi(a)) on the all-ones block."""
        T = no_lift_family(2)
        canon = no_lift_canonical_associator(T)
        fibers, _ = taco_fibers(T)
        a_fibers = sorted(k for k, ps in fibers.items() if len(ps) > 1)
        for swaps in itertools.product([False, True], repeat=len(a_fibers)):
            assoc = dict(canon)
            for k, do_swap in zip(a_fibers, swaps):
                if do_swap:
                    p, q = fibers[k]
                    assoc[p], assoc[q] = canon[q], canon[p]
            disc = pentagon_flip_discrepancy(T, assoc)
            block = {k: v for k, v in disc.items() if k[1] == 2 and k[0] >= 3 and k[2] >= 3}
            # first and third components are exchanged up to bijections of the labels
            phi = {k[0]: v[2] for k, v in block.items()}
            phi_prime = {k[2]: v[0] for k, v in block.items()}
            assert sorted(phi.values()) == [3, 4]
            assert sorted(phi_prime.values()) == [3, 4]

    def test_singleton_fiber_witness_is_canonical(self, nerve_z2):
        res = search_associator_lift(two_truncated_simplicial(nerve_z2))
        assert res.status == "lift exists"
        assert res.witness == canonical_segal_associator(nerve_z2)

    def test_lift_exists_for_catalog_truncations(self, nerve_z3, interval_l2):
        for X in (nerve_z3, interval_l2):
            res = search_associator_lift(two_truncated_simplicial(X))
            assert res.status == "lift exists"

    def test_budget_exceeded(self):
        res = search_associator_lift(no_lift_family(3), budget=10)
        assert res.status == "budget exceeded"
        assert res.candidates_total == 1296

    def test_pentagon_true_for_singleton_family(self):
        T = no_lift_family(1)
        P = pseudomonoid_from_two_truncated(T, no_lift_canonical_associator(T))
        assert verify_pentagon(P).ok
        assert verify_triangle(P).ok

    def test_failing_equation_witnesses_are_pinned(self):
        # the two failing equations of acceptance criterion 9: the canonical
        # pentagon on |A| = 2 and the triangle after a unit-fiber swap
        T = no_lift_family(2)
        canon = no_lift_canonical_associator(T)
        pent = verify_pentagon(pseudomonoid_from_two_truncated(T, canon))
        mutated = dict(canon)
        d0, d1, d2 = T.face[2]
        fiber = [p for p in canon if (d2.table[p[0]], d0.table[p[0]], d0.table[p[1]]) == (1, 0, 1)]
        mutated[fiber[0]], mutated[fiber[1]] = canon[fiber[1]], canon[fiber[0]]
        tri = verify_triangle(pseudomonoid_from_two_truncated(T, mutated))
        pinned = [
            ((((3, 1, 1), (2, 1), (4,)), ((4, 1, 1), (2, 1), (3,))), 29,
             "fc35fd625e530605c26722f9d61de978fd7749d5b1e4e2a8d6db5b3bdb7f4926"),
            ((((1, 0, 1), (1, 1), (3,)), ((1, 0, 1), (1, 1), (4,))), 5,
             "98cbc1c5df3fb55f059746fe30a909ac3d6edd56f30118d4777e4fcc446ae78c"),
        ]
        for result, (witness, size, digest) in zip((pent, tri), pinned):
            assert not result.ok
            assert first_moved(result.discrepancy) == witness
            assert len(result.discrepancy) == size
            items = repr(sorted(result.discrepancy.items())).encode()
            assert hashlib.sha256(items).hexdigest() == digest

    def test_discrepancy_is_a_read_only_mapping_of_the_start_apex(self):
        T = no_lift_family(2)
        P = pseudomonoid_from_two_truncated(T, no_lift_canonical_associator(T))
        pent = verify_pentagon(P)
        assert isinstance(pent.discrepancy, Mapping)
        start = evaluate(pseudomonoid._pentagon_paths(P)[0].start)
        assert list(pent.discrepancy) == list(assignments(start))
        key = next(iter(pent.discrepancy))
        with pytest.raises(TypeError):
            pent.discrepancy[key] = key


class TestFanStack:
    """The fan stack built as a polygon stack of the 2-truncation equals the
    brute-force filter of X_2^3."""

    @pytest.mark.parametrize("T", _fixture_truncations())
    def test_fixture_truncations(self, T):
        assert _fan_stack(T) == brute_force_fan_stack(T)

    @pytest.mark.parametrize("a", range(6))
    def test_no_lift_family(self, a):
        assert _fan_stack(no_lift_family(a)) == brute_force_fan_stack(no_lift_family(a))

    def test_random_two_truncated_data(self):
        for seed in range(300):
            T = random_two_truncated(random.Random(seed))
            assert _fan_stack(T) == brute_force_fan_stack(T), seed


class TestPrunedSearch:
    """The pruned search returns what trying every candidate in order returns."""

    def assert_matches_brute_force(self, T, limit=None):
        """The search's result, once checked against the reference; None when
        the reference needs more than `limit` candidates."""
        want = brute_force_lift(T, limit)
        if want is None:
            return None
        res = search_associator_lift(T)
        assert (res.status, res.witness, res.candidates_tried, res.candidates_total) == want
        if res.witness is not None:
            disc = pentagon_flip_discrepancy(T, res.witness)
            assert all(k == v for k, v in disc.items())
        return res

    @pytest.mark.parametrize("T", _fixture_truncations())
    def test_fixture_truncations(self, T):
        self.assert_matches_brute_force(T)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("a", range(4))
    def test_relabelled_no_lift_family(self, a, seed):
        self.assert_matches_brute_force(relabel_x2(no_lift_family(a), random.Random(seed)))

    def test_doubled_point(self):
        T = doubled_point()
        self.assert_matches_brute_force(T)
        assert search_associator_lift(T).candidates_total == 24

    def test_random_two_truncated_data(self):
        """Random data whose reference answer takes at most 2000 candidates,
        among them lifts that are not the first candidate."""
        compared = late_lifts = 0
        for seed in range(800):
            T = random_two_truncated(random.Random(seed))
            res = self.assert_matches_brute_force(T, limit=2000)
            if res is not None:
                compared += 1
                late_lifts += res.status == "lift exists" and res.candidates_tried > 1
        assert compared > 750 and late_lifts >= 3

    def test_census_4(self):
        """Every census-4 input with at most 5,000 candidates, 472 of them
        with differing taco fibers, and the 13 lifts of census 4."""
        compared = lifts = 0
        for T in census(4):
            if candidate_total(T) <= 5000:
                res = self.assert_matches_brute_force(T)
                compared += 1
            else:
                res = search_associator_lift(T)
            lifts += res.status == "lift exists"
        assert (compared, lifts) == (484, 13)

    @pytest.mark.parametrize("extra,fibers,want", [
        # a nine-pair fiber (9! bijections) and a lift at the first candidate
        ([(1, 1, 1)] * 3, 8, ("lift exists", 1)),
        # no lift: the limit ends the walk
        ([(1, 0, 1)] * 2 + [(1, 1, 1)] * 2, 12, None),
    ])
    def test_the_reference_draws_bijections_as_it_needs_them(self, monkeypatch, extra, fibers, want):
        T = with_extra_simplices(extra)
        assert len(taco_fibers(T)[0]) == fibers
        pulled = 0
        permutations = itertools.permutations

        def counted(*args):
            nonlocal pulled
            for perm in permutations(*args):
                pulled += 1
                yield perm

        monkeypatch.setattr(itertools, "permutations", counted)
        got = brute_force_lift(T, limit=50)
        assert (got if got is None else (got[0], got[2])) == want
        if got is None:
            # 51 candidates, each drawing at most one bijection per fiber
            assert pulled <= 51 * fibers
        else:
            assert pulled == fibers

    @pytest.mark.parametrize("a,nodes", [(4, 119), (5, 324)])
    def test_large_label_sets_are_decided(self, a, nodes):
        res = search_associator_lift(no_lift_family(a))
        assert res.status == "no lift"
        assert res.candidates_tried == res.candidates_total == math.factorial(a) ** 4
        assert res.nodes == nodes

    def test_one_pair_per_node_keeps_the_heavy_inputs_small(self):
        """Seed 35 took 290,880 nodes and no-lift |A|=6 2,880 when a node
        assigned a whole fiber bijection."""
        for T, bound in [(random_two_truncated(random.Random(35)), 50_000), (no_lift_family(6), 2_880)]:
            res = search_associator_lift(T)
            assert res.status == "no lift" and res.candidates_tried == res.candidates_total
            assert res.nodes < bound

    def test_budget_bounds_nodes(self):
        T = no_lift_family(3)
        needed = search_associator_lift(T).nodes
        assert search_associator_lift(T, budget=needed).status == "no lift"
        res = search_associator_lift(T, budget=needed - 1)
        assert res.status == "budget exceeded" and res.nodes == needed - 1
        assert res.candidates_tried < res.candidates_total == 1296

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError):
            search_associator_lift(no_lift_family(1), budget=budget)


class TestNFold:
    def test_low_arities(self, nerve_z2):
        X = nerve_z2
        one = n_fold_multiplication(X, 1)
        assert one.left.table == tuple(range(2)) and one.right.table == tuple(range(2))
        two = n_fold_multiplication(X, 2)
        P = build_pseudomonoid(X)
        assert two == P.mult

    def test_iso_to_every_triangulation_composite(self, nerve_z2):
        from finspan.simplicial import enumerate_triangulations

        X = nerve_z2
        for n in (3, 4):
            for T in enumerate_triangulations(n):
                span, cell = triangulation_composite_span(X, T)
                assert cell.source == n_fold_multiplication(X, n)
                assert cell.is_invertible()

    def test_triangulation_composite_matches_binary_composite(self, nerve_z2):
        """The square-triangulation composite is the evaluated two-layer
        multiplication diagram, up to invertible cell."""
        from finspan.diagrams import evaluate, identity_box
        from finspan.pseudomonoid import assoc_src_rows, mult_box, mult_span

        X = nerve_z2
        mu = mult_span(X)
        rows = assoc_src_rows(mult_box(mu, X.levels[1]), identity_box(X.levels[1]))
        composite = evaluate(rows).span
        span, _ = triangulation_composite_span(X, T13)
        assert spans_isomorphic(span, composite) is not None

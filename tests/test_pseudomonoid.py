"""Pseudomonoid construction, the coherence equations, taco spaces, and
the associator lift search."""

import itertools
import math
import pathlib
import random

import pytest

from finspan import catalog
from finspan.catalog import no_lift_canonical_associator, no_lift_family
from finspan.documents import load_document
from finspan.pseudomonoid import (
    PENTAGON_LHS_FLIPS,
    PENTAGON_RHS_FLIPS,
    PENTAGON_TRIANGULATIONS,
    ConstructionError,
    TwoTruncatedData,
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
    two_truncation,
    verify_pentagon,
    verify_triangle,
)
from finspan.simplicial import Triangulation
from finspan.spans import FinMap, FinSet, StructuralError, spans_isomorphic

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# brute-force references for the fan stack and the associator-lift search


def brute_force_fan_stack(T) -> tuple[tuple, ...]:
    """The fan stack by filtering all of X_2^3: the triples of triangles of
    the fan triangulation "a" that agree on every shared edge."""
    d0, d1, d2 = T.d2
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
    for combo in itertools.product(T.x2, repeat=len(triangles)):
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
    per fiber in lexicographic order, the first fiber varying slowest."""
    left, right = taco_fibers(T)
    keys = sorted(left)
    for perms in itertools.product(*[itertools.permutations(right[k]) for k in keys]):
        yield {src: dst for k, perm in zip(keys, perms) for src, dst in zip(left[k], perm)}


def _closes(assoc, start):
    """Both sides of the pentagon cycle agree on every fan element.  Each side
    is a bijection of stacks, so this holds exactly when the flip
    discrepancy is the identity; it stops at the first disagreement."""
    def side(flips, element):
        triangles = PENTAGON_TRIANGULATIONS["a"]
        for _, _, quad in flips:
            triangles, element = _flip(triangles, quad, assoc, element)
        return element

    return all(side(PENTAGON_LHS_FLIPS, e) == side(PENTAGON_RHS_FLIPS, e) for e in start)


def brute_force_lift(T, limit=None):
    """(status, witness, tried, total) from trying every candidate in order,
    or None once more than `limit` candidates have been tried."""
    left, right = taco_fibers(T)
    if set(left) != set(right) or any(len(left[k]) != len(right[k]) for k in left):
        return "no lift", None, 0, 0
    total = math.prod(math.factorial(len(ps)) for ps in left.values())
    start = brute_force_fan_stack(T)
    for tried, assoc in enumerate(_candidates(T), 1):
        if limit is not None and tried > limit:
            return None
        if _closes(assoc, start):
            return "lift exists", assoc, tried, total
    return "no lift", None, total, total


def relabel_x2(T, rng):
    """The same data with the 2-simplices renumbered by a random permutation."""
    new = list(T.x2)
    rng.shuffle(new)  # new[e] is the index of old element e
    old = sorted(T.x2, key=new.__getitem__)
    x2 = FinSet(T.x2.size, labels=tuple(T.x2.labels[e] for e in old) if T.x2.labels else None)
    return TwoTruncatedData(
        T.x0, T.x1, x2, T.d1,
        tuple(FinMap(x2, T.x1, tuple(d.table[e] for e in old)) for d in T.d2),
        T.s0,
        tuple(FinMap(T.x1, x2, tuple(new[e] for e in s.table)) for s in T.s1),
    )


def doubled_point() -> TwoTruncatedData:
    """X_2 of the point, doubled: one fiber of four taco pairs (24 candidates)."""
    pt, two = FinSet(1), FinSet(2)
    one = FinMap(pt, pt, (0,))
    down = FinMap(two, pt, (0, 0))
    up = FinMap(pt, two, (0,))
    return TwoTruncatedData(pt, pt, two, (one, one), (down, down, down), one, (up, up))


def random_two_truncated(rng) -> TwoTruncatedData:
    """X_1 = {0, 1} with the three degenerate 2-simplices of the no-lift
    family and two to six more with random faces."""
    faces = [(0, 0, 0), (0, 1, 1), (1, 1, 0)]  # (d0, d1, d2) of (0,0), (1,0), (0,1)
    faces += [tuple(rng.randrange(2) for _ in range(3)) for _ in range(rng.randrange(2, 7))]
    pt, x1, x2 = FinSet(1), FinSet(2), FinSet(len(faces))
    return TwoTruncatedData(
        pt, x1, x2,
        (FinMap(x1, pt, (0, 0)), FinMap(x1, pt, (0, 0))),
        tuple(FinMap(x2, x1, tuple(f[i] for f in faces)) for i in range(3)),
        FinMap(pt, x1, (0,)),
        (FinMap(x1, x2, (0, 2)), FinMap(x1, x2, (0, 1))),
    )


def _fixture_truncations():
    return [pytest.param(two_truncation(load_document(path).simplicial), id=path.stem)
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

    def test_rejects_non_two_segal(self):
        from finspan.acceptance import catalog_non_two_segal

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

    def test_k4_cycle_identity_on_catalog(self, nerve_z2, nerve_z3, interval_l2):
        for X in (nerve_z2, nerve_z3, interval_l2):
            T = two_truncation(X)
            disc = pentagon_flip_discrepancy(T, canonical_segal_associator(X))
            assert all(k == v for k, v in disc.items())


class TestTacoSpaces:
    def test_nerve_z2_sizes(self, nerve_z2):
        T = two_truncation(nerve_z2)
        left, right = taco_spaces(T)
        assert left.apex.size == 8 and right.apex.size == 8

    def test_no_lift_unit_tuple_sizes(self):
        T = no_lift_family(1)
        left, right = taco_spaces(T)
        assert left.apex.size == 8 and right.apex.size == 8

    def test_empty_carrier(self):
        empty = FinSet(0)
        T = catalog.TwoTruncatedData.__new__(catalog.TwoTruncatedData)
        # build the genuinely empty two-truncated structure
        from finspan.pseudomonoid import TwoTruncatedData

        nothing = FinMap(empty, empty, ())
        T = TwoTruncatedData(empty, empty, empty, (nothing, nothing),
                             (nothing, nothing, nothing), nothing, (nothing, nothing))
        left, right = taco_spaces(T)
        assert left.apex.size == 0 and right.apex.size == 0


class TestNoLift:
    def test_doubled_family_fiber_contents(self):
        T = no_lift_family(2)
        left, right = taco_pairs(T)
        d0, d1, d2 = T.d2
        lab = T.x2.labels

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
        res = search_associator_lift(two_truncation(nerve_z2))
        assert res.status == "lift exists"
        assert res.witness == canonical_segal_associator(nerve_z2)

    def test_lift_exists_for_catalog_truncations(self, nerve_z3, interval_l2):
        for X in (nerve_z3, interval_l2):
            res = search_associator_lift(two_truncation(X))
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

    @pytest.mark.parametrize("a,nodes", [(4, 96), (5, 480)])
    def test_large_label_sets_are_decided(self, a, nodes):
        res = search_associator_lift(no_lift_family(a))
        assert res.status == "no lift"
        assert res.candidates_tried == res.candidates_total == math.factorial(a) ** 4
        assert res.nodes == nodes

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
        from finspan.pseudomonoid import T13, assoc_src_rows, mult_box, mult_span

        X = nerve_z2
        mu = mult_span(X.levels[1], X.levels[2], X.d(2, 0), X.d(2, 1), X.d(2, 2))
        rows = assoc_src_rows(mult_box(mu, X.levels[1]), identity_box(X.levels[1]))
        composite = evaluate(rows).span
        span, _ = triangulation_composite_span(X, T13)
        assert spans_isomorphic(span, composite) is not None

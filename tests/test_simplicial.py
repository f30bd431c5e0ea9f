"""Simplicial identities, triangulations, 2-Segal maps, unitality, and the
polygon calculus for faces and degeneracies."""

import dataclasses
import gc
import itertools
import random
import weakref

import pytest

from finspan import catalog, simplicial
from finspan.acceptance import catalog_non_two_segal
from finspan.documents import StructureDocument, dumps_document, loads_document
from finspan.pseudomonoid import ConstructionError, build_pseudomonoid, verify_pentagon, verify_triangle
from finspan.reporting import CheckResult
from finspan.simplicial import (
    GluingError,
    PolygonStack,
    SegalWitness,
    Subdivision,
    Triangulation,
    _bijectivity_witness,
    _coarse_bijective,
    _composed_verdicts,
    _face_violations,
    _polygon_cells,
    check_2segal,
    check_simplicial_identities,
    check_subdivision_criterion,
    check_unitality,
    degen_via_polygon,
    edge_map,
    enumerate_subdivisions,
    enumerate_triangulations,
    face_via_polygon,
    glue,
    glue_columns,
    make_simplicial,
    polygon_stack,
    segal_witness,
    subdivision_map,
    unglue,
    vertex_map,
)
from finspan.spans import FinMap, FinSet


T13 = Triangulation(3, ((0, 1, 2), (0, 2, 3)))
T02 = Triangulation(3, ((0, 1, 3), (1, 2, 3)))


class TestSimplicialIdentities:
    def test_nerve_z2_clean(self, nerve_z2):
        assert check_simplicial_identities(nerve_z2).ok

    def test_constant_point(self):
        assert check_simplicial_identities(catalog.constant_point(4)).ok

    def test_detects_corrupted_face(self, nerve_z2):
        X = nerve_z2
        face = [list(fs) for fs in X.face]
        d12 = face[2][1]
        table = list(d12.table)
        table[0] = (table[0] + 1) % X.levels[1].size
        face[2][1] = FinMap(d12.dom, d12.cod, tuple(table))
        rep = check_simplicial_identities(make_simplicial(X.levels, face, X.degen))
        assert not rep.ok
        assert any("d_1" in r.name and "level 2" in r.name for r in rep.failures)
        assert all(r.witness is not None for r in rep.failures)


class TestTriangulations:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 2), (4, 5), (5, 14), (6, 42)])
    def test_catalan_counts(self, n, count):
        assert len(enumerate_triangulations(n)) == count

    def test_square_triangulations_are_the_tacos(self):
        assert set(enumerate_triangulations(3)) == {T13, T02}

    def test_subdivision_counts(self):
        assert [len(enumerate_subdivisions(n)) for n in (2, 3, 4, 5)] == [1, 3, 11, 45]

    def test_invalid_triangulation_rejected(self):
        from finspan.spans import StructuralError

        with pytest.raises(StructuralError):
            Triangulation(3, ((0, 1, 2), (1, 2, 3)))

    @pytest.mark.parametrize("n", [-1, 0, 1])
    @pytest.mark.parametrize("make", [
        enumerate_triangulations,
        enumerate_subdivisions,
        lambda n: Triangulation(n, ()),
        lambda n: Subdivision(n, ()),
    ], ids=["enumerate_triangulations", "enumerate_subdivisions", "Triangulation", "Subdivision"])
    def test_a_polygon_below_three_vertices_is_refused(self, make, n):
        from finspan.spans import StructuralError

        with pytest.raises(StructuralError, match="polygon needs at least 3 vertices"):
            make(n)


class TestSegalMaps:
    def test_square_maps_on_a_group_nerve(self, nerve_z3):
        """The two square maps against the multiplication table."""
        X = nerve_z3
        # reconstruct the tuple encoding of levels 1..3
        tuples3 = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        w13 = segal_witness(X, T13)
        w02 = segal_witness(X, T02)
        for psi, (g1, g2, g3) in enumerate(tuples3):
            c13 = w13.stack.elements[w13.forward.table[psi]]
            # components are ((g1 g2, g3), (g1, g2)) as 2-simplices
            pairs2 = [(a, b) for a in range(3) for b in range(3)]
            assert pairs2[c13[0]] == (g1, g2)
            assert pairs2[c13[1]] == ((g1 + g2) % 3, g3)
            c02 = w02.stack.elements[w02.forward.table[psi]]
            assert pairs2[c02[0]] == (g1, (g2 + g3) % 3)
            assert pairs2[c02[1]] == (g2, g3)

    def test_pentagon_map_components(self, nerve_z2):
        """The fan triangulation of the pentagon picks d_34, d_14, d_12."""
        X = nerve_z2
        T = Triangulation(4, ((0, 1, 2), (0, 2, 3), (0, 3, 4)))
        w = segal_witness(X, T)
        d34 = vertex_map(X, 4, (0, 1, 2))
        d14 = vertex_map(X, 4, (0, 2, 3))
        d12 = vertex_map(X, 4, (0, 3, 4))
        for psi in X.levels[4]:
            comp = w.stack.elements[w.forward.table[psi]]
            assert comp == (d34.table[psi], d14.table[psi], d12.table[psi])

    def test_catalog_passes(self, nerve_z2, nerve_z3, interval_l3):
        for X in (nerve_z2, nerve_z3, interval_l3):
            assert check_2segal(X).ok

    def test_nerve_at_level_five(self):
        X = catalog.nerve(catalog.cyclic_group_category(2), 5)
        assert check_2segal(X).ok

    def test_doubled_simplex_fails_with_witness(self):
        rep = check_2segal(catalog_non_two_segal())
        assert not rep.ok
        assert rep.failures[0].witness is not None
        assert "n=3" in rep.failures[0].name


class TestUnitality:
    def test_catalog_passes(self, nerve_z2, interval_l3):
        for X in (nerve_z2, interval_l3):
            assert check_unitality(X).ok

    def test_constant_point(self):
        assert check_unitality(catalog.constant_point(4)).ok

    def test_detects_mutated_degeneracy(self, nerve_z2):
        X = nerve_z2
        degen = [list(ss) for ss in X.degen]
        s11 = degen[1][1]
        table = list(s11.table)
        table[0] = (table[0] + 1) % X.levels[2].size
        degen[1][1] = FinMap(s11.dom, s11.cod, tuple(table))
        rep = check_unitality(make_simplicial(X.levels, X.face, degen))
        assert not rep.ok
        assert rep.failures[0].witness is not None


class TestSubdivisions:
    def test_criterion_on_2segal_base(self, nerve_z2):
        assert check_subdivision_criterion(nerve_z2).ok

    def test_trivial_subdivision_is_identity(self, nerve_z2):
        X = nerve_z2
        stack, fwd = subdivision_map(X, 3, ((0, 1, 2, 3),))
        assert fwd.is_bijective()
        assert len(stack.elements) == X.levels[3].size

    def test_hexagon_subdivision_on_z3(self):
        X = catalog.nerve(catalog.cyclic_group_category(3), 5)
        stack, fwd = subdivision_map(X, 5, ((0, 1, 2), (0, 2, 3, 4, 5)))
        assert fwd.is_bijective()


def brute_force_polygon_stack(X, n, cells):
    """The iterated pullback for `cells` as a filtered product: extend every
    partial element by all of X_k for each cell, keep it when its values on
    the diagonals agree with those fixed so far, and sort."""
    shared = {}
    for ci, c in enumerate(cells):
        for a, b in itertools.combinations(c, 2):
            shared.setdefault((a, b), []).append(ci)
    diagonals = {e for e, cs in shared.items() if len(cs) == 2}

    partial = [((), {})]
    for c in cells:
        grown = []
        for chosen, edges in partial:
            for e in X.levels[len(c) - 1]:
                new_edges = dict(edges)
                ok = True
                for a, b in itertools.combinations(c, 2):
                    if (a, b) not in diagonals:
                        continue
                    v = vertex_map(X, len(c) - 1, (c.index(a), c.index(b))).table[e]
                    if new_edges.setdefault((a, b), v) != v:
                        ok = False
                        break
                if ok:
                    grown.append((chosen + (e,), new_edges))
        partial = grown
    return tuple(sorted(chosen for chosen, _ in partial))


class TestPolygonStack:
    @pytest.mark.parametrize("make", [
        lambda: catalog.nerve(catalog.cyclic_group_category(3), 5),
        lambda: catalog.building(3, 5),
        catalog_non_two_segal,
    ], ids=["z3_at_5", "building_3_5", "non_two_segal"])
    def test_matches_filtered_product_on_every_subdivision(self, make):
        X = make()
        for n in range(2, X.N + 1):
            for S in enumerate_subdivisions(n):
                assert polygon_stack(X, n, S.cells).elements == brute_force_polygon_stack(X, n, S.cells)


class TestEdgeMaps:
    def test_level_one_edges_are_identity(self, nerve_z2):
        assert edge_map(nerve_z2, 1, 1).table == tuple(range(2))
        assert edge_map(nerve_z2, 1, "out").table == tuple(range(2))

    def test_group_nerve_edges(self, nerve_z3):
        X = nerve_z3
        tuples3 = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        for psi, t in enumerate(tuples3):
            for i in (1, 2, 3):
                assert edge_map(X, 3, i).table[psi] == t[i - 1]
            assert edge_map(X, 3, "out").table[psi] == sum(t) % 3

    def test_edge_against_direct_vertex_map(self, interval_l3):
        X = interval_l3
        for n in (2, 3, 4):
            for i in range(1, n + 1):
                assert edge_map(X, n, i).table == vertex_map(X, n, (i - 1, i)).table


class TestGluing:
    def test_round_trip_exhaustive(self, nerve_z2):
        X = nerve_z2
        for n in (3, 4):
            for T in enumerate_triangulations(n):
                for psi in X.levels[n]:
                    assert glue(X, T, unglue(X, T, psi)) == psi

    def test_a_second_glue_along_t_builds_no_stack(self, monkeypatch):
        X = catalog.nerve(catalog.cyclic_group_category(3), 4)
        T = Triangulation(4, ((0, 1, 2), (0, 2, 3), (0, 3, 4)))
        columns = [vertex_map(X, 4, t).table for t in T.triangles]
        first = glue_columns(X, T, columns)
        built = []
        stack = simplicial.polygon_stack

        def recording_stack(*args):
            built.append(args)
            return stack(*args)

        monkeypatch.setattr(simplicial, "polygon_stack", recording_stack)
        assert glue_columns(X, T, columns) == first == tuple(X.levels[4])
        assert built == []

    def test_incompatible_parts_rejected(self, nerve_z2):
        from finspan.simplicial import GluingError

        X = nerve_z2
        index = segal_witness(X, T13).stack.index
        bad = next(
            (a, b)
            for a in X.levels[2]
            for b in X.levels[2]
            if (a, b) not in index
        )
        with pytest.raises(GluingError):
            glue(X, T13, bad)

    def test_faces_via_polygon(self, nerve_z2, interval_l3):
        for X in (nerve_z2, interval_l3):
            for n in (3, 4):
                for i in range(n + 1):
                    for psi in X.levels[n]:
                        assert face_via_polygon(X, n, i, psi) == X.d(n, i).table[psi]

    def test_degeneracies_via_polygon(self, nerve_z2, interval_l3):
        for X in (nerve_z2, interval_l3):
            for n in (2, 3):
                for i in range(n + 1):
                    for psi in X.levels[n]:
                        assert degen_via_polygon(X, n, i, psi) == X.s(n, i).table[psi]


class TestChangeOfTriangulation:
    def test_functorial_across_triangulations(self, nerve_z2):
        """Composites of change-of-triangulation maps around any cycle of
        triangulations are the identity (here: all pairs at n = 3, 4)."""
        X = nerve_z2
        for n in (3, 4):
            witnesses = [segal_witness(X, T) for T in enumerate_triangulations(n)]
            for wa in witnesses:
                for wb in witnesses:
                    through = wa.inverse.then(wb.forward).then(wb.inverse).then(wa.forward)
                    assert through.table == tuple(range(len(wa.stack.elements)))


class TestMemo:
    def test_equal_structures_share_no_memo_entry(self, nerve_z2):
        text = dumps_document(StructureDocument(nerve_z2))
        X = loads_document(text).simplicial
        Y = loads_document(text).simplicial
        assert X == Y and hash(X) == hash(Y)
        check_2segal(X)
        check_2segal(Y)
        assert X.memo.keys() == Y.memo.keys()
        assert not {id(v) for v in X.memo.values()} & {id(v) for v in Y.memo.values()}
        assert all(segal_witness(Y, T).stack.X is Y for T in enumerate_triangulations(3))

    def test_one_verdict_per_structure(self, monkeypatch):
        X = catalog.nerve(catalog.cyclic_group_category(3), 4)
        first = {check: check(X) for check in (check_2segal, check_unitality)}

        def decided_again(*args):
            raise AssertionError("the verdict was decided again")

        monkeypatch.setattr(simplicial, "_polygon_cells", decided_again)
        monkeypatch.setattr(simplicial, "pullback_square_witness", decided_again)
        build_pseudomonoid(X)
        for check, report in first.items():
            again = check(X)
            assert again == report and again is not report and again.results is not report.results
            # adding to a returned report leaves the memo alone
            report.add(CheckResult("extra", witness="added"))
            assert check(X) == again and check(X).ok

    def test_a_memoised_verdict_cannot_be_rewritten(self):
        X = catalog.nerve(catalog.cyclic_group_category(2), 4)
        line = check_2segal(X).results[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            line.witness = ("planted",)
        assert check_2segal(X).ok and check_2segal(X).results[0].witness is None

    def test_vertex_map_is_memoised(self, nerve_z2):
        assert vertex_map(nerve_z2, 4, (0, 2)) is vertex_map(nerve_z2, 4, (0, 2))

    def test_no_cache_outlives_its_structure(self):
        # no other test builds Z_4 at 3: a cache keyed by value could otherwise
        # hold an equal structure and leave this one unpinned
        X = catalog.nerve(catalog.cyclic_group_category(4), 3)
        check_2segal(X)
        glue(X, T13, unglue(X, T13, 0))
        ref = weakref.ref(X)
        del X
        gc.collect()
        assert ref() is None

    def test_each_vertex_map_composes_at_most_n_faces(self, monkeypatch):
        X = catalog.nerve(catalog.cyclic_group_category(3), 5)
        calls = []
        then = FinMap.then

        def counting_then(self, g):
            calls.append(1)
            return then(self, g)

        monkeypatch.setattr(FinMap, "then", counting_then)
        assert check_2segal(X).ok
        vertex_maps = sum(isinstance(v, FinMap) for v in X.memo.values())
        assert 0 < len(calls) <= X.N * vertex_maps


# ---------------------------------------------------------------------------
# the coded 2-Segal check against the stack path


def random_complex_nerve(rng, N):
    """The ordered nerve of a random simplicial complex on 4-6 vertices with
    2-5 faces of size 2-3, truncated at N: level n lists the monotone maps
    [n] -> V whose image is a face, as nondecreasing tuples in lexicographic
    order.  Faces delete an entry and degeneracies repeat one, so the
    simplicial identities hold by construction."""
    k = rng.randint(4, 6)
    faces = {(v,) for v in range(k)}
    for _ in range(rng.randint(2, 5)):
        top = sorted(rng.sample(range(k), rng.randint(2, 3)))
        faces.update(c for r in range(1, len(top) + 1) for c in itertools.combinations(top, r))
    tuples = [
        [t for t in itertools.combinations_with_replacement(range(k), n + 1)
         if tuple(sorted(set(t))) in faces]
        for n in range(N + 1)
    ]
    X, _ = catalog._tuple_structure(
        [FinSet(len(ts)) for ts in tuples], tuples,
        lambda n, i: lambda t: t[:i] + t[i + 1:],
        lambda n, i: lambda t: t[:i + 1] + t[i:],
    )
    return X


def doubled_top_simplex(X):
    """X with its first top simplex doubled, as in `catalog_non_two_segal`:
    every identity still holds, and no triangulation map at the top level
    is injective."""
    N = X.N
    levels = list(X.levels[:N]) + [FinSet(X.levels[N].size + 1)]
    face = [list(fs) for fs in X.face]
    face[N] = [FinMap(levels[N], levels[N - 1], f.table + (f.table[0],)) for f in X.face[N]]
    degen = [list(ss) for ss in X.degen]
    degen[N - 1] = [FinMap(levels[N - 1], levels[N], s.table) for s in X.degen[N - 1]]
    return make_simplicial(levels, face, degen)


def stack_path_line(X, name, n, cells):
    """A Segal map's line as its stack and per-simplex map give it."""
    _, fwd = subdivision_map(X, n, cells)
    if fwd.is_bijective():
        return f"[pass] {name}"
    return f"[FAIL] {name} witness={_bijectivity_witness(fwd)!r}"


def stack_path_lines(X):
    """The 2-Segal lines as every triangulation's stack and map give them."""
    return [stack_path_line(X, f"2-Segal map at n={n}, diagonals {T.diagonals}", n, T.triangles)
            for n in range(3, X.N + 1) for T in enumerate_triangulations(n)]


def subdivision_stack_path_lines(X):
    """The subdivision lines as every subdivision's stack and map give them."""
    return [stack_path_line(X, f"subdivision map at n={n}, cells {S.cells}", n, S.cells)
            for n in range(3, X.N + 1) for S in enumerate_subdivisions(n)]


@pytest.fixture(scope="module")
def complex_nerves():
    return [random_complex_nerve(random.Random(seed), 5) for seed in range(200)]


@pytest.fixture(scope="module")
def doubled():
    return [
        doubled_top_simplex(catalog.nerve(catalog.cyclic_group_category(2), 5)),
        doubled_top_simplex(catalog.nerve(catalog.cyclic_group_category(3), 4)),
        doubled_top_simplex(random_complex_nerve(random.Random(0), 5)),
    ]


class TestCodedSegalMaps:
    def test_lines_match_the_stack_path(self, complex_nerves, doubled):
        kinds = set()
        for X in complex_nerves + doubled + [catalog_non_two_segal()]:
            expected = stack_path_lines(X)
            rep = check_2segal(X)
            assert rep.lines() == expected
            kinds.update(r.witness[0] for r in rep.failures if "n=3" not in r.name)
        # both ways of failing occur above n = 3
        assert kinds == {"not injective", "not surjective"}

    def test_subdivision_lines_match_the_stack_path(self, complex_nerves, doubled):
        # the stack path takes about 30 ms a nerve, so every fourth one is compared
        kinds = set()
        for X in complex_nerves[::4] + doubled + [catalog_non_two_segal()]:
            rep = check_subdivision_criterion(X)
            assert rep.lines() == subdivision_stack_path_lines(X)
            kinds.update(r.witness[0] for r in rep.failures)
        assert kinds == {"not injective", "not surjective"}

    def test_agrees_with_the_subdivision_criterion(self, complex_nerves, doubled):
        inputs = complex_nerves + doubled + [catalog_non_two_segal()]
        verdicts = [check_2segal(X).ok for X in inputs]
        assert not all(verdicts) and any(verdicts)
        assert verdicts == [check_subdivision_criterion(X).ok for X in inputs]

    def test_counts_size_every_stack(self, doubled):
        # a top cell with single-cell side polygons is a subdivision whose
        # map is the top cell's coarse map, so its stack decides the coarse map
        kinds = set()
        for X in [random_complex_nerve(random.Random(0), 5), doubled[1], catalog_non_two_segal()]:
            for n in range(2, X.N + 1):
                for size in range(1, n):
                    for inner in itertools.combinations(range(1, n), size):
                        top = (0, *inner, n)
                        sides = tuple(tuple(range(a, b + 1)) for a, b in zip(top, top[1:]) if b - a >= 2)
                        witness = _bijectivity_witness(subdivision_map(X, n, tuple(sorted((top,) + sides)))[1])
                        assert _coarse_bijective(X, top) == (witness is None)
                        kinds.add(witness and witness[0])
        assert kinds == {None, "not injective", "not surjective"}

    def test_a_passing_check_builds_no_stack(self):
        X = catalog.nerve(catalog.cyclic_group_category(2), 5)
        assert check_2segal(X).ok and check_subdivision_criterion(X).ok
        assert not [v for v in X.memo.values() if isinstance(v, (SegalWitness, PolygonStack))]

    def test_a_failing_check_keeps_no_stack(self):
        X = doubled_top_simplex(catalog.nerve(catalog.cyclic_group_category(2), 6))
        assert not check_subdivision_criterion(X).ok
        assert not [v for v in X.memo.values() if isinstance(v, (SegalWitness, PolygonStack))]


class TestComposedSegalMaps:
    """A map passes without its own stack when it is a composite of
    bijections: the coarse map of each of its cells, coded once per top
    cell."""

    def test_a_composed_pass_is_bijective_on_its_stack(self, complex_nerves, doubled):
        # the stack path takes about 30 ms a nerve, so every eighth one is compared
        composed_passes = composed_fails = 0
        for X in complex_nerves[::8] + doubled + [catalog_non_two_segal()]:
            composed = _composed_verdicts(X)
            for n in range(3, X.N + 1):
                # the subdivisions include the triangulations
                for cells in _polygon_cells(n, False):
                    if composed(cells):
                        assert subdivision_map(X, n, cells)[1].is_bijective()
                        composed_passes += 1
                    else:
                        composed_fails += 1
        assert composed_passes and composed_fails

    def test_a_map_that_is_its_own_coarse_map_is_decided_by_its_stack(self):
        X = doubled_top_simplex(catalog.nerve(catalog.cyclic_group_category(2), 3))
        # each square triangulation is its top triangle and one single-cell side
        assert not any(map(_composed_verdicts(X), _polygon_cells(3, True)))
        rep = check_2segal(X)
        assert rep.lines() == stack_path_lines(X) and len(rep.failures) == len(rep.results) == 2

    def test_a_passing_check_codes_each_top_cell_once(self, monkeypatch):
        X = catalog.nerve(catalog.cyclic_group_category(2), 7)
        coded = []
        coarse_bijective = simplicial._coarse_bijective

        def recording_coarse_bijective(X, top):
            coded.append((top[-1], top))
            return coarse_bijective(X, top)

        monkeypatch.setattr(simplicial, "_coarse_bijective", recording_coarse_bijective)
        assert check_2segal(X).ok
        # n - 1 coded passes at level n, one per top triangle; a cell on
        # consecutive vertices is X_n itself, with nothing to compose
        assert sorted(coded) == [(n, (0, i, n)) for n in range(3, X.N + 1) for i in range(1, n)]
        assert all(isinstance(v, FinMap) or all(isinstance(r, CheckResult) for r in v)
                   for v in X.memo.values())


def fan_cells(n):
    """The fan from vertex 0, cells (0, i, i+1), and the fan into vertex n,
    cells (i, i+1, n), of the polygon 0..n."""
    return tuple((0, i, i + 1) for i in range(1, n)), tuple((i, i + 1, n) for i in range(n - 1))


class TestPathSpaceCriterion:
    """X is 2-Segal exactly when both of its path spaces are 1-Segal, that
    is, when the maps of both fans are bijective at every level
    (Dyckerhoff-Kapranov, Higher Segal Spaces, Thm 6.3.2).  Once the face
    identities hold and the lower levels pass, every triangulation of the
    polygon 0..n has a diagonal at vertex 0 or at vertex n, and its map is
    bijective when the map of the fan with that diagonal is; these inputs
    pin that the two fans decide each level on its own.  The fans' maps are
    built on the stack path, apart from the codes."""

    def test_the_fans_decide_each_level(self, complex_nerves):
        inputs = (
            complex_nerves
            + [random_complex_nerve(random.Random(seed), 4) for seed in range(100)]
            + [doubled_top_simplex(random_complex_nerve(random.Random(seed), 4)) for seed in range(40)]
            + [catalog_non_two_segal(), catalog.building(3, 5), catalog.nerve(catalog.pair_groupoid(3), 5)]
        )
        levels = {True: 0, False: 0}
        for X in inputs:
            rep = check_2segal(X)
            for n in range(3, X.N + 1):
                lines = [r.passed for r in rep.results if r.name.startswith(f"2-Segal map at n={n},")]
                fans = [subdivision_map(X, n, cells)[1].is_bijective() for cells in fan_cells(n)]
                assert len(lines) == len(enumerate_triangulations(n))
                assert all(fans) == all(lines)
                levels[all(lines)] += 1
        assert levels[True] > 200 and levels[False] > 200


# ---------------------------------------------------------------------------
# every failing line's witness re-derived from vertex-map components


def lexicographic_stack(X, n, cells):
    """The stack of the subdivision `cells` of the polygon 0..n, generated
    in lexicographic order by a hash join: each cell's simplices are grouped
    by their values on the edges that earlier cells fixed, so only
    compatible ones are visited."""
    fixed_edges = set()
    plans = []
    for c in cells:
        k = len(c) - 1
        tables = {(c[a], c[b]): vertex_map(X, k, (a, b)).table
                  for a, b in itertools.combinations(range(k + 1), 2)}
        old = [e for e in tables if e in fixed_edges]
        new = [e for e in tables if e not in fixed_edges]
        fixed_edges.update(tables)
        by_old = {}
        for psi in X.levels[k]:
            key = tuple(tables[e][psi] for e in old)
            by_old.setdefault(key, []).append((psi, [tables[e][psi] for e in new]))
        plans.append((old, new, by_old))

    def grow(j, values):
        if j == len(plans):
            yield ()
            return
        old, new, by_old = plans[j]
        for psi, new_values in by_old.get(tuple(values[e] for e in old), ()):
            for rest in grow(j + 1, {**values, **dict(zip(new, new_values))}):
                yield (psi,) + rest

    return grow(0, {})


def first_failure(images, targets, by_index):
    """The failure a map with these images (one per domain element, in
    order) onto the sorted `targets` must be named by: its first collision,
    else the first target it misses (by index into `targets` when
    `by_index`), else an image outside the targets."""
    seen = {}
    for x, image in enumerate(images):
        if image in seen:
            return ("not injective", seen[image], x)
        seen[image] = x
    for i, target in enumerate(targets):
        if target not in seen:
            return ("not surjective", i if by_index else target)
        del seen[target]
    return ("square does not commute",) if seen else None


def recheck_segal_lines(X, rep, polygons):
    """Assert that each failing line of `rep`, one line per `(n, cells)` of
    `polygons` in order, names the failure of the map from X_n to the stack
    of `cells`; return the failures' kinds."""
    assert len(rep.results) == len(polygons)
    kinds = []
    for r, (n, cells) in zip(rep.results, polygons):
        if r.passed:
            continue
        images = list(zip(*(vertex_map(X, n, c).table for c in cells)))
        assert r.witness == first_failure(images, lexicographic_stack(X, n, cells), True), r.line()
        kinds.append(r.witness[0])
    return kinds


# each square as (n, i, v, e): s_i from X_n into X_{n+1}, the vertex v of
# X_n, and the edge e of X_{n+1} pulled back against s_0
UNITALITY_SQUARES = {
    "unitality square d0/s1": (1, 1, (1,), (1, 2)),
    "unitality square d1/s0": (1, 0, (0,), (0, 1)),
    "higher unitality square d02/s1": (2, 1, (1,), (1, 2)),
}


def mutated_degeneracy(X, n, i, e):
    """X with entry e of the degeneracy s_i^n moved to the next element."""
    degen = [list(ss) for ss in X.degen]
    s = degen[n][i]
    table = list(s.table)
    table[e] = (table[e] + 1) % s.cod.size
    degen[n][i] = FinMap(s.dom, s.cod, tuple(table))
    return make_simplicial(X.levels, X.face, degen)


class TestWitnessRecheck:
    """Each failing Segal or unitality line names the failure that its map,
    rebuilt here from vertex-map components, shows: the first collision, the
    first missed stack element, or the first missed pullback pair."""

    def test_the_stack_oracle_is_the_filtered_product(self, doubled):
        for X in [doubled[1], catalog_non_two_segal(), random_complex_nerve(random.Random(0), 4)]:
            for n in range(2, X.N + 1):
                for S in enumerate_subdivisions(n):
                    stack = tuple(lexicographic_stack(X, n, S.cells))
                    assert stack == brute_force_polygon_stack(X, n, S.cells)

    def test_2segal_witnesses(self, complex_nerves, doubled):
        kinds = set()
        for X in complex_nerves + doubled + [catalog_non_two_segal()]:
            polygons = [(n, T.triangles) for n in range(3, X.N + 1) for T in enumerate_triangulations(n)]
            kinds.update(recheck_segal_lines(X, check_2segal(X), polygons))
        assert kinds == {"not injective", "not surjective"}

    def test_subdivision_witnesses(self, complex_nerves, doubled):
        # the check takes about 8 ms a nerve, so every fourth one is rechecked
        kinds = set()
        for X in complex_nerves[::4] + doubled + [catalog_non_two_segal()]:
            polygons = [(n, S.cells) for n in range(3, X.N + 1) for S in enumerate_subdivisions(n)]
            kinds.update(recheck_segal_lines(X, check_subdivision_criterion(X), polygons))
        assert kinds == {"not injective", "not surjective"}

    def test_unitality_witnesses(self, complex_nerves, doubled):
        Z2 = catalog.nerve(catalog.cyclic_group_category(2), 4)
        mutated = [mutated_degeneracy(Z2, n, i, e)
                   for n in range(3) for i in range(n + 1) for e in range(min(3, Z2.levels[n].size))]
        kinds = []
        for X in complex_nerves + doubled + [catalog_non_two_segal()] + mutated:
            for r in check_unitality(X).results:
                if not r.passed:
                    n, i, v, e = UNITALITY_SQUARES[r.name]
                    s, vertex = X.s(n, i).table, vertex_map(X, n, v).table
                    edge, s0 = vertex_map(X, n + 1, e).table, X.s(0, 0).table
                    images = [(s[x], vertex[x]) for x in X.levels[n]]
                    pairs = [(a, b) for a in X.levels[n + 1] for b in X.levels[0] if edge[a] == s0[b]]
                    assert r.witness == first_failure(images, pairs, False), r.line()
                    kinds.append(r.witness[0])
        assert set(kinds) == {"not injective", "not surjective"} and len(kinds) > 10


def reference_triangulations_of(vertices):
    """A recursion for triangulations alone: the top triangle (v0, m, vk)
    with m outermost, each left triangulation before each right one."""
    if len(vertices) == 2:
        yield ()
        return
    v0, vk = vertices[0], vertices[-1]
    for m in range(1, len(vertices) - 1):
        for left in reference_triangulations_of(vertices[: m + 1]):
            for right in reference_triangulations_of(vertices[m:]):
                yield left + ((v0, vertices[m], vk),) + right


def reference_subdivisions_of(vertices):
    """A recursion for subdivisions: top cells by size, then
    lexicographically, each gap between consecutive top-cell vertices
    subdivided on its own."""
    if len(vertices) == 2:
        yield ()
        return
    v0, vk = vertices[0], vertices[-1]
    interior = vertices[1:-1]
    for size in range(1, len(interior) + 1):
        for subset in itertools.combinations(interior, size):
            cell = (v0,) + subset + (vk,)
            parts = [()]
            for a, b in zip(cell, cell[1:]):
                gap = tuple(reference_subdivisions_of(vertices[vertices.index(a) : vertices.index(b) + 1]))
                parts = [done + more for done in parts for more in gap]
            for part in parts:
                yield (cell,) + part


def sorted_cells(cells):
    return tuple(sorted(tuple(sorted(c)) for c in cells))


class TestPolygonEnumeration:
    def test_every_generated_cell_tuple_is_valid(self):
        for n in range(2, 8):
            for cells in simplicial._polygon_cells(n, False):
                assert Subdivision(n, cells).cells == cells
            for cells in simplicial._polygon_cells(n, True):
                assert Triangulation(n, cells).triangles == cells

    def test_triangulation_order(self):
        for n in range(2, 9):
            expected = [sorted_cells(tris) for tris in reference_triangulations_of(tuple(range(n + 1)))]
            assert list(simplicial._polygon_cells(n, True)) == expected
            assert [T.triangles for T in enumerate_triangulations(n)] == expected

    def test_subdivision_order(self):
        for n in range(2, 8):
            expected = [sorted_cells(cells) for cells in reference_subdivisions_of(tuple(range(n + 1)))]
            assert list(simplicial._polygon_cells(n, False)) == expected
            assert [S.cells for S in enumerate_subdivisions(n)] == expected

    def test_the_checks_construct_no_polygon_object(self, monkeypatch):
        def constructed(self):
            raise AssertionError(f"{type(self).__name__} constructed")

        monkeypatch.setattr(Triangulation, "__post_init__", constructed)
        monkeypatch.setattr(Subdivision, "__post_init__", constructed)
        X = catalog.nerve(catalog.cyclic_group_category(2), 5)
        assert check_2segal(X).ok and check_subdivision_criterion(X).ok
        # a failing map builds its stack for the witness, and still no polygon object
        Y = catalog_non_two_segal()
        assert not check_2segal(Y).ok and not check_subdivision_criterion(Y).ok


class TestComplexNervePseudomonoids:
    def test_two_segal_unital_nerves_give_coherent_pseudomonoids(self):
        # a 2-Segal, unital complex nerve gives a pseudomonoid whose own
        # associator and unitor rules close the pentagon and the triangle;
        # any other is refused
        built = refused = 0
        for seed in range(100):
            X = random_complex_nerve(random.Random(seed), 4)
            if not (check_2segal(X).ok and check_unitality(X).ok):
                with pytest.raises(ConstructionError):
                    build_pseudomonoid(X)
                refused += 1
                continue
            P = build_pseudomonoid(X)
            assert (P.assoc_rule.cell, P.lunit_rule.cell, P.runit_rule.cell) == (P.assoc, P.lunit, P.runit)
            assert verify_pentagon(P).ok
            assert verify_triangle(P).ok
            built += 1
        assert (built, refused) == (75, 25)


def mutated_face(X, n, i, e):
    """X with entry e of the face d_i^n moved to the next element."""
    face = [list(fs) for fs in X.face]
    d = face[n][i]
    table = list(d.table)
    table[e] = (table[e] + 1) % d.cod.size
    face[n][i] = FinMap(d.dom, d.cod, tuple(table))
    return make_simplicial(X.levels, face, X.degen)


class TestBrokenFaceIdentities:
    """A mutated face entry at N >= 4 takes the stack path, whose outcome is
    pinned here: a `GluingError`, or a report."""

    def test_unglueable_simplex_raises(self):
        X = mutated_face(catalog.nerve(catalog.cyclic_group_category(2), 4), 4, 2, 0)
        with pytest.raises(GluingError, match=(
            "components of element 0 at level 4 violate the shared-edge constraints; "
            "the simplicial identities do not hold"
        )):
            check_2segal(X)

    def test_report_at_level_five(self):
        X = mutated_face(catalog.nerve(catalog.cyclic_group_category(2), 5), 5, 2, 7)
        assert check_simplicial_identities(X).lines() == [
            "[FAIL] simplicial identity d_0 d_2 = d_1 d_0 at level 5 witness=7",
            "[FAIL] simplicial identity d_1 d_2 = d_1 d_1 at level 5 witness=7",
            "[FAIL] simplicial identity d_2 d_3 = d_2 d_2 at level 5 witness=7",
            "[FAIL] simplicial identity d_2 d_4 = d_3 d_2 at level 5 witness=7",
            "[FAIL] simplicial identity d_2 d_5 = d_4 d_2 at level 5 witness=7",
            "[FAIL] simplicial identity d_2 s_0 mixed identity at level 4 witness=7",
            "[FAIL] simplicial identity d_2 s_1 mixed identity at level 4 witness=7",
        ]
        rep = check_2segal(X)
        assert len(rep.results) == 21
        assert [r.line() for r in rep.failures] == [
            f"[FAIL] 2-Segal map at n=5, diagonals {d} witness=('not injective', 4, 7)"
            for d in (
                ((1, 5), (2, 5), (3, 5)),
                ((1, 3), (1, 5), (3, 5)),
                ((0, 2), (2, 5), (3, 5)),
                ((0, 3), (1, 3), (3, 5)),
                ((0, 2), (0, 3), (3, 5)),
            )
        ]


# ---------------------------------------------------------------------------
# batch gluing against the per-simplex loop


# the last (X, T, witness) that `loop_glue` read: a loop over X_n reads one
# witness, which `segal_witness`, memoising nothing, would build per simplex
_last_witness = [None, None, None]


def loop_glue(X, T, parts):
    """`glue` as one lookup per simplex, as it was before batches."""
    last_X, last_T, w = _last_witness
    if last_X is not X or last_T != T:
        w = segal_witness(X, T)
        _last_witness[:] = X, T, w
    if w.inverse is None:
        raise GluingError("triangulation map is not bijective; cannot glue")
    key = tuple(parts)
    idx = w.stack.index
    if key not in idx:
        raise GluingError(f"incompatible parts {key} for diagonals {T.diagonals}")
    return w.inverse.table[idx[key]]


def outcome(fn, *args):
    """What a call returns, or the message of the `GluingError` it raises."""
    try:
        return fn(*args)
    except GluingError as exc:
        return ("GluingError", str(exc))


def differential_inputs():
    """The structures the batch and per-simplex gluing are compared on:
    Z_3, the pair groupoid on 3 objects and the interval L = 5, each at 5,
    and the seeded complex nerves at 5 that are 2-Segal."""
    inputs = [
        ("Z_3", catalog.nerve(catalog.cyclic_group_category(3), 5)),
        ("pair_groupoid(3)", catalog.nerve(catalog.pair_groupoid(3), 5)),
        ("interval L=5", catalog.partial_monoid_nerve(catalog.interval_monoid(5), 5)),
    ]
    for seed in range(60):
        X = random_complex_nerve(random.Random(seed), 5)
        if check_2segal(X).ok:
            inputs.append((f"complex nerve {seed}", X))
    return inputs


@pytest.fixture(scope="module")
def glue_inputs():
    return differential_inputs()


def empty_structure(N):
    """Every level empty: each glue runs on an empty batch."""
    levels = [FinSet(0)] * (N + 1)
    empty = FinMap(FinSet(0), FinSet(0), ())
    return make_simplicial(levels, [()] + [(empty,) * (n + 1) for n in range(1, N + 1)],
                           [(empty,) * (n + 1) for n in range(N)] + [()])


class TestGlueColumns:
    def test_unglued_columns_glue_back(self, glue_inputs):
        assert len(glue_inputs) > 3 + 20
        for _, X in glue_inputs:
            for n in (3, 4, 5):
                for T in enumerate_triangulations(n):
                    columns = [vertex_map(X, n, t).table for t in T.triangles]
                    assert glue_columns(X, T, columns) == tuple(X.levels[n])

    def test_matches_the_per_element_loop(self, glue_inputs):
        # two seeded components per batch are moved; the batch raises for
        # the first member the loop raises for, or gives the loop's table
        rng = random.Random(5)
        raised = glued = 0
        for _, X in glue_inputs:
            for n in (3, 4):
                for T in enumerate_triangulations(n):
                    columns = [list(vertex_map(X, n, t).table) for t in T.triangles]
                    for _ in range(2):
                        j, k = rng.randrange(len(columns)), rng.randrange(X.levels[n].size)
                        columns[j][k] = rng.randrange(X.levels[2].size)
                    loop = [outcome(loop_glue, X, T, parts) for parts in zip(*columns)]
                    first_error = next((r for r in loop if isinstance(r, tuple)), None)
                    assert outcome(glue_columns, X, T, columns) == (first_error or tuple(loop))
                    assert [outcome(glue, X, T, parts) for parts in zip(*columns)] == loop
                    raised += first_error is not None
                    glued += first_error is None
        assert raised and glued

    def test_a_non_bijective_triangulation_raises_as_the_loop_does(self):
        X = catalog_non_two_segal()
        bad = [T for T in enumerate_triangulations(3) if segal_witness(X, T).inverse is None]
        assert bad
        for T in bad:
            columns = [vertex_map(X, 3, t).table for t in T.triangles]
            expected = outcome(loop_glue, X, T, next(zip(*columns)))
            assert expected == ("GluingError", "triangulation map is not bijective; cannot glue")
            assert outcome(glue_columns, X, T, columns) == expected

    def test_an_empty_batch_glues_nothing(self):
        X = catalog_non_two_segal()
        T = T13
        assert glue_columns(X, T, ((), ())) == ()
        # nothing was looked up, so the failing witness was never built
        assert T not in X.memo
        assert segal_witness(X, T).inverse is None
        assert glue_columns(X, T, ((), ())) == ()

    def test_a_composed_pass_glues_without_a_stack(self, monkeypatch):
        # each structure is built twice, so that the glue under test meets a
        # fresh memo; the references come from the per-simplex loop
        def structures():
            return [catalog.nerve(catalog.cyclic_group_category(3), 4),
                    catalog.partial_monoid_nerve(catalog.interval_monoid(3), 4)]

        rng = random.Random(11)
        expected = {}
        for k, X in enumerate(structures()):
            for n in (3, 4):
                for T in enumerate_triangulations(n):
                    keys = list(zip(*(vertex_map(X, n, t).table for t in T.triangles)))
                    keys += [tuple(rng.randrange(X.levels[2].size) for _ in T.triangles) for _ in range(20)]
                    expected[k, T] = keys, [outcome(loop_glue, X, T, key) for key in keys]

        def no_stack(*args):
            raise AssertionError("a stack was built")

        monkeypatch.setattr(simplicial, "polygon_stack", no_stack)
        monkeypatch.setattr(simplicial, "subdivision_map", no_stack)
        for k, X in enumerate(structures()):
            assert not _face_violations(X)
            for n in (3, 4):
                for T in enumerate_triangulations(n):
                    keys, outcomes = expected[k, T]
                    assert [outcome(glue, X, T, key) for key in keys] == outcomes
                    assert outcomes[:X.levels[n].size] == list(X.levels[n])

    def test_glue_raises_as_the_loop_does_off_the_2_segal_path(self, complex_nerves, doubled):
        # failing maps, structures that are not 2-Segal, and broken face
        # identities, where deciding a map raises the stack's own error
        broken = [mutated_face(catalog.nerve(catalog.cyclic_group_category(2), 4), 4, 2, e) for e in (3, 7)]
        rng = random.Random(17)
        compared = set()
        for X in [catalog_non_two_segal()] + doubled + complex_nerves[::10] + broken:
            for n in range(3, min(X.N, 4) + 1):
                for T in enumerate_triangulations(n):
                    columns = [list(vertex_map(X, n, t).table) for t in T.triangles]
                    j, k = rng.randrange(len(columns)), rng.randrange(X.levels[n].size)
                    columns[j][k] = rng.randrange(X.levels[2].size)
                    loop = [outcome(loop_glue, X, T, parts) for parts in zip(*columns)]
                    first_error = next((r for r in loop if isinstance(r, tuple)), None)
                    assert outcome(glue_columns, X, T, columns) == (first_error or tuple(loop))
                    assert [outcome(glue, X, T, parts) for parts in zip(*columns)] == loop
                    compared.add(first_error and first_error[1].split()[0])
        assert compared == {None, "triangulation", "incompatible", "components"}

    def test_a_ragged_batch_is_refused_before_the_lookup(self):
        # zip would stop at the shortest column and glue a truncated batch
        X = catalog.nerve(catalog.cyclic_group_category(2), 4)
        full = [X.d(3, 3).table, X.d(3, 1).table]
        for columns, lengths in (([full[0], full[1][:3]], [8, 3]),
                                 ([(), full[1]], [0, 8]),
                                 ([full[0], full[1] + (0,)], [8, 9])):
            assert outcome(glue_columns, X, T13, columns) == (
                "GluingError", f"component columns of unequal lengths {lengths}")
        # nothing was looked up, so T's map was never decided
        assert T13 not in X.memo
        # equal lengths still glue, and an empty batch still glues nothing
        assert glue_columns(X, T13, full) == tuple(X.levels[3])
        assert glue_columns(X, T13, [full[0][:3], full[1][:3]]) == (0, 1, 2)
        assert glue_columns(X, T13, ((), ())) == ()

    def test_an_empty_structure_glues_nothing(self):
        X = empty_structure(4)
        for n in (3, 4):
            for T in enumerate_triangulations(n):
                assert glue_columns(X, T, [vertex_map(X, n, t).table for t in T.triangles]) == ()

"""Simplicial identities, triangulations, 2-Segal maps, unitality, and the
polygon calculus for faces and degeneracies."""

import gc
import itertools
import weakref

import pytest

from finspan import catalog
from finspan.acceptance import catalog_non_two_segal
from finspan.documents import StructureDocument, dumps_document, loads_document
from finspan.simplicial import (
    Triangulation,
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
    make_simplicial,
    polygon_stack,
    segal_witness,
    subdivision_map,
    unglue,
    vertex_map,
)
from finspan.spans import FinMap


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

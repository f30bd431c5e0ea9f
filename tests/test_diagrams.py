"""The stacked-diagram evaluator and rewrite engine."""

import gc
import itertools
import math
import pathlib
import random
import weakref

import pytest

from finspan import catalog, diagrams, gammaset, paracyclic, pseudomonoid
from finspan.diagrams import (
    Box,
    DiagramPath,
    RewriteRule,
    box_from_span,
    braiding_rule,
    compare_paths,
    evaluate,
    hexagonator_rule,
    identity_box,
    make_rule,
    syllepsis_rule,
    tensorator_rule,
)
from finspan.documents import load_document
from finspan.spans import (
    FinMap,
    FinSet,
    Span,
    StructuralError,
    compose_spans,
    decode_tuple,
    encode_tuple,
    product_span,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def rand_span(rng, ns, nt, na):
    src, tgt, apex = FinSet(ns), FinSet(nt), FinSet(na)
    return Span(
        src, tgt, apex,
        FinMap(apex, src, tuple(rng.randrange(ns) for _ in range(na))),
        FinMap(apex, tgt, tuple(rng.randrange(nt) for _ in range(na))),
    )


def test_single_box_evaluates_to_itself():
    s = rand_span(random.Random(0), 3, 2, 4)
    ev = evaluate(((box_from_span(s),),))
    assert ev.span == s


def test_row_of_boxes_is_the_product():
    rng = random.Random(1)
    f = rand_span(rng, 2, 2, 3)
    g = rand_span(rng, 2, 3, 2)
    ev = evaluate(((box_from_span(f), box_from_span(g)),))
    assert ev.span == product_span(f, g)


def test_stack_is_the_composite():
    rng = random.Random(2)
    f = rand_span(rng, 2, 3, 4)
    g = rand_span(rng, 3, 2, 3)
    ev = evaluate(((box_from_span(f),), (box_from_span(g),)))
    assert ev.span == compose_spans(f, g)


def test_row_boundary_mismatch_rejected():
    rng = random.Random(3)
    f = rand_span(rng, 2, 3, 4)
    g = rand_span(rng, 2, 2, 3)
    with pytest.raises(StructuralError):
        evaluate(((box_from_span(f),), (box_from_span(g),)))


def test_insert_delete_identity_rows_cancel():
    rng = random.Random(4)
    f = rand_span(rng, 2, 3, 4)
    path = DiagramPath(((box_from_span(f),),))
    path.insert_identity_row(0).delete_identity_row(0)
    other = DiagramPath(((box_from_span(f),),))
    ok, _ = compare_paths(path, other)
    assert ok


def test_deleting_the_only_row_rejected():
    path = DiagramPath(((identity_box(FinSet(2)),),))
    with pytest.raises(StructuralError, match="empty diagram"):
        path.delete_identity_row(0)


def test_rewrite_with_tensorator_and_back():
    rng = random.Random(5)
    f = box_from_span(rand_span(rng, 2, 2, 3), "f")
    g = box_from_span(rand_span(rng, 2, 2, 2), "g")
    rule = tensorator_rule(f, g)
    start = rule.src
    path = DiagramPath(start).rewrite(rule, 0, (0, 0)).rewrite(rule.inverse(), 0, (0, 0))
    ok, _ = compare_paths(path, DiagramPath(start))
    assert ok


def test_rule_must_preserve_exterior_wires():
    x = FinSet(2)
    swap = Span(x, x, x, FinMap(x, x, (0, 1)), FinMap(x, x, (1, 0)))
    idb = identity_box(x)

    def bad(asn):
        return ((0,),)

    with pytest.raises(StructuralError):
        make_rule("bad", ((box_from_span(swap),),), ((idb,),), bad)


def test_corrupted_rule_mapping_is_caught_in_transport():
    x = FinSet(2)
    idb = identity_box(x)
    start = ((idb,), (idb,))
    rule = make_rule("id", start, start, lambda asn: asn)
    # the image of ((0,), (0,)) no longer chains from row 0 to row 1
    corrupted = dict(rule.mapping)
    corrupted[((0,), (0,))] = ((0,), (1,))
    bad = RewriteRule("bad", rule.src, rule.tgt, corrupted, rule.cell)
    path = DiagramPath(start).rewrite(bad, 0, (0, 0))
    with pytest.raises(StructuralError, match="rewrite produced an invalid assignment"):
        compare_paths(path, DiagramPath(start))


def test_corrupted_rule_mapping_is_caught_at_the_pattern_boundary():
    x = FinSet(2)
    idb = identity_box(x)
    rule = make_rule("id", ((idb,),), ((idb,),), lambda asn: asn)
    # the image changes the pattern's in wire, which the row above fixes
    bad = RewriteRule("bad", rule.src, rule.tgt, {((0,),): ((1,),), ((1,),): ((0,),)}, rule.cell)
    start = ((idb,), (idb,))
    path = DiagramPath(start).rewrite(bad, 1, (0,))
    with pytest.raises(StructuralError, match="rewrite produced an invalid assignment"):
        compare_paths(path, DiagramPath(start))


def test_inverse_of_non_injective_rule_rejected():
    x = FinSet(2)
    both = Span(x, x, x, FinMap(x, x, (0, 0)), FinMap(x, x, (0, 0)))
    rule = make_rule("collapse", ((box_from_span(both),),), ((identity_box(x),),), lambda asn: ((0,),))
    with pytest.raises(StructuralError, match="not invertible"):
        rule.inverse()


def test_compare_paths_needs_common_start_and_end():
    rng = random.Random(6)
    f = box_from_span(rand_span(rng, 2, 3, 4), "f")
    g = box_from_span(rand_span(rng, 2, 3, 3), "g")
    with pytest.raises(StructuralError, match="start at different diagrams"):
        compare_paths(DiagramPath(((f,),)), DiagramPath(((g,),)))
    with pytest.raises(StructuralError, match="end at different diagrams"):
        compare_paths(DiagramPath(((f,),)), DiagramPath(((f,),)).insert_identity_row(0))


def _fixture_equation_paths(monkeypatch):
    """Every (lhs, rhs) pair that the pentagon, triangle, snake and hexagon
    checks compare on the shipped fixtures."""
    pairs = []

    def recording(p, q):
        pairs.append((p, q))
        return compare_paths(p, q)

    for module in (pseudomonoid, paracyclic, gammaset):
        monkeypatch.setattr(module, "compare_paths", recording)
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_document(path)
        try:
            P = pseudomonoid.build_pseudomonoid(doc.simplicial)
        except pseudomonoid.ConstructionError:
            P = None
        if P is not None:
            pseudomonoid.verify_pentagon(P)
            pseudomonoid.verify_triangle(P)
        if doc.paracyclic is not None:
            try:
                paracyclic.frobenius_witnesses(paracyclic.frobenius_from_paracyclic(doc.paracyclic))
            except paracyclic.NotFrobeniusError:
                pass
        if doc.gamma is not None:
            gammaset.span_level_commutativity(doc.simplicial, doc.gamma.theta(2, 1))
    return pairs


def test_transported_elements_are_assignments_of_the_end_diagram(monkeypatch):
    pairs = _fixture_equation_paths(monkeypatch)
    # pentagon and triangle on 12 fixtures, two snakes on 8, symmetry and hexagon on 3
    assert len(pairs) == 12 * 2 + 8 * 2 + 3 * 2
    for lhs, rhs in pairs:
        start = evaluate(lhs.start).assignments
        for path in (lhs, rhs):
            end = evaluate(path.diagram).index
            assert all(path.transport(a) in end for a in start)


class TestMemo:
    def test_no_evaluation_outlives_its_equation(self, monkeypatch):
        # no other test builds Z_5 at 3, so no equal diagram was evaluated before
        P = pseudomonoid.build_pseudomonoid(catalog.nerve(catalog.cyclic_group_category(5), 3))
        refs = []

        def recording(diagram):
            ev = evaluate(diagram)
            refs.append(weakref.ref(ev))
            return ev

        monkeypatch.setattr(diagrams, "evaluate", recording)
        assert pseudomonoid.verify_pentagon(P).ok
        assert pseudomonoid.verify_triangle(P).ok
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        # each equation evaluates its start diagram, and each rule its two patterns
        assert len(refs) == (1 + 2 * 2) + (1 + 3 * 2)


# ---------------------------------------------------------------------------
# differential check of evaluate against the full row product


def _wires(table, objs, e):
    return decode_tuple(table[e], tuple(o.size for o in objs))


def _row_wires(row, combo, side):
    if side == "in":
        return tuple(v for b, e in zip(row, combo) for v in _wires(b.span.left.table, b.in_objs, e))
    return tuple(v for b, e in zip(row, combo) for v in _wires(b.span.right.table, b.out_objs, e))


def brute_force_evaluate(diagram):
    """Every combination of apex elements over all rows, kept when the rows
    chain, sorted; and the span it spans between the outer wires."""
    rows = [list(itertools.product(*[range(b.span.apex.size) for b in row])) for row in diagram]
    assignments = sorted(
        asn for asn in itertools.product(*rows)
        if all(
            _row_wires(upper, a, "out") == _row_wires(lower, b, "in")
            for upper, lower, a, b in zip(diagram, diagram[1:], asn, asn[1:])
        )
    )
    in_sizes = tuple(o.size for b in diagram[0] for o in b.in_objs)
    out_sizes = tuple(o.size for b in diagram[-1] for o in b.out_objs)
    src, tgt, apex = FinSet(math.prod(in_sizes)), FinSet(math.prod(out_sizes)), FinSet(len(assignments))
    left = tuple(encode_tuple(_row_wires(diagram[0], a[0], "in"), in_sizes) for a in assignments)
    right = tuple(encode_tuple(_row_wires(diagram[-1], a[-1], "out"), out_sizes) for a in assignments)
    return tuple(assignments), Span(src, tgt, apex, FinMap(apex, src, left), FinMap(apex, tgt, right))


def rand_box(rng, in_objs, out_objs, apex_size):
    span = rand_span(rng, math.prod(o.size for o in in_objs), math.prod(o.size for o in out_objs), apex_size)
    return Box(span, in_objs, out_objs, name="r")


def rand_diagram(rng):
    """Two or three rows of boxes on random wires.  Boxes may have no in
    wires (the unit shape), no out wires, an empty apex or empty fibers."""
    wires = tuple(FinSet(rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
    diagram = []
    for _ in range(rng.randint(2, 3)):
        cuts = sorted(rng.randint(0, len(wires)) for _ in range(rng.randint(0, 2)))
        groups = [wires[a:b] for a, b in zip([0] + cuts, cuts + [len(wires)])]
        if rng.random() < 0.3:
            groups.insert(rng.randint(0, len(groups)), ())
        row, out = [], ()
        for ins in groups:
            outs = tuple(FinSet(rng.randint(1, 3)) for _ in range(rng.randint(0, 2)))
            apex = 0 if rng.random() < 0.02 else rng.randint(1, 2 + math.prod(o.size for o in ins))
            row.append(rand_box(rng, ins, outs, apex))
            out += outs
        diagram.append(tuple(row))
        wires = out
    return tuple(diagram)


def assert_matches_brute_force(diagram):
    ev = evaluate(diagram)
    assignments, span = brute_force_evaluate(diagram)
    assert ev.assignments == assignments
    assert ev.span == span


@pytest.mark.parametrize("seed", range(60))
def test_evaluate_matches_full_row_product(seed):
    assert_matches_brute_force(rand_diagram(random.Random(1000 + seed)))


def test_evaluate_matches_full_row_product_on_unit_and_empty_boxes():
    rng = random.Random(7)
    x = FinSet(2)
    eta = rand_box(rng, (), (x,), 3)
    empty = rand_box(rng, (x,), (x,), 0)
    sparse = Box(Span(x, x, FinSet(2), FinMap(FinSet(2), x, (1, 1)), FinMap(FinSet(2), x, (0, 1))),
                 (x,), (x,), name="sparse")
    assert_matches_brute_force(((eta, eta), (sparse, identity_box(x))))
    assert_matches_brute_force(((eta,), (empty,)))
    assert_matches_brute_force(((identity_box(x),), (sparse,), (sparse,)))


def test_evaluate_matches_full_row_product_on_coherence_patterns():
    rng = random.Random(8)
    x, y, z = FinSet(2), FinSet(3), FinSet(2)
    f = box_from_span(rand_span(rng, 2, 3, 4), "f")
    g = box_from_span(rand_span(rng, 3, 2, 3), "g")
    for rule in (tensorator_rule(f, g), braiding_rule(f, g), syllepsis_rule(x, y),
                 hexagonator_rule(x, y, z)):
        assert_matches_brute_force(rule.src)
        assert_matches_brute_force(rule.tgt)


def test_box_tables_leave_equality_and_hash_alone():
    s = rand_span(random.Random(9), 6, 2, 5)
    x, y = FinSet(2), FinSet(3)
    a, b = Box(s, (x, y), (x,), name="a"), Box(s, (x, y), (x,), name="b")
    before = hash(a)
    assert a.in_table == tuple(decode_tuple(v, (2, 3)) for v in s.left.table)
    assert a.out_table == tuple((v,) for v in s.right.table)
    assert sorted(e for es in a.fibers.values() for e in es) == list(range(5))
    assert hash(a) == before == hash(b)
    assert a == b and b == a
    assert {a: 1}[b] == 1

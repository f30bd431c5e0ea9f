"""The stacked-diagram evaluator and rewrite engine."""

import functools
import gc
import itertools
import math
import pathlib
import random
import weakref

import pytest

from finspan import acceptance, catalog, diagrams, gammaset, paracyclic, pseudomonoid
from finspan.diagrams import (
    Box,
    DiagramPath,
    RewriteRule,
    box_from_span,
    braiding_rule,
    compare_paths,
    evaluate,
    first_moved,
    hexagonator_rule,
    identity_box,
    row_in_objs,
    row_out_objs,
    syllepsis_rule,
    tensorator_rule,
)
from finspan.cli import main
from finspan.documents import StructureDocument, dumps_document, load_document
from finspan.spans import (
    FinMap,
    FinSet,
    Span,
    StructuralError,
    block_braiding_span,
    braiding_span,
    compose_spans,
    identity_map,
    identity_span,
    product_span,
)
from test_spans import decode_tuple, encode_tuple

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def rand_span(rng, ns, nt, na):
    src, tgt, apex = FinSet(ns), FinSet(nt), FinSet(na)
    return Span(
        src, tgt, apex,
        FinMap(apex, src, tuple(rng.randrange(ns) for _ in range(na))),
        FinMap(apex, tgt, tuple(rng.randrange(nt) for _ in range(na))),
    )


# ---------------------------------------------------------------------------
# assignment-level references: an apex element as one element per box,
# grouped by row, which the package lists only in a discrepancy


def assignments(ev):
    """The apex elements of an evaluated diagram as assignments, in apex
    order, zipped from its box columns."""
    count = ev.span.apex.size
    return tuple(zip(*(tuple(zip(*row)) if row else ((),) * count for row in ev.columns)))


def transport(path, asn):
    """Where a path takes one start assignment, carried as a batch of one."""
    columns = path.carry(tuple(tuple((e,) for e in row) for row in asn), 1)
    return tuple(tuple(c[0] for c in row) for row in columns)


def make_rule(name, src_rows, tgt_rows, fn):
    """A table rule from unpadded patterns and a map `fn` on assignments,
    built as the package built every rule before their element maps had
    closed forms: each image must be an assignment of the tgt pattern, and
    the rule's `SpanCell` checks on its legs that the exterior wire values
    of each source and image agree."""
    src_rows = tuple(tuple(r) for r in src_rows)
    tgt_rows = tuple(tuple(r) for r in tgt_rows)
    if row_in_objs(src_rows[0]) != row_in_objs(tgt_rows[0]):
        raise StructuralError("rule patterns have different in wires")
    if row_out_objs(src_rows[-1]) != row_out_objs(tgt_rows[-1]):
        raise StructuralError("rule patterns have different out wires")
    ev_src, ev_tgt = evaluate(src_rows), evaluate(tgt_rows)
    valid = set(assignments(ev_tgt))
    # an image that is not an assignment goes in as None, which no flat
    # tuple of box elements equals
    images = (tuple(e for row in image for e in row) if image in valid else None
              for image in (tuple(fn(a)) for a in assignments(ev_src)))
    cell = diagrams._rule_cell(name, ev_src, ev_tgt, images)
    return diagrams._padded_rule(name, ev_src, ev_tgt, cell)


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

    with pytest.raises(StructuralError, match="rule bad"):
        make_rule("bad", ((box_from_span(swap),),), ((idb,),), bad)


def test_corrupted_rule_mapping_is_caught_in_transport():
    x = FinSet(2)
    idb = identity_box(x)
    start = ((idb,), (idb,))
    rule = make_rule("id", start, start, lambda asn: asn)
    # the image of (0, 0) no longer chains from row 0 to row 1
    corrupted = dict(rule.mapping)
    corrupted[(0, 0)] = (0, 1)
    bad = RewriteRule("bad", rule.src, rule.tgt, corrupted, rule.cell)
    path = DiagramPath(start).rewrite(bad, 0, (0, 0))
    with pytest.raises(StructuralError, match="rewrite produced an invalid assignment"):
        compare_paths(path, DiagramPath(start))


def test_corrupted_rule_mapping_is_caught_at_the_pattern_boundary():
    x = FinSet(2)
    idb = identity_box(x)
    rule = make_rule("id", ((idb,),), ((idb,),), lambda asn: asn)
    # the image changes the pattern's in wire, which the row above fixes
    bad = RewriteRule("bad", rule.src, rule.tgt, {(0,): (1,), (1,): (0,)}, rule.cell)
    start = ((idb,), (idb,))
    path = DiagramPath(start).rewrite(bad, 1, (0,))
    with pytest.raises(StructuralError, match="rewrite produced an invalid assignment"):
        compare_paths(path, DiagramPath(start))


@pytest.mark.parametrize("col", [0, 1])
@pytest.mark.parametrize("straddling", ["above", "below"])
def test_chain_check_reads_the_wires_of_a_box_straddling_the_pattern(straddling, col):
    # a box with two wires on the pattern's side (the diagonal x -> x*x or
    # its reverse) meets the rewritten box on one wire and an identity that
    # is not rewritten on the other
    x = FinSet(2)
    idb = identity_box(x)
    pairs = FinSet(4)
    ident, diagonal = FinMap(x, x, (0, 1)), FinMap(x, pairs, (0, 3))
    if straddling == "above":
        start, at_row = ((Box(Span(x, pairs, x, ident, diagonal), (x,), (x, x)),), (idb, idb)), 1
    else:
        start, at_row = ((idb, idb), (Box(Span(pairs, x, x, diagonal, ident), (x, x), (x,)),)), 0
    rule = make_rule("id", ((idb,),), ((idb,),), lambda asn: asn)
    ok, _ = compare_paths(DiagramPath(start).rewrite(rule, at_row, (col,)), DiagramPath(start))
    assert ok
    # swapping the rewritten wire's value breaks the diagonal's equal pair
    bad = RewriteRule("bad", rule.src, rule.tgt, {(0,): (1,), (1,): (0,)}, rule.cell)
    path = DiagramPath(start).rewrite(bad, at_row, (col,))
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


def _record_equations(monkeypatch) -> list:
    """The (lhs, rhs) pairs that the equation checks compare from now on."""
    pairs = []

    def recording(p, q):
        pairs.append((p, q))
        return compare_paths(p, q)

    for module in (pseudomonoid, paracyclic, gammaset):
        monkeypatch.setattr(module, "compare_paths", recording)
    return pairs


def _fixture_equation_paths(monkeypatch):
    """Every (lhs, rhs) pair that the pentagon, triangle, snake and hexagon
    checks compare on the shipped fixtures."""
    pairs = _record_equations(monkeypatch)
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
        start = assignments(evaluate(lhs.start))
        for path in (lhs, rhs):
            end = set(assignments(evaluate(path.diagram)))
            assert all(transport(path, a) in end for a in start)


def _whole_row_rewrite_step(new_diagram, rule, at_row, cols):
    """A rewrite step that decodes both whole rows at every row interface
    touching a rewritten row."""
    depth = len(rule.src)
    seams = range(max(at_row, 1), min(at_row + depth, len(new_diagram) - 1) + 1)

    def step(asn):
        local = tuple(e for r in range(depth) for e in asn[at_row + r][cols[r] : cols[r] + len(rule.src[r])])
        image = rule.mapping[local]
        rows = list(asn)
        for r in range(depth):
            old = asn[at_row + r]
            width = len(rule.tgt[r])
            rows[at_row + r] = old[: cols[r]] + image[:width] + old[cols[r] + len(rule.src[r]) :]
            image = image[width:]
        for i in seams:
            if _row_wires(new_diagram[i - 1], rows[i - 1], "out") != _row_wires(new_diagram[i], rows[i], "in"):
                raise StructuralError("invalid assignment")
        return tuple(rows)

    return step


def _whole_row_insert_step(diagram, at):
    def step(asn):
        vals = _row_wires(diagram[0], asn[0], "in") if at == 0 else _row_wires(diagram[at - 1], asn[at - 1], "out")
        return asn[:at] + (vals,) + asn[at:]

    return step


def _batch_of_one(step):
    """A batch step applied to one assignment."""
    def apply(asn):
        columns = step(tuple(tuple((e,) for e in row) for row in asn), 1)
        return tuple(tuple(c[0] for c in row) for row in columns)

    return apply


@pytest.fixture
def whole_row(monkeypatch):
    """Records a whole-row step for each rewrite and insertion made while
    the test runs, and returns a check that a path's batch map agrees with
    running the recorded steps (deletions as they are) one assignment at a
    time; the check returns the path's recorded steps."""
    reference = {}
    apply_rewrite, insert_identity_row = diagrams.apply_rewrite, diagrams.insert_identity_row

    def rewrite(diagram, rule, at_row, cols):
        new, step = apply_rewrite(diagram, rule, at_row, cols)
        reference[step] = _whole_row_rewrite_step(new, rule, at_row, cols)
        return new, step

    def insert(diagram, at):
        new, step = insert_identity_row(diagram, at)
        reference[step] = _whole_row_insert_step(diagram, at)
        return new, step

    monkeypatch.setattr(diagrams, "apply_rewrite", rewrite)
    monkeypatch.setattr(diagrams, "insert_identity_row", insert)

    def check(path):
        ev = evaluate(path.start)
        count = ev.span.apex.size
        steps = [reference.get(step) or _batch_of_one(step) for step in path.steps]
        expected = []
        for a in assignments(ev):
            for step in steps:
                a = step(a)
            expected.append(a)
        ends = path.carry(ev.columns, count)
        assert list(zip(*(tuple(zip(*row)) if row else ((),) * count for row in ends))) == expected
        assert [transport(path, a) for a in assignments(ev)] == expected
        return [step for step in path.steps if step in reference]

    check.reference = reference
    return check


def test_steps_match_whole_row_steps_on_fixture_paths(monkeypatch, whole_row):
    pairs = _fixture_equation_paths(monkeypatch)
    assert len(pairs) == 12 * 2 + 8 * 2 + 3 * 2
    checked = set()
    for lhs, rhs in pairs:
        for path in (lhs, rhs):
            checked.update(whole_row(path))
    # every recorded rewrite and insertion lies on a compared path
    assert checked == whole_row.reference.keys()


@pytest.mark.parametrize("category", [catalog.cyclic_group_category(5), catalog.pair_groupoid(3)],
                         ids=["Z5", "pair3"])
def test_steps_match_whole_row_steps_on_pentagon_and_triangle(monkeypatch, whole_row, category):
    pairs = _record_equations(monkeypatch)
    P = pseudomonoid.build_pseudomonoid(catalog.nerve(category, 3))
    assert pseudomonoid.verify_pentagon(P).ok
    assert pseudomonoid.verify_triangle(P).ok
    assert len(pairs) == 2
    checked = set()
    for lhs, rhs in pairs:
        for path in (lhs, rhs):
            checked.update(whole_row(path))
    assert checked == whole_row.reference.keys()


def test_rule_changing_a_row_width_below_the_top_row(whole_row):
    # two rows of two identity wires become one box on the pair, padded
    # with a row of two identities: row widths 2, 2 go to 1, 2, at column 1
    rng = random.Random(10)
    x, pairs = FinSet(2), FinSet(4)
    idb = identity_box(x)
    pair = Box(Span(pairs, pairs, pairs, FinMap(pairs, pairs, (0, 1, 2, 3)), FinMap(pairs, pairs, (0, 1, 2, 3))),
               (x, x), (x, x), name="pair")
    rule = make_rule("merge", ((idb, idb), (idb, idb)), ((pair,),),
                     lambda asn: ((encode_tuple(asn[0], (2, 2)),),))
    assert [len(row) for row in rule.tgt] == [1, 2]
    start = (
        (rand_box(rng, (x,), (x,), 3), rand_box(rng, (x,), (x, x), 5)),
        (idb, idb, idb),
        (idb, idb, idb),
        (rand_box(rng, (x, x), (x,), 6), rand_box(rng, (x,), (x,), 3)),
    )
    assert len(assignments(evaluate(start))) > 0
    there = DiagramPath(start).rewrite(rule, 1, (1, 1))
    assert there.diagram[1:3] == ((idb, pair), (idb, idb, idb))
    back = DiagramPath(start).rewrite(rule, 1, (1, 1)).rewrite(rule.inverse(), 1, (1, 1))
    whole_row(there)
    whole_row(back)
    ok, discrepancy = compare_paths(back, DiagramPath(start))
    assert ok and len(discrepancy) == len(assignments(evaluate(start)))


def test_compare_paths_on_an_empty_start_apex(whole_row):
    rng = random.Random(11)
    f = box_from_span(rand_span(rng, 2, 2, 0), "f")
    g = box_from_span(rand_span(rng, 2, 2, 3), "g")
    rule = tensorator_rule(f, g)
    start = rule.src
    path = DiagramPath(start).rewrite(rule, 0, (0, 0)).insert_identity_row(1).delete_identity_row(1)
    path.rewrite(rule.inverse(), 0, (0, 0))
    assert whole_row(path)
    assert compare_paths(path, DiagramPath(start)) == (True, {})


def test_steps_across_a_zero_box_row(whole_row):
    # row 2 has no boxes: the counit eps ends the wire and the unit eta
    # starts it again; flip swaps two elements of eta with equal legs
    x, one, three = FinSet(2), FinSet(1), FinSet(3)
    idb = identity_box(x)
    eps = Box(Span(x, one, x, FinMap(x, x, (0, 1)), FinMap(x, one, (0, 0))), (x,), (), name="eps")
    eta = Box(Span(one, x, three, FinMap(three, one, (0, 0, 0)), FinMap(three, x, (0, 0, 1))), (), (x,), name="eta")
    flip = make_rule("flip", ((eta,),), ((eta,),), lambda asn: (({0: 1, 1: 0}.get(asn[0][0], asn[0][0]),),))
    start = ((idb,), (eps,), (), (eta,), (idb,))
    assert len(assignments(evaluate(start))) == 6
    once = DiagramPath(start).rewrite(flip, 3, (0,))
    detour = DiagramPath(start).rewrite(flip, 3, (0,)).insert_identity_row(2).delete_identity_row(3)
    twice = DiagramPath(start).rewrite(flip, 3, (0,)).delete_identity_row(2).insert_identity_row(2)
    twice.rewrite(flip, 3, (0,))
    for path in (once, detour, twice):
        assert whole_row(path)
    assert compare_paths(once, detour)[0]
    assert compare_paths(twice, DiagramPath(start))[0]
    ok, discrepancy = compare_paths(once, DiagramPath(start))
    assert not ok
    assert first_moved(discrepancy) == (((0,), (0,), (), (0,), (0,)), ((0,), (0,), (), (1,), (0,)))


def _record_evaluations(monkeypatch) -> tuple[list, list]:
    """Weak references to every evaluation made from now on, and the
    diagrams evaluated."""
    refs, evaluated = [], []

    def recording(diagram):
        ev = evaluate(diagram)
        refs.append(weakref.ref(ev))
        evaluated.append(diagram)
        return ev

    for module in (diagrams, pseudomonoid, gammaset):
        monkeypatch.setattr(module, "evaluate", recording)
    return refs, evaluated


class TestMemo:
    def test_no_evaluation_outlives_its_equation(self, monkeypatch):
        P = pseudomonoid.build_pseudomonoid(catalog.nerve(catalog.cyclic_group_category(5), 3))
        refs, evaluated = _record_evaluations(monkeypatch)
        assert pseudomonoid.verify_pentagon(P).ok
        # the tensorator carries elements in closed form, so its patterns are
        # never evaluated
        mu = P.boxes()[0]
        c = tensorator_rule(mu, mu)
        assert c.src not in evaluated and c.tgt not in evaluated
        assert pseudomonoid.verify_triangle(P).ok
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        # each equation evaluates only its start diagram: the associator and
        # unitor rules are the pseudomonoid's own, built when it was
        assert len(refs) == 1 + 1

    def test_each_pseudomonoid_pattern_is_evaluated_once(self, monkeypatch):
        X = catalog.nerve(catalog.cyclic_group_category(5), 3)
        _, evaluated = _record_evaluations(monkeypatch)
        P = pseudomonoid.build_pseudomonoid(X)
        mu, eta, idb = P.boxes()
        patterns = [
            pseudomonoid.assoc_src_rows(mu, idb), pseudomonoid.assoc_tgt_rows(mu, idb),
            pseudomonoid.lunit_src_rows(eta, mu, idb), pseudomonoid.runit_src_rows(eta, mu, idb),
            ((idb,),),
        ]
        assert len(evaluated) == len(patterns)
        assert all(evaluated.count(p) == 1 for p in patterns)

    def test_commutativity_makes_nine_evaluations(self, monkeypatch, interval_l3_gamma):
        # the five pseudomonoid patterns, the commutor rule's two, and the
        # start diagram of each equation; before the pseudomonoid took the
        # evaluations its construction made, there were 13
        X, theta = interval_l3_gamma.base, interval_l3_gamma.theta(2, 1)
        _, evaluated = _record_evaluations(monkeypatch)
        assert gammaset.span_level_commutativity(X, theta).ok
        assert len(evaluated) == 5 + 2 + 2

    def test_each_conversion_evaluates_the_braided_pattern_once(self, monkeypatch, interval_l3_gamma, tmp_path):
        # the commutor rule's tgt is the braided pattern; the cell and its
        # theta are read from the same evaluation, so each conversion makes
        # nine: before they shared it, ten, and eleven through the CLI
        G = interval_l3_gamma
        X = G.base
        braided = gammaset._braided_mult_rows(X, gammaset._mu_box(X))
        _, evaluated = _record_evaluations(monkeypatch)
        cell, report = gammaset.commutative_from_gamma(G, full_span_level=True)
        assert report.ok
        assert evaluated.count(braided) == 1 and len(evaluated) == 9
        evaluated.clear()
        gammaset.gamma_from_commutative(X, cell.gamma)
        assert evaluated.count(braided) == 1 and len(evaluated) == 9
        commutative = tmp_path / "commutative.json"
        commutative.write_text(dumps_document(StructureDocument(X, commutative=cell.theta)))
        evaluated.clear()
        assert main(["derive", str(commutative), "--direction", "commutative-to-gamma",
                     "-o", str(tmp_path / "gamma.json")]) == 0
        assert evaluated.count(braided) == 1 and len(evaluated) == 9

    def test_commutativity_evaluates_no_structural_pattern(self, monkeypatch, interval_l3_gamma):
        X, theta = interval_l3_gamma.base, interval_l3_gamma.theta(2, 1)
        x1 = X.levels[1]
        mu, _, idb = pseudomonoid.build_pseudomonoid(X).boxes()
        refs, evaluated = _record_evaluations(monkeypatch)
        report = gammaset.span_level_commutativity(X, theta)
        assert report.ok
        v = syllepsis_rule(x1, x1)
        for rule in (braiding_rule(idb, mu), v, v.inverse(), hexagonator_rule(x1, x1, x1)):
            assert rule.src not in evaluated and rule.tgt not in evaluated
        del report
        gc.collect()
        assert refs and all(ref() is None for ref in refs)


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
    brute_force, span = brute_force_evaluate(diagram)
    assert assignments(ev) == brute_force
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
    assert_matches_brute_force(((),))
    assert_matches_brute_force(((), ()))


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
    assert hash(a) == before == hash(b)
    assert a == b and b == a
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("seed", range(20))
def test_box_wire_tables_match_the_decoded_legs(seed):
    # zero to three wires a side, size-1 wires among them
    rng = random.Random(3000 + seed)
    ins, outs = (tuple(FinSet(rng.randint(1, 3)) for _ in range(rng.randint(0, 3))) for _ in range(2))
    b = rand_box(rng, ins, outs, rng.randint(0, 6))
    for objs, table, rows, wires in ((ins, b.span.left.table, b.in_table, b.in_wires),
                                     (outs, b.span.right.table, b.out_table, b.out_wires)):
        assert rows == tuple(decode_tuple(v, tuple(o.size for o in objs)) for v in table)
        assert wires == tuple(tuple(r[w] for r in rows) for w in range(len(objs)))


# ---------------------------------------------------------------------------
# the closed-form structural rules against the assignment-level rules they
# replaced


def fn_tensorator_rule(f, g):
    """The tensorator built by `make_rule` from a map on assignments, as it
    was built before its element map had a closed form."""
    src = ((f,) + tuple(map(identity_box, g.in_objs)), tuple(map(identity_box, f.out_objs)) + (g,))
    tgt = (tuple(map(identity_box, f.in_objs)) + (g,), (f,) + tuple(map(identity_box, g.out_objs)))

    def fn(asn):
        ef = asn[0][0]
        eg = asn[1][-1]
        return (f.in_table[ef] + (eg,), (ef,) + g.out_table[eg])

    return make_rule("tensorator", src, tgt, fn)


def fn_braiding_rule(f, g):
    """The braiding built by `make_rule` from a map on assignments, as it
    was built before its element map had a closed form."""
    rho_out = Box(block_braiding_span(f.out_objs, g.out_objs), f.out_objs + g.out_objs,
                  g.out_objs + f.out_objs, name="braid")
    rho_in = Box(block_braiding_span(f.in_objs, g.in_objs), f.in_objs + g.in_objs,
                 g.in_objs + f.in_objs, name="braid")
    src = ((f, g), (rho_out,))
    tgt = ((rho_in,), (g, f))

    def fn(asn):
        ef, eg = asn[0]
        p = encode_tuple(f.in_table[ef] + g.in_table[eg], tuple(o.size for o in f.in_objs + g.in_objs))
        return ((p,), (eg, ef))

    return make_rule("braiding", src, tgt, fn)


def fn_syllepsis_rule(x, y):
    """The syllepsis built by `make_rule`, as it was before."""
    rho_xy = Box(braiding_span(x, y), (x, y), (y, x), name="braid")
    rho_yx = Box(braiding_span(y, x), (y, x), (x, y), name="braid")
    src = ((rho_xy,), (rho_yx,))
    tgt = ((identity_box(x), identity_box(y)),)

    def fn(asn):
        (p,) = asn[0]
        return (decode_tuple(p, (x.size, y.size)),)

    return make_rule("syllepsis", src, tgt, fn)


def fn_hexagonator_rule(x, y, z):
    """The hexagonator built by `make_rule`, as it was before."""
    rho_xy = Box(braiding_span(x, y), (x, y), (y, x), name="braid")
    rho_xz = Box(braiding_span(x, z), (x, z), (z, x), name="braid")
    rho_x_yz = Box(block_braiding_span((x,), (y, z)), (x, y, z), (y, z, x), name="braid")
    src = ((rho_xy, identity_box(z)), (identity_box(y), rho_xz))
    tgt = ((rho_x_yz,),)

    def fn(asn):
        p, c = asn[0]
        a, b = decode_tuple(p, (x.size, y.size))
        return ((encode_tuple((a, b, c), (x.size, y.size, z.size)),),)

    return make_rule("hexagonator", src, tgt, fn)


def assert_matches_table(rule, old):
    """A closed-form rule agrees with the assignment-level rule `old`: its
    `carry` on the whole source batch, before its tables are built, then
    its table, cell and inverse table."""
    assert (rule.name, rule.src, rule.tgt) == (old.name, old.src, old.tgt)
    assert "_tables" not in vars(rule)
    ev = evaluate(rule.src)
    columns = [c for row in ev.columns for c in row]
    carried = rule.carry(columns, ev.span.apex.size)
    assert len(carried) == sum(map(len, rule.tgt))
    assert all(isinstance(c, tuple) and len(c) == ev.span.apex.size for c in carried)
    assert list(zip(*carried)) == [old.mapping[m] for m in zip(*columns)]
    assert rule.mapping == old.mapping
    assert rule.cell.map.table == old.cell.map.table
    assert (rule.cell.source, rule.cell.target) == (old.cell.source, old.cell.target)
    assert rule.inverse().mapping == old.inverse().mapping


def assert_tensorator_matches_table(f, g):
    assert_matches_table(tensorator_rule(f, g), fn_tensorator_rule(f, g))


def rand_box_pair(rng):
    """Two boxes on zero to three wires a side, sometimes with an empty apex."""
    def box():
        ins, outs = (tuple(FinSet(rng.randint(1, 3)) for _ in range(rng.randint(0, 3))) for _ in range(2))
        return rand_box(rng, ins, outs, 0 if rng.random() < 0.1 else rng.randint(1, 6))

    return box(), box()


BOX_PAIR_SEEDS = range(40)


def test_tensorator_seeds_cover_the_box_shapes():
    boxes = [b for seed in BOX_PAIR_SEEDS for b in rand_box_pair(random.Random(2000 + seed))]
    assert any(len(b.in_objs) > 1 for b in boxes) and any(len(b.out_objs) > 1 for b in boxes)
    assert any(not b.in_objs for b in boxes) and any(not b.out_objs for b in boxes)
    assert any(b.span.apex.size == 0 for b in boxes)
    assert any(o.size == 1 for b in boxes for o in b.in_objs + b.out_objs)


@pytest.mark.parametrize("seed", BOX_PAIR_SEEDS)
def test_tensorator_matches_the_assignment_level_rule(seed):
    assert_tensorator_matches_table(*rand_box_pair(random.Random(2000 + seed)))


@pytest.mark.parametrize("seed", BOX_PAIR_SEEDS)
def test_braiding_matches_the_assignment_level_rule(seed):
    f, g = rand_box_pair(random.Random(2000 + seed))
    assert_matches_table(braiding_rule(f, g), fn_braiding_rule(f, g))


# set sizes for the syllepsis and hexagonator, 1 and the empty set included
SET_SIZES = (0, 1, 2, 3)


@pytest.mark.parametrize("sizes", list(itertools.product(SET_SIZES, repeat=2)))
def test_syllepsis_matches_the_assignment_level_rule(sizes):
    x, y = map(FinSet, sizes)
    v, old = syllepsis_rule(x, y), fn_syllepsis_rule(x, y)
    assert_matches_table(v, old)
    # the inverse is closed-form too
    assert_matches_table(v.inverse(), old.inverse())
    assert v.inverse().cell == old.inverse().cell


@pytest.mark.parametrize("sizes", list(itertools.product(SET_SIZES, repeat=3)))
def test_hexagonator_matches_the_assignment_level_rule(sizes):
    x, y, z = map(FinSet, sizes)
    assert_matches_table(hexagonator_rule(x, y, z), fn_hexagonator_rule(x, y, z))


def test_rules_of_the_commutativity_equations_match_the_assignment_level_rules(interval_l3_gamma):
    X = interval_l3_gamma.base
    x1 = X.levels[1]
    mu, _, idb = pseudomonoid.build_pseudomonoid(X).boxes()
    assert_matches_table(braiding_rule(idb, mu), fn_braiding_rule(idb, mu))
    assert_matches_table(syllepsis_rule(x1, x1).inverse(), fn_syllepsis_rule(x1, x1).inverse())
    assert_matches_table(hexagonator_rule(x1, x1, x1), fn_hexagonator_rule(x1, x1, x1))


def fn_commutor_rule(X, theta, mub):
    """The commutor mu => mu∘rho built by `make_rule`, as it was before."""
    x1 = X.levels[1]
    idb = identity_box(x1)
    rho = Box(braiding_span(x1, x1), (x1, x1), (x1, x1), name="braid")

    def fn(asn):
        m = asn[1][0]
        return ((X.d(2, 2).table[m] * x1.size + X.d(2, 0).table[m],), (theta.table[m],))

    return make_rule("commutor", ((idb, idb), (mub,)), ((rho,), (mub,)), fn)


def fn_snake_rules(C):
    """zig and zag built by `make_rule`, as they were before."""
    x1 = C.base.levels[1]
    ab = Box(paracyclic.normalized_pairing_span(x1, C.tau1), (x1, x1), (), name="pairing")
    bb = Box(paracyclic.copairing_span(x1, C.tau1), (), (x1, x1), name="copairing")
    idb = identity_box(x1)

    def fn(asn):
        return ((asn[0][0],), (asn[0][0],))

    return (make_rule("zig", ((bb, idb), (idb, ab)), ((idb,), (idb,)), fn),
            make_rule("zag", ((idb, bb), (ab, idb)), ((idb,), (idb,)), fn))


def closed_form_rules_made(monkeypatch, module, run) -> dict:
    """The closed-form rules that `module` makes while `run()` runs, by
    name, each made again from the same patterns and carry so that its
    tables are not built yet."""
    made = {}

    def recording(name, *args, **parts):
        made[name] = args, parts
        return diagrams.ClosedFormRule(name, *args, **parts)

    monkeypatch.setattr(module, "ClosedFormRule", recording)
    run()
    return {name: diagrams.ClosedFormRule(name, *args, **parts) for name, (args, parts) in made.items()}


def z3_swap():
    """Z_3 at 3 with theta the swap (a, b) -> (b, a) of its level-2 pairs."""
    X = catalog.nerve(catalog.cyclic_group_category(3), 3)
    return X, FinMap(X.levels[2], X.levels[2], tuple(b * 3 + a for a in range(3) for b in range(3)))


@pytest.mark.parametrize("structure", ["interval_l3_gamma", "path3_gamma", "z3"])
def test_commutor_matches_the_assignment_level_rule(monkeypatch, request, structure):
    if structure == "z3":
        X, theta = z3_swap()
    else:
        G = request.getfixturevalue(structure)
        X, theta = G.base, G.theta(2, 1)
    mub = gammaset._mu_box(X)
    rules = closed_form_rules_made(monkeypatch, gammaset, lambda: gammaset.gamma_rule(X, theta, mub))
    assert_matches_table(rules["commutor"], fn_commutor_rule(X, theta, mub))
    # the commutor's images depend on theta, so it builds its cell when made
    assert "_tables" in vars(gammaset.gamma_rule(X, theta, mub))


@pytest.mark.parametrize("fixture", ["pair_groupoid2", "twisted_z3_inversion"])
def test_snakes_match_the_assignment_level_rules(monkeypatch, fixture):
    C = paracyclic.frobenius_from_paracyclic(load_document(FIXTURES / f"{fixture}.json").paracyclic)
    # tau is not the identity, so the pairing's element differs from the
    # copairing's in some zig source element
    assert C.tau1.table != tuple(range(len(C.tau1.table)))
    rules = closed_form_rules_made(monkeypatch, paracyclic, lambda: paracyclic.frobenius_witnesses(C))
    assert sorted(rules) == ["zag", "zig"]
    zig, zag = fn_snake_rules(C)
    assert_matches_table(rules["zig"], zig)
    assert_matches_table(rules["zag"], zag)


@pytest.mark.parametrize("category", [catalog.cyclic_group_category(5), catalog.pair_groupoid(3)],
                         ids=["Z5", "pair3"])
def test_tensorator_of_mu_matches_the_assignment_level_rule(category):
    mu = pseudomonoid.build_pseudomonoid(catalog.nerve(category, 3)).boxes()[0]
    assert_tensorator_matches_table(mu, mu)


def test_tensorator_image_that_does_not_chain_is_refused():
    # carrying f's two in wires crossed gives identity values that f's own
    # in wires contradict
    rng = random.Random(12)
    x = FinSet(2)
    f = rand_box(rng, (x, x), (x,), 4)
    g = rand_box(rng, (x,), (x,), 3)
    assert any(a != b for a, b in zip(*f.in_wires))

    rule = tensorator_rule(f, g)

    def crossed(columns, count):
        image = rule.carry(columns, count)
        return (image[1], image[0]) + image[2:]

    with pytest.raises(StructuralError, match="rule tensorator: image assignment is not valid"):
        diagrams.ClosedFormRule(rule.name, rule.src, rule.tgt, crossed).cell
    # a rewrite checks each image to chain, with no table to look it up in
    start = evaluate(rule.src)
    crossed_rule = diagrams.ClosedFormRule(rule.name, rule.src, rule.tgt, crossed)
    path = DiagramPath(start.diagram).rewrite(crossed_rule, 0, (0, 0))
    with pytest.raises(StructuralError, match="rule tensorator: rewrite produced an invalid assignment"):
        path.carry(start.columns, start.span.apex.size)


# ---------------------------------------------------------------------------
# equations decided on end columns, table rules checked once


def eager_discrepancy(p, q):
    """The discrepancy of `compare_paths` built as two dicts over the start
    apex, as it was before it was built only when read."""
    start = evaluate(p.start)
    count = start.span.apex.size

    def ends(path):
        return diagrams._members([c for row in path.carry(start.columns, count) for c in row], count)

    q_back = dict(zip(ends(q), assignments(start)))
    return {a: q_back[e] for a, e in zip(assignments(start), ends(p))}


def assert_matches_eager(p, q, ok):
    eager = eager_discrepancy(p, q)
    result, discrepancy = compare_paths(p, q)
    assert result is ok and ok == all(k == v for k, v in eager.items())
    assert len(discrepancy) == len(eager)
    assert list(discrepancy.items()) == list(eager.items())
    assert first_moved(discrepancy) == first_moved(eager)
    assert discrepancy == eager and dict(discrepancy) == eager


def commutor_symmetry_paths(theta):
    """The span-level symmetry equation's two paths for a multiplication
    box mu on X = {0, 1} with four elements over X x X, 0 and 1 over
    (0, 1) and 2 and 3 over (1, 0), all with product 0, and the commutor
    mu => mu∘rho that sends element m to theta[m]."""
    x, pairs, four = FinSet(2), FinSet(4), FinSet(4)
    mu = Box(Span(pairs, x, four, FinMap(four, pairs, (1, 1, 2, 2)), FinMap(four, x, (0, 0, 0, 0))),
             (x, x), (x,), "mu")
    idb = identity_box(x)
    braid = Box(block_braiding_span((x,), (x,)), (x, x), (x, x), name="braid")
    commutor = make_rule(
        "commutor", ((idb, idb), (mu,)), ((braid,), (mu,)),
        lambda asn: ((asn[0][0] * 2 + asn[0][1],), (theta[asn[1][0]],)),
    )
    start = ((mu,),)
    lhs = (DiagramPath(start).insert_identity_row(0).rewrite(commutor, 0, (0, 0))
           .insert_identity_row(1).rewrite(commutor, 1, (0, 0)))
    rhs = DiagramPath(start).insert_identity_row(0).insert_identity_row(0)
    rhs.rewrite(syllepsis_rule(x, x).inverse(), 0, (0, 0))
    return lhs, rhs


def test_discrepancy_matches_the_eager_construction_on_passing_equations(monkeypatch):
    pairs = _record_equations(monkeypatch)
    P = pseudomonoid.build_pseudomonoid(catalog.nerve(catalog.cyclic_group_category(3), 3))
    assert pseudomonoid.verify_pentagon(P).ok and pseudomonoid.verify_triangle(P).ok
    assert len(pairs) == 2
    for lhs, rhs in pairs:
        assert_matches_eager(lhs, rhs, True)
    # an involutive commutor passes the symmetry equation
    assert_matches_eager(*commutor_symmetry_paths((2, 3, 0, 1)), True)


def shuffled_associator(rng, T):
    """The canonical associator of T with its images shuffled within each
    taco fiber."""
    canon = catalog.no_lift_canonical_associator(T)
    assoc = dict(canon)
    for pairs in pseudomonoid.taco_fibers(T)[0].values():
        images = [canon[p] for p in pairs]
        rng.shuffle(images)
        assoc.update(zip(pairs, images))
    return assoc


def test_equations_carried_in_join_order_match_the_sorted_start(monkeypatch):
    # compare_paths carries the start in join order; the reference carries
    # its canonical columns, sorted
    pairs = _record_equations(monkeypatch)
    verdicts, reordered = [], 0
    for a in (1, 2, 3):
        T = catalog.no_lift_family(a)
        for seed in range(12):
            P = pseudomonoid.pseudomonoid_from_two_truncated(T, shuffled_associator(random.Random(seed), T))
            for verify in (pseudomonoid.verify_pentagon, pseudomonoid.verify_triangle):
                result = verify(P)
                lhs, rhs = pairs[-1]
                eager = eager_discrepancy(lhs, rhs)
                ok = all(k == v for k, v in eager.items())
                assert result.ok is ok
                assert result.witness == (None if ok else first_moved(eager))
                assert list(result.discrepancy.items()) == list(eager.items())
                start = evaluate(lhs.start)
                reordered += start.joined != start.columns
                verdicts.append(ok)
    assert len(verdicts) == 72 and True in verdicts and False in verdicts
    assert reordered


def test_discrepancy_matches_the_eager_construction_on_failing_equations(monkeypatch):
    # the canonical associator of the no-lift family fails the pentagon, and
    # a unit-fiber swap of it fails the triangle
    pairs = _record_equations(monkeypatch)
    T = catalog.no_lift_family(2)
    canon = catalog.no_lift_canonical_associator(T)
    assert not pseudomonoid.verify_pentagon(pseudomonoid.pseudomonoid_from_two_truncated(T, canon)).ok
    mutated = dict(canon)
    d0, _, d2 = T.face[2]
    fiber = [p for p in canon if (d2.table[p[0]], d0.table[p[0]], d0.table[p[1]]) == (1, 0, 1)]
    mutated[fiber[0]], mutated[fiber[1]] = canon[fiber[1]], canon[fiber[0]]
    assert not pseudomonoid.verify_triangle(pseudomonoid.pseudomonoid_from_two_truncated(T, mutated)).ok
    assert len(pairs) == 2
    for lhs, rhs in pairs:
        assert_matches_eager(lhs, rhs, False)
    # mutating the involutive commutor (2, 3, 0, 1) at its last two entries
    # fails the symmetry equation
    assert_matches_eager(*commutor_symmetry_paths((2, 3, 1, 0)), False)


def test_discrepancy_matches_the_eager_construction_on_flip_and_collapse():
    x, three = FinSet(2), FinSet(3)
    idb = identity_box(x)
    eps = Box(Span(x, FinSet(1), x, FinMap(x, x, (0, 1)), FinMap(x, FinSet(1), (0, 0))), (x,), (), name="eps")
    eta = Box(Span(FinSet(1), x, three, FinMap(three, FinSet(1), (0, 0, 0)), FinMap(three, x, (0, 0, 1))),
              (), (x,), name="eta")
    flip = make_rule("flip", ((eta,),), ((eta,),), lambda asn: (({0: 1, 1: 0}.get(asn[0][0], asn[0][0]),),))
    start = ((idb,), (eps,), (), (eta,), (idb,))
    assert_matches_eager(DiagramPath(start).rewrite(flip, 3, (0,)), DiagramPath(start), False)
    # both paths collapse the two elements of `both` onto one: the end
    # columns are equal, but q's end elements are not distinct
    both = Span(x, x, x, FinMap(x, x, (0, 0)), FinMap(x, x, (0, 0)))
    start = ((box_from_span(both),),)
    collapse = make_rule("collapse", start, ((identity_box(x),),), lambda asn: ((0,),))
    p, q = (DiagramPath(start).rewrite(collapse, 0, (0,)) for _ in range(2))
    assert_matches_eager(p, q, False)
    assert first_moved(compare_paths(p, q)[1]) == (((0,),), ((1,),))


def test_len_of_a_passing_discrepancy_builds_nothing():
    P = pseudomonoid.build_pseudomonoid(catalog.nerve(catalog.cyclic_group_category(4), 3))
    pent = pseudomonoid.verify_pentagon(P)
    assert pent.ok
    assert len(pent.discrepancy) == 4 ** 4
    assert "_entries" not in vars(pent.discrepancy)
    assert first_moved(pent.discrepancy) is None
    assert "_entries" in vars(pent.discrepancy)


def test_passing_equations_build_no_discrepancy_entries(monkeypatch, interval_l3_gamma):
    made = []

    class Recording(diagrams._Discrepancy):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(diagrams, "_Discrepancy", Recording)
    X, theta = interval_l3_gamma.base, interval_l3_gamma.theta(2, 1)
    assert gammaset.span_level_commutativity(X, theta).ok
    C = paracyclic.frobenius_from_paracyclic(load_document(FIXTURES / "twisted_z3_inversion.json").paracyclic)
    assert paracyclic.frobenius_witnesses(C).report.ok
    assert acceptance.criterion_2_pentagon_triangle().ok
    # symmetry, hexagon, the two snakes, and the acceptance gate's pentagon
    # and triangle on five structures; none of them asked for a witness
    assert len(made) == 4 + 5 * 2 and all(len(d) for d in made)
    assert all("_entries" not in vars(d) for d in made)


def test_evaluate_holds_only_box_columns():
    rng = random.Random(13)
    diagram = rand_diagram(rng)
    ev = evaluate(diagram)
    assert not hasattr(ev, "assignments") and not hasattr(ev, "index")
    assert assignments(ev) == brute_force_evaluate(diagram)[0]
    flat = [tuple(e for row in a for e in row) for a in assignments(ev)]
    assert diagrams.member_index(ev) == {m: i for i, m in enumerate(flat)}


def test_a_table_rule_checks_its_mapping_once(monkeypatch):
    calls = []
    images_chain = RewriteRule.images_chain.func

    def counting(rule):
        calls.append(rule)
        return images_chain(rule)

    # a cached_property assigned after its class body needs its name set
    counted = functools.cached_property(counting)
    counted.__set_name__(RewriteRule, "images_chain")
    monkeypatch.setattr(RewriteRule, "images_chain", counted)
    P = pseudomonoid.build_pseudomonoid(catalog.nerve(catalog.cyclic_group_category(3), 3))
    assert pseudomonoid.verify_pentagon(P).ok
    # five associator steps, one check of its images
    assert calls == [P.assoc_rule]
    assert P.assoc_rule.images_chain
    x = FinSet(2)
    idb = identity_box(x)
    rule = make_rule("id", ((idb,),), ((idb,),), lambda asn: asn)
    start = ((idb,), (idb,), (idb,))
    path = DiagramPath(start)
    for k in range(3):
        path.rewrite(rule, k, (0,))
    assert compare_paths(path, DiagramPath(start))[0]
    assert calls[1:] == [rule]


def test_a_corrupted_entry_that_no_element_reaches_is_refused():
    # the unit eta only ever feeds 0 into the rewritten identity, so the
    # corrupted image of 1 is never carried; the rule is refused anyway
    x, one = FinSet(2), FinSet(1)
    idb = identity_box(x)
    eta = Box(Span(one, x, one, FinMap(one, one, (0,)), FinMap(one, x, (0,))), (), (x,), name="eta")
    rule = make_rule("id", ((idb,),), ((idb,),), lambda asn: asn)
    bad = RewriteRule("bad", rule.src, rule.tgt, {(0,): (0,), (1,): (0,)}, rule.cell)
    start = ((eta,), (idb,))
    assert compare_paths(DiagramPath(start).rewrite(rule, 1, (0,)), DiagramPath(start))[0]
    path = DiagramPath(start).rewrite(bad, 1, (0,))
    with pytest.raises(StructuralError, match="rule bad: rewrite produced an invalid assignment"):
        compare_paths(path, DiagramPath(start))


# ---------------------------------------------------------------------------
# identity boxes: decided from the legs, joined as no factor


def _near_identities(rng, x):
    """One-wire boxes on x, all named "id", that are not identities: an
    empty apex, random legs on one more element than x, and for |x| > 1 a
    cyclic shift as both legs."""
    boxes = [Box(rand_span(rng, x.size, x.size, n), (x,), (x,), name="id") for n in (0, x.size + 1)]
    if x.size > 1:
        shift = FinMap(x, x, tuple(range(1, x.size)) + (0,))
        boxes.append(Box(Span(x, x, x, shift, shift), (x,), (x,), name="id"))
    return boxes


def _one_wire_box(rng, x):
    """Mostly an identity, under either name; sometimes a near-identity,
    rarely the one with an empty apex, which empties the whole diagram."""
    roll = rng.random()
    if roll < 0.6:
        return identity_box(x)
    if roll < 0.75:
        return Box(identity_span(x), (x,), (x,), name="wire")
    near = _near_identities(rng, x)
    return near[0] if roll > 0.98 else rng.choice(near[1:])


def rand_identity_heavy_diagram(rng):
    """Three to five rows in which most one-wire boxes are identities, so
    that identity chains run across several rows and some wires are read
    only by identities.  A row on no wires may have no boxes at all."""
    wires = tuple(FinSet(rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
    diagram = []
    for _ in range(rng.randint(3, 5)):
        row, i = [], 0
        while i < len(wires):
            if rng.random() < 0.7:
                b = _one_wire_box(rng, wires[i])
                i += 1
            else:
                n = rng.randint(1, len(wires) - i)
                ins, i = wires[i:i + n], i + n
                outs = tuple(FinSet(rng.randint(1, 3)) for _ in range(rng.randint(0, 2)))
                b = rand_box(rng, ins, outs, rng.randint(1, 2 * math.prod(o.size for o in ins + outs)))
            row.append(b)
        if rng.random() < (0.1 if wires else 0.5):
            row.insert(rng.randint(0, len(row)), rand_box(rng, (), (FinSet(rng.randint(1, 2)),), rng.randint(1, 2)))
        diagram.append(tuple(row))
        wires = row_out_objs(row)
    return tuple(diagram)


def _row_products(diagram):
    """How many row combinations `brute_force_evaluate` walks through."""
    return math.prod(math.prod(b.span.apex.size for b in row) for row in diagram)


# the brute force is exponential in the rows, so a diagram with more than
# 4,096 row combinations is left out for time
IDENTITY_HEAVY = [d for d in map(rand_identity_heavy_diagram, map(random.Random, range(5000, 5400)))
                  if _row_products(d) <= 4096][:80]


def _longest_identity_chain(diagram) -> int:
    """The most identity boxes in a row that one wire runs through."""
    best, run = 0, [0] * len(row_in_objs(diagram[0]))
    for row in diagram:
        chained, w = [], 0
        for b in row:
            chained += [run[w] + 1] if b.is_identity else [0] * len(b.out_objs)
            w += len(b.in_objs)
        best, run = max([best, *chained]), chained
    return best


def test_identity_heavy_seeds_cover_the_shapes():
    assert len(IDENTITY_HEAVY) == 80
    assert any(_longest_identity_chain(d) >= 3 for d in IDENTITY_HEAVY)
    assert any(all(b.is_identity for row in d for b in row) and any(d) for d in IDENTITY_HEAVY)
    assert any(() in d for d in IDENTITY_HEAVY)
    assert any(not b.is_identity and b.name == "id" for d in IDENTITY_HEAVY for row in d for b in row)
    assert any(b.is_identity and b.name != "id" for d in IDENTITY_HEAVY for row in d for b in row)


@pytest.mark.parametrize("k", range(80))
def test_evaluate_matches_full_row_product_on_identity_heavy_diagrams(k):
    assert_matches_brute_force(IDENTITY_HEAVY[k])


def test_evaluate_matches_full_row_product_on_identity_shapes():
    rng = random.Random(17)
    x, y = FinSet(2), FinSet(3)
    ix, iy = identity_box(x), identity_box(y)
    eta = rand_box(rng, (), (x,), 2)
    cap = rand_box(rng, (x,), (), 3)
    f = rand_box(rng, (x, y), (y, x), 7)
    g = rand_box(rng, (y, x), (x,), 5)
    # identity rows, an identity chain across three rows, all identities
    assert_matches_brute_force(((f,), (iy, ix), (iy, ix), (iy, ix), (g,)))
    assert_matches_brute_force(((ix, iy), (ix, iy), (ix, iy)))
    assert_matches_brute_force(((ix,),))
    # wires that only identities read, around an eta and a cap
    assert_matches_brute_force(((eta, ix), (ix, ix), (cap, ix)))
    assert_matches_brute_force(((ix,), (cap,), (), (eta,), (ix,)))
    assert_matches_brute_force(((), (eta,), (ix,), (ix,), (cap,), ()))
    # near-identities, which are joined as factors
    for near in _near_identities(rng, x):
        assert not near.is_identity
        assert_matches_brute_force(((ix,), (near,), (ix,)))
        assert_matches_brute_force(((near, iy), (ix, iy), (cap, iy)))


def test_identity_is_decided_from_the_legs():
    x = FinSet(2)
    swap = FinMap(x, x, (1, 0))
    named_id = Box(Span(x, x, x, identity_map(x), swap), (x,), (x,), name="id")
    renamed = Box(identity_span(x), (x,), (x,), name="wire")
    one = FinSet(1)
    assert identity_box(x).is_identity and renamed.is_identity
    assert not named_id.is_identity
    assert not Box(Span(one, one, FinSet(0), FinMap(FinSet(0), one, ()), FinMap(FinSet(0), one, ())),
                   (one,), (one,), name="id").is_identity
    assert not Box(identity_span(FinSet(6)), (x, FinSet(3)), (x, FinSet(3)), name="id").is_identity
    y = FinSet(3)
    inclusion = Box(Span(x, y, x, identity_map(x), FinMap(x, y, (0, 1))), (x,), (y,), name="id")
    assert not inclusion.is_identity
    assert_matches_brute_force(((identity_box(x),), (inclusion,), (identity_box(y),)))


def test_delete_identity_row_refuses_a_row_named_id_that_is_not_the_identity():
    x = FinSet(2)
    f = box_from_span(rand_span(random.Random(18), 2, 2, 3), "f")
    named_id = Box(Span(x, x, x, identity_map(x), FinMap(x, x, (1, 0))), (x,), (x,), name="id")
    with pytest.raises(StructuralError, match="row is not all identities"):
        DiagramPath(((f,), (named_id,))).delete_identity_row(1)
    renamed = Box(identity_span(x), (x,), (x,), name="wire")
    path = DiagramPath(((f,), (renamed,))).delete_identity_row(1).insert_identity_row(1)
    assert path.diagram == ((f,), (identity_box(x),))
    assert compare_paths(path, DiagramPath(((f,), (renamed,))).delete_identity_row(1)
                         .insert_identity_row(1))[0]
    assert evaluate(path.diagram).span == evaluate(((f,), (renamed,))).span


def test_the_pentagon_start_joins_only_its_multiplications(monkeypatch):
    P = pseudomonoid.build_pseudomonoid(catalog.nerve(catalog.cyclic_group_category(8), 3))
    mu, _, idb = P.boxes()
    join, factors = diagrams.pullback_columns, []

    def counting(fs):
        factors.append(len(fs))
        return join(fs)

    monkeypatch.setattr(diagrams, "pullback_columns", counting)
    ev = evaluate(((mu, idb, idb), (mu, idb), (mu,)))
    # three multiplications; the three identity boxes make no factor
    assert factors == [3]
    assert ev.count == 8 ** 4


def test_passing_equations_never_build_their_start_span(monkeypatch):
    P = pseudomonoid.build_pseudomonoid(catalog.nerve(catalog.cyclic_group_category(8), 3))
    made = []

    def recording(diagram):
        ev = evaluate(diagram)
        made.append(ev)
        return ev

    for module in (diagrams, pseudomonoid, gammaset):
        monkeypatch.setattr(module, "evaluate", recording)
    assert pseudomonoid.verify_pentagon(P).ok
    assert pseudomonoid.verify_triangle(P).ok
    mu, eta, idb = P.boxes()
    assert [ev.diagram for ev in made] == [((mu, idb, idb), (mu, idb), (mu,)),
                                           ((idb, eta, idb), (mu, idb), (mu,))]
    assert all("span" not in vars(ev) for ev in made)


def test_passing_equations_never_build_their_start_columns(monkeypatch):
    # both starts leave identity boxes out of the join, so their canonical
    # order would be a sort of the join's columns
    P = pseudomonoid.build_pseudomonoid(catalog.nerve(catalog.cyclic_group_category(8), 3))
    made = []

    def recording(diagram):
        ev = evaluate(diagram)
        made.append(ev)
        return ev

    for module in (diagrams, pseudomonoid, gammaset):
        monkeypatch.setattr(module, "evaluate", recording)
    assert pseudomonoid.verify_pentagon(P).ok
    assert pseudomonoid.verify_triangle(P).ok
    assert len(made) == 2 and all(ev.elided for ev in made)
    assert all("columns" not in vars(ev) for ev in made)

"""Stacked wire diagrams of spans and local rewriting of them.

A diagram is a stack of rows; each row is a tuple of boxes placed side by
side, and each box is a span together with a declared splitting of its
boundaries into wires.  Evaluating a diagram yields the composite span
(products within a row, pullback composition between rows) with its apex
enumerated canonically, so that differently bracketed readings of one
diagram literally coincide.

Equation checking works by rewriting: a rule replaces a sub-pattern of
consecutive rows by another pattern and transports apex elements through
the defining map of the corresponding 2-cell.  Running the two sides of an
equation as rewrite paths from a common start to a common end diagram and
comparing the element maps decides the equation exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .spans import (
    FinMap,
    FinSet,
    Span,
    SpanCell,
    StructuralError,
    block_braiding_span,
    braiding_span,
    decode_tuple,
    encode_tuple,
    identity_span,
)


@dataclass(frozen=True)
class Box:
    """A span with its boundaries split into wires."""

    span: Span
    in_objs: tuple[FinSet, ...]
    out_objs: tuple[FinSet, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if _wire_size(self.in_objs) != self.span.src.size:
            raise StructuralError("in wires do not multiply to the span source")
        if _wire_size(self.out_objs) != self.span.tgt.size:
            raise StructuralError("out wires do not multiply to the span target")

    @cached_property
    def in_table(self) -> tuple[tuple[int, ...], ...]:
        """The in-wire values of each apex element."""
        sizes = tuple(o.size for o in self.in_objs)
        return tuple(decode_tuple(v, sizes) for v in self.span.left.table)

    @cached_property
    def out_table(self) -> tuple[tuple[int, ...], ...]:
        """The out-wire values of each apex element."""
        sizes = tuple(o.size for o in self.out_objs)
        return tuple(decode_tuple(v, sizes) for v in self.span.right.table)

    @cached_property
    def fibers(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The apex elements over each in-wire value, in increasing order."""
        fibers: dict[tuple[int, ...], list[int]] = {}
        for e, vals in enumerate(self.in_table):
            fibers.setdefault(vals, []).append(e)
        return {vals: tuple(es) for vals, es in fibers.items()}


def _wire_size(objs: tuple[FinSet, ...]) -> int:
    n = 1
    for o in objs:
        n *= o.size
    return n


def identity_box(x: FinSet) -> Box:
    return Box(identity_span(x), (x,), (x,), name="id")


def box_from_span(s: Span, name: str = "") -> Box:
    """Wrap a span as a single-in, single-out wire box."""
    return Box(s, (s.src,), (s.tgt,), name=name)


Row = tuple[Box, ...]
Diagram = tuple[Row, ...]


def row_in_objs(row: Row) -> tuple[FinSet, ...]:
    return tuple(o for b in row for o in b.in_objs)


def row_out_objs(row: Row) -> tuple[FinSet, ...]:
    return tuple(o for b in row for o in b.out_objs)


def row_in_values(row: Row, asn: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v for b, e in zip(row, asn) for v in b.in_table[e])


def row_out_values(row: Row, asn: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v for b, e in zip(row, asn) for v in b.out_table[e])


Assignment = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EvaluatedDiagram:
    diagram: Diagram
    span: Span
    assignments: tuple[Assignment, ...]
    index: dict[Assignment, int] = field(compare=False)


def evaluate(diagram: Diagram) -> EvaluatedDiagram:
    """The composite span of a diagram with canonically ordered apex."""
    if not diagram:
        raise StructuralError("empty diagram")
    for upper, lower in zip(diagram, diagram[1:]):
        if row_out_objs(upper) != row_in_objs(lower):
            raise StructuralError("row boundaries do not chain")

    # row 0 is unconstrained; each later row is the pullback of the frontier
    # (the out-wire values so far) against the row, i.e. the product of each
    # box's fiber over its slice of the frontier.  Extensions are computed
    # once per distinct frontier, so every row tuple is built once per row
    # and shared by all assignments that contain it.
    first = diagram[0]
    partial = [
        ((combo,), row_out_values(first, combo))
        for combo in itertools.product(*[range(b.span.apex.size) for b in first])
    ]
    for row in diagram[1:]:
        ins, _ = _box_wire_offsets(row)
        over: dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        grown = []
        for rows_so_far, frontier in partial:
            extensions = over.get(frontier)
            if extensions is None:
                fibers = [b.fibers.get(frontier[ins[j] : ins[j + 1]], ()) for j, b in enumerate(row)]
                extensions = over[frontier] = [
                    (combo, row_out_values(row, combo)) for combo in itertools.product(*fibers)
                ]
            grown.extend((rows_so_far + (combo,), out) for combo, out in extensions)
        partial = grown

    assignments = tuple(sorted(a for a, _ in partial))
    in_objs = row_in_objs(diagram[0])
    out_objs = row_out_objs(diagram[-1])
    src = FinSet(_wire_size(in_objs))
    tgt = FinSet(_wire_size(out_objs))
    apex = FinSet(len(assignments))
    in_sizes = tuple(o.size for o in in_objs)
    out_sizes = tuple(o.size for o in out_objs)
    left = FinMap(apex, src, tuple(
        encode_tuple(row_in_values(diagram[0], a[0]), in_sizes) for a in assignments
    ))
    right = FinMap(apex, tgt, tuple(
        encode_tuple(row_out_values(diagram[-1], a[-1]), out_sizes) for a in assignments
    ))
    return EvaluatedDiagram(
        diagram, Span(src, tgt, apex, left, right), assignments,
        {a: i for i, a in enumerate(assignments)},
    )


# ---------------------------------------------------------------------------
# rewrite rules


@dataclass(frozen=True)
class RewriteRule:
    """Replace the src pattern by the tgt pattern, transporting elements.

    Patterns are stored with equal row counts (shorter ones are padded with
    identity rows at the bottom) and with equal exterior wire profiles, so
    that splicing a rule into a diagram is pure row surgery.  `cell` is the
    rule's 2-cell between the evaluated unpadded patterns; padding changes
    neither the spans nor the order of their apexes.
    """

    name: str
    src: Diagram
    tgt: Diagram
    mapping: dict[Assignment, Assignment] = field(compare=False)
    cell: SpanCell = field(compare=False)

    def inverse(self) -> "RewriteRule":
        cell = self.cell.inverse()
        inv = {v: k for k, v in self.mapping.items()}
        return RewriteRule(self.name + "^-1", self.tgt, self.src, inv, cell)


def _pad_rows(rows: Diagram, count: int) -> Diagram:
    """Append identity rows so the pattern has `count` rows."""
    rows = tuple(rows)
    while len(rows) < count:
        rows = rows + (tuple(identity_box(o) for o in row_out_objs(rows[-1])),)
    return rows


def _pad_assignment(rows_unpadded: Diagram, asn, count: int) -> Assignment:
    asn = tuple(asn)
    vals = row_out_values(rows_unpadded[-1], asn[-1])
    while len(asn) < count:
        asn = asn + (vals,)
    return asn


def _padded_rule(name: str, ev_src: EvaluatedDiagram, ev_tgt: EvaluatedDiagram, cell: SpanCell) -> RewriteRule:
    """The rule carrying `cell` between two evaluated unpadded patterns."""
    src_rows, tgt_rows = ev_src.diagram, ev_tgt.diagram
    depth = max(len(src_rows), len(tgt_rows))
    images = (ev_tgt.assignments[j] for j in cell.map.table)
    mapping = {
        _pad_assignment(src_rows, a, depth): _pad_assignment(tgt_rows, b, depth)
        for a, b in zip(ev_src.assignments, images)
    }
    return RewriteRule(name, _pad_rows(src_rows, depth), _pad_rows(tgt_rows, depth), mapping, cell)


def make_rule(
    name: str,
    src_rows: Diagram,
    tgt_rows: Diagram,
    fn: Callable[[Assignment], Assignment],
) -> RewriteRule:
    """Build a rule from unpadded patterns and an assignment-level map.

    `fn` receives and returns unpadded assignments.  The exterior wire
    values of source and image must agree (the 2-cell condition); this is
    checked on every source assignment.
    """
    src_rows = tuple(tuple(r) for r in src_rows)
    tgt_rows = tuple(tuple(r) for r in tgt_rows)
    if row_in_objs(src_rows[0]) != row_in_objs(tgt_rows[0]):
        raise StructuralError("rule patterns have different in wires")
    if row_out_objs(src_rows[-1]) != row_out_objs(tgt_rows[-1]):
        raise StructuralError("rule patterns have different out wires")
    ev_src = evaluate(src_rows)
    ev_tgt = evaluate(tgt_rows)
    table = []
    for asn in ev_src.assignments:
        image = tuple(fn(asn))
        j = ev_tgt.index.get(image)
        if j is None:
            raise StructuralError(f"rule {name}: image assignment is not valid")
        if row_in_values(src_rows[0], asn[0]) != row_in_values(tgt_rows[0], image[0]):
            raise StructuralError(f"rule {name}: in wires not preserved")
        if row_out_values(src_rows[-1], asn[-1]) != row_out_values(tgt_rows[-1], image[-1]):
            raise StructuralError(f"rule {name}: out wires not preserved")
        table.append(j)
    cell = SpanCell(ev_src.span, ev_tgt.span, FinMap(ev_src.span.apex, ev_tgt.span.apex, tuple(table)))
    return _padded_rule(name, ev_src, ev_tgt, cell)


def rule_from_spancell(name: str, src_rows: Diagram, tgt_rows: Diagram, cell: SpanCell) -> RewriteRule:
    """Interpret a SpanCell between two evaluated patterns as a rule."""
    ev_src = evaluate(tuple(tuple(r) for r in src_rows))
    ev_tgt = evaluate(tuple(tuple(r) for r in tgt_rows))
    if cell.source != ev_src.span or cell.target != ev_tgt.span:
        raise StructuralError("cell boundaries differ from the evaluated patterns")
    return _padded_rule(name, ev_src, ev_tgt, cell)


def _box_wire_offsets(row: Row) -> tuple[tuple[int, ...], tuple[int, ...]]:
    ins, outs = [0], [0]
    for b in row:
        ins.append(ins[-1] + len(b.in_objs))
        outs.append(outs[-1] + len(b.out_objs))
    return tuple(ins), tuple(outs)


# An element map of one rewrite step: an assignment of the diagram before
# the step to the assignment of the diagram after it.
Step = Callable[[Assignment], Assignment]


def apply_rewrite(
    diagram: Diagram,
    rule: RewriteRule,
    at_row: int,
    cols: tuple[int, ...],
) -> tuple[Diagram, Step]:
    """Apply `rule` whose pattern row r starts at box index cols[r] of
    diagram row at_row + r.  Returns the new diagram and the element map;
    the map checks that each image chains from row to row."""
    depth = len(rule.src)
    if len(cols) != depth or at_row + depth > len(diagram):
        raise StructuralError("rewrite location out of range")

    for r in range(depth):
        row = diagram[at_row + r]
        pat = rule.src[r]
        if row[cols[r] : cols[r] + len(pat)] != pat:
            raise StructuralError(f"rule {rule.name}: pattern mismatch at row {at_row + r}")
    # pattern wire alignment between consecutive rows
    for r in range(depth - 1):
        _, outs = _box_wire_offsets(diagram[at_row + r])
        ins, _ = _box_wire_offsets(diagram[at_row + r + 1])
        if outs[cols[r]] != ins[cols[r + 1]]:
            raise StructuralError(f"rule {rule.name}: pattern wires misaligned")

    new_rows = list(diagram)
    for r in range(depth):
        row = diagram[at_row + r]
        new_rows[at_row + r] = row[: cols[r]] + rule.tgt[r] + row[cols[r] + len(rule.src[r]) :]
    new_diagram = tuple(new_rows)
    # the row interfaces that touch a rewritten row
    seams = range(max(at_row, 1), min(at_row + depth, len(new_diagram) - 1) + 1)

    def step(asn: Assignment) -> Assignment:
        local = tuple(asn[at_row + r][cols[r] : cols[r] + len(rule.src[r])] for r in range(depth))
        image = rule.mapping[local]
        rows = list(asn)
        for r in range(depth):
            old = asn[at_row + r]
            rows[at_row + r] = old[: cols[r]] + image[r] + old[cols[r] + len(rule.src[r]) :]
        for i in seams:
            if row_out_values(new_diagram[i - 1], rows[i - 1]) != row_in_values(new_diagram[i], rows[i]):
                raise StructuralError(f"rule {rule.name}: rewrite produced an invalid assignment")
        return tuple(rows)

    return new_diagram, step


def insert_identity_row(diagram: Diagram, at: int) -> tuple[Diagram, Step]:
    """Insert a row of identity wires at interface `at` (0..rows)."""
    objs = row_in_objs(diagram[0]) if at == 0 else row_out_objs(diagram[at - 1])
    row = tuple(identity_box(o) for o in objs)

    def step(asn: Assignment) -> Assignment:
        vals = row_in_values(diagram[0], asn[0]) if at == 0 else row_out_values(diagram[at - 1], asn[at - 1])
        return asn[:at] + (vals,) + asn[at:]

    return diagram[:at] + (row,) + diagram[at:], step


def delete_identity_row(diagram: Diagram, at: int) -> tuple[Diagram, Step]:
    if any(b.name != "id" for b in diagram[at]):
        raise StructuralError("row is not all identities")
    if len(diagram) == 1:
        raise StructuralError("empty diagram")
    return diagram[:at] + diagram[at + 1 :], lambda asn: asn[:at] + asn[at + 1 :]


class DiagramPath:
    """A chain of rewrites from a start diagram.  Only the element map of
    each step is kept: `compare_paths` evaluates the start diagram and
    carries each start assignment along the steps."""

    def __init__(self, diagram: Diagram):
        self.start = self.diagram = tuple(tuple(r) for r in diagram)
        self.steps: list[Step] = []

    def _push(self, diagram: Diagram, step: Step) -> "DiagramPath":
        self.diagram = diagram
        self.steps.append(step)
        return self

    def rewrite(self, rule: RewriteRule, at_row: int, cols: tuple[int, ...]) -> "DiagramPath":
        return self._push(*apply_rewrite(self.diagram, rule, at_row, cols))

    def insert_identity_row(self, at: int) -> "DiagramPath":
        return self._push(*insert_identity_row(self.diagram, at))

    def delete_identity_row(self, at: int) -> "DiagramPath":
        return self._push(*delete_identity_row(self.diagram, at))

    def transport(self, asn: Assignment) -> Assignment:
        """Where the path takes a start assignment."""
        for step in self.steps:
            asn = step(asn)
        return asn


def compare_paths(p: DiagramPath, q: DiagramPath) -> tuple[bool, dict[Assignment, Assignment]]:
    """Decide whether two paths from a common start define the same 2-cell.

    Returns (equal, discrepancy) where the discrepancy composes q backwards
    after p, an automorphism-style map on the start apex (identity iff equal).
    """
    if p.start != q.start:
        raise StructuralError("paths start at different diagrams")
    if p.diagram != q.diagram:
        raise StructuralError("paths end at different diagrams")
    start = evaluate(p.start).assignments
    q_back = {q.transport(a): a for a in start}
    discrepancy = {a: q_back[p.transport(a)] for a in start}
    return all(k == v for k, v in discrepancy.items()), discrepancy


def first_moved(discrepancy: dict[Assignment, Assignment]) -> Optional[tuple[Assignment, Assignment]]:
    """The first (assignment, image) pair a discrepancy moves, or None when
    it is the identity: the witness of an unequal `compare_paths`."""
    return next(((k, v) for k, v in discrepancy.items() if k != v), None)


# ---------------------------------------------------------------------------
# the canonical coherence cells of the span bicategory


def _ids(objs: tuple[FinSet, ...]) -> tuple[Box, ...]:
    return tuple(identity_box(o) for o in objs)


def tensorator_rule(f: Box, g: Box) -> RewriteRule:
    """The slide move c_{f,g}: (id⊗g)∘(f⊗id) => (f⊗id)∘(id⊗g)."""
    src = ((f,) + _ids(g.in_objs), _ids(f.out_objs) + (g,))
    tgt = (_ids(f.in_objs) + (g,), (f,) + _ids(g.out_objs))

    def fn(asn):
        ef = asn[0][0]
        eg = asn[1][-1]
        return (f.in_table[ef] + (eg,), (ef,) + g.out_table[eg])

    return make_rule("tensorator", src, tgt, fn)


def braiding_rule(f: Box, g: Box) -> RewriteRule:
    """The move rho_{f,g}: rho∘(f⊗g) => (g⊗f)∘rho."""
    rho_out = Box(
        block_braiding_span(f.out_objs, g.out_objs),
        f.out_objs + g.out_objs,
        g.out_objs + f.out_objs,
        name="braid",
    )
    rho_in = Box(
        block_braiding_span(f.in_objs, g.in_objs),
        f.in_objs + g.in_objs,
        g.in_objs + f.in_objs,
        name="braid",
    )
    src = ((f, g), (rho_out,))
    tgt = ((rho_in,), (g, f))

    def fn(asn):
        ef, eg = asn[0]
        p = encode_tuple(
            f.in_table[ef] + g.in_table[eg],
            tuple(o.size for o in f.in_objs + g.in_objs),
        )
        return ((p,), (eg, ef))

    return make_rule("braiding", src, tgt, fn)


def syllepsis_rule(x: FinSet, y: FinSet) -> RewriteRule:
    """v_{X,Y}: rho_{Y,X}∘rho_{X,Y} => id."""
    rho_xy = Box(braiding_span(x, y), (x, y), (y, x), name="braid")
    rho_yx = Box(braiding_span(y, x), (y, x), (x, y), name="braid")
    src = ((rho_xy,), (rho_yx,))
    tgt = ((identity_box(x), identity_box(y)),)

    def fn(asn):
        (p,) = asn[0]
        return (decode_tuple(p, (x.size, y.size)),)

    return make_rule("syllepsis", src, tgt, fn)


def hexagonator_rule(x: FinSet, y: FinSet, z: FinSet) -> RewriteRule:
    """R_{X|YZ}: crossing X over Y then over Z equals crossing X over Y⊗Z."""
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


def tensorator_cell(f: Span, g: Span) -> SpanCell:
    return tensorator_rule(box_from_span(f, "f"), box_from_span(g, "g")).cell


def braiding_cell(f: Span, g: Span) -> SpanCell:
    return braiding_rule(box_from_span(f, "f"), box_from_span(g, "g")).cell


def syllepsis_cell(x: FinSet, y: FinSet) -> SpanCell:
    return syllepsis_rule(x, y).cell


def hexagonator_cell(x: FinSet, y: FinSet, z: FinSet) -> SpanCell:
    return hexagonator_rule(x, y, z).cell

"""Stacked wire diagrams of spans and local rewriting of them.

A diagram is a stack of rows; each row is a tuple of boxes placed side by
side, and each box is a span together with a declared splitting of its
boundaries into wires.  Evaluating a diagram enumerates the apex of its
composite span (products within a row, pullback composition between rows)
canonically, so that differently bracketed readings of one diagram
literally coincide.  An identity box is joined as no factor; the elements
are kept in the join's order, and the canonical order and the span are
built only when they are read.

Equation checking works by rewriting: a rule replaces a sub-pattern of
consecutive rows by another pattern and transports apex elements through
the defining map of the corresponding 2-cell.  Running the two sides of an
equation as rewrite paths from a common start to a common end diagram and
comparing the element maps decides the equation exactly.  Diagram elements
are held in one form only, as one element column per box.  An equation
evaluates only its start diagram: the structural rules (tensorator,
braiding, syllepsis and its inverse, hexagonator), the commutor and the
zig and zag snakes carry elements in closed form, and the associator and
unitors are table rules built once from patterns their owners have
already evaluated.  Steps map whole element columns and check each fact
once: a table rule's images when a step first uses it, a closed-form
rule's images in each step.  The paths carry the start's elements in join
order, since the verdict does not depend on their order.  Two paths agree
when their end columns are equal and distinct, and the discrepancy between
them is built, in canonical order, only when read; it alone lists elements
as nested assignments, one apex element per box grouped by row.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
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
    decode_columns,
    encode_columns,
    gather,
    identity_span,
    pullback_columns,
    sort_columns,
)


@dataclass(frozen=True)
class Box:
    """A span with its boundaries split into wires."""

    span: Span
    in_objs: tuple[FinSet, ...]
    out_objs: tuple[FinSet, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if math.prod(o.size for o in self.in_objs) != self.span.src.size:
            raise StructuralError("in wires do not multiply to the span source")
        if math.prod(o.size for o in self.out_objs) != self.span.tgt.size:
            raise StructuralError("out wires do not multiply to the span target")

    @cached_property
    def in_table(self) -> tuple[tuple[int, ...], ...]:
        """The in-wire values of each apex element."""
        return tuple(zip(*self.in_wires)) if self.in_objs else ((),) * self.span.apex.size

    @cached_property
    def out_table(self) -> tuple[tuple[int, ...], ...]:
        """The out-wire values of each apex element."""
        return tuple(zip(*self.out_wires)) if self.out_objs else ((),) * self.span.apex.size

    @cached_property
    def is_identity(self) -> bool:
        """One wire in and out on one object, both legs identity tables."""
        return (len(self.in_objs) == 1 and self.in_objs == self.out_objs
                and self.span.left.table == self.span.right.table == tuple(range(self.in_objs[0].size)))

    @cached_property
    def in_wires(self) -> tuple[tuple[int, ...], ...]:
        """For each in wire, its value at each apex element."""
        return decode_columns(self.span.left.table, [o.size for o in self.in_objs])

    @cached_property
    def out_wires(self) -> tuple[tuple[int, ...], ...]:
        """For each out wire, its value at each apex element."""
        return decode_columns(self.span.right.table, [o.size for o in self.out_objs])


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


# A wire reader (col, table) reads one wire of a row from the element
# column of box `col`: table[e] for each element e, where `table` is one of
# that box's in_wires or out_wires.
WireReader = tuple[int, tuple[int, ...]]


def _in_wires(row: Row) -> tuple[WireReader, ...]:
    return tuple((c, t) for c, b in enumerate(row) for t in b.in_wires)


def _out_wires(row: Row) -> tuple[WireReader, ...]:
    return tuple((c, t) for c, b in enumerate(row) for t in b.out_wires)


def _identity_free(wires) -> tuple[WireReader, ...]:
    """The readers with each identity table replaced by None, since such a
    wire's values are the element column itself."""
    return tuple((c, None if t == tuple(range(len(t))) else t) for c, t in wires)


def _wire_values(wires, row) -> list[tuple[int, ...]]:
    """Each wire's values in a batch, read from the box columns of its row."""
    return [row[c] if t is None else gather(t, row[c]) for c, t in wires]


Assignment = tuple[tuple[int, ...], ...]

# A batch of apex elements of one diagram, held as one element column per
# box: columns[row][box][k] is that box's element in the batch's k-th member.
Columns = tuple[tuple[tuple[int, ...], ...], ...]


def _members(columns, count: int):
    """The `count` members of a batch as flat tuples, from its box columns
    listed row-major."""
    return zip(*columns) if columns else itertools.repeat((), count)


@dataclass(frozen=True)
class EvaluatedDiagram:
    """A diagram's `count` apex elements as one element column per box,
    grouped by row.  `joined` lists them in the join's order, which is the
    canonical one unless an identity box was left out of the join
    (`elided`).  `columns`, the canonical order, is built when first read,
    and sorted only for an elided box; so is the span, from `columns`."""

    diagram: Diagram
    joined: Columns
    count: int
    elided: bool

    @cached_property
    def columns(self) -> Columns:
        if not self.elided:
            return self.joined
        return _by_row(self.diagram, tuple(sort_columns([c for row in self.joined for c in row])))

    @cached_property
    def span(self) -> Span:
        apex = FinSet(self.count)

        def leg(maps, columns) -> FinMap:
            sizes = [m.cod.size for m in maps]
            return FinMap(apex, FinSet(math.prod(sizes)), encode_columns(
                [gather(m.table, c) for m, c in zip(maps, columns)], sizes, self.count))

        left = leg([b.span.left for b in self.diagram[0]], self.columns[0])
        right = leg([b.span.right for b in self.diagram[-1]], self.columns[-1])
        return Span(left.cod, right.cod, apex, left, right)


def member_index(ev: EvaluatedDiagram) -> dict[tuple[int, ...], int]:
    """Each apex element of an evaluated diagram, as the flat tuple of its
    box elements listed row-major, to its place in apex order."""
    members = _members([c for row in ev.columns for c in row], ev.count)
    return {m: j for j, m in enumerate(members)}


def evaluate(diagram: Diagram) -> EvaluatedDiagram:
    """The composite span of a diagram with canonically ordered apex, its
    elements held in join order until the canonical order is read."""
    if not diagram:
        raise StructuralError("empty diagram")
    for upper, lower in zip(diagram, diagram[1:]):
        if row_out_objs(upper) != row_in_objs(lower):
            raise StructuralError("row boundaries do not chain")

    # wires are keyed by the top coordinate (row interface, wire) of their
    # chain of identity boxes; each other box is a factor, and an identity's
    # column is read off the first factor reading its key, or one over its set
    keyof, readers, factors, sources, elided = {}, {}, [], [], []
    for r, row in enumerate(diagram):
        ins, outs = _box_wire_offsets(row)
        for j, b in enumerate(row):
            keys = tuple(keyof.get((r, w), (r, w)) for w in range(ins[j], ins[j + 1])) + tuple(
                (r + 1, w) for w in range(outs[j], outs[j + 1]))
            if b.is_identity:
                keyof[keys[1]] = keys[0]
                elided.append((len(sources), keys[0], b.in_objs[0]))
                sources.append(None)
                continue
            for k, t in zip(keys, b.in_wires + b.out_wires):
                readers.setdefault(k, (len(factors), t))
            sources.append((len(factors), None))
            factors.append((keys, tuple(i + o for i, o in zip(b.in_table, b.out_table))))
    for i, k, x in elided:
        if k not in readers:
            readers[k] = (len(factors), None)
            factors.append(((k,), tuple((v,) for v in x)))
        sources[i] = readers[k]
    columns, count = pullback_columns(factors)
    return EvaluatedDiagram(diagram, _by_row(diagram, tuple(_wire_values(sources, columns))), count, bool(elided))


# ---------------------------------------------------------------------------
# rewrite rules


@dataclass(frozen=True)
class RewriteRule:
    """Replace the src pattern by the tgt pattern, transporting elements.

    Patterns are stored with equal row counts (shorter ones are padded with
    identity rows at the bottom) and with equal exterior wire profiles, so
    that splicing a rule into a diagram is pure row surgery.  `mapping` is
    the 2-cell as one flat table: each element of the padded src pattern,
    its box elements listed row-major, to the element of the padded tgt
    pattern it goes to, listed the same way.  `cell` is the rule's 2-cell
    between the evaluated unpadded patterns; padding changes neither the
    spans nor the order of their apexes.  `carry` maps a batch of elements
    through `mapping`.  The structural rules, the commutor and the snakes
    are `ClosedFormRule`s, each made by its function from a column map.
    The associator and unitors are the only table rules; a table rule is
    built from a cell by `rule_from_cell`.  A table rule's images are
    checked once, as a whole (`images_chain`), the first time a rewrite
    step uses the rule; a closed-form rule's images are checked to chain
    in every step.
    """

    name: str
    src: Diagram
    tgt: Diagram
    mapping: dict[tuple[int, ...], tuple[int, ...]] = field(compare=False, repr=False)
    cell: SpanCell = field(compare=False, repr=False)

    def carry(self, columns, count: int) -> tuple[tuple[int, ...], ...]:
        """The images of a batch of `count` elements of the padded src
        pattern, given as its box columns listed row-major, as the padded
        tgt pattern's box columns listed row-major."""
        images = list(map(self.mapping.__getitem__, _members(columns, count)))
        return tuple(zip(*images)) if images else ((),) * sum(map(len, self.tgt))

    @cached_property
    def images_chain(self) -> bool:
        """Whether each image in `mapping` chains across every interior
        interface of the padded tgt pattern and keeps its source's exterior
        in-wire and out-wire values, so that no seam of a diagram the rule
        rewrites can break."""
        keys = list(self.mapping)
        columns = tuple(zip(*keys)) if keys else ((),) * sum(map(len, self.src))
        src, tgt = _by_row(self.src, columns), _by_row(self.tgt, self.carry(columns, len(keys)))
        sides = [
            ((_in_wires(self.src[0]), src[0]), (_in_wires(self.tgt[0]), tgt[0])),
            ((_out_wires(self.src[-1]), src[-1]), (_out_wires(self.tgt[-1]), tgt[-1])),
        ] + [((_out_wires(self.tgt[i - 1]), tgt[i - 1]), (_in_wires(self.tgt[i]), tgt[i]))
             for i in range(1, len(self.tgt))]
        return all(_wire_values(*upper) == _wire_values(*lower) for upper, lower in sides)

    def inverse(self) -> "RewriteRule":
        cell = self.cell.inverse()
        inv = {v: k for k, v in self.mapping.items()}
        return RewriteRule(self.name + "^-1", self.tgt, self.src, inv, cell)


def _by_row(pattern: Diagram, columns) -> Columns:
    """A pattern's box columns, listed row-major, grouped by row."""
    cuts = tuple(itertools.accumulate(map(len, pattern), initial=0))
    return tuple(columns[a:b] for a, b in zip(cuts, cuts[1:]))


def _pad_rows(rows: Diagram, count: int) -> Diagram:
    """Append identity rows so the pattern has `count` rows."""
    rows = tuple(rows)
    while len(rows) < count:
        rows = rows + (tuple(identity_box(o) for o in row_out_objs(rows[-1])),)
    return rows


def _padded_members(ev: EvaluatedDiagram, depth: int) -> list[tuple[int, ...]]:
    """The elements of an evaluated pattern padded to `depth` rows, as flat
    tuples: the box columns of each identity row are the last row's
    out-wire values."""
    columns = [c for row in ev.columns for c in row]
    pad = depth - len(ev.diagram)
    if pad:
        last = ev.columns[-1]
        columns += [gather(t, last[c]) for c, t in _out_wires(ev.diagram[-1])] * pad
    return list(_members(columns, ev.count))


def _padded_rule(name: str, ev_src: EvaluatedDiagram, ev_tgt: EvaluatedDiagram, cell: SpanCell) -> RewriteRule:
    """The rule carrying `cell` between two evaluated unpadded patterns."""
    depth = max(len(ev_src.diagram), len(ev_tgt.diagram))
    images = _padded_members(ev_tgt, depth)
    mapping = dict(zip(_padded_members(ev_src, depth), gather(images, cell.map.table)))
    return RewriteRule(name, _pad_rows(ev_src.diagram, depth), _pad_rows(ev_tgt.diagram, depth), mapping, cell)


def _rule_cell(name: str, ev_src: EvaluatedDiagram, ev_tgt: EvaluatedDiagram, images) -> SpanCell:
    """The 2-cell taking each src element, in apex order, to the tgt element
    that is its image, given as a flat tuple of box elements listed
    row-major; the exterior wire values must agree, which the cell's legs
    check."""
    index = member_index(ev_tgt)
    table = []
    for image in images:
        j = index.get(image)
        if j is None:
            raise StructuralError(f"rule {name}: image assignment is not valid")
        table.append(j)
    cell_map = FinMap(ev_src.span.apex, ev_tgt.span.apex, tuple(table))
    try:
        return SpanCell(ev_src.span, ev_tgt.span, cell_map)
    except StructuralError as err:
        raise StructuralError(f"rule {name}: {err}") from None


def rule_from_cell(name: str, ev_src: EvaluatedDiagram, ev_tgt: EvaluatedDiagram, cell: SpanCell) -> RewriteRule:
    """Interpret a SpanCell between two evaluated unpadded patterns as a
    rule; the cell's boundaries must be their spans."""
    if cell.source != ev_src.span or cell.target != ev_tgt.span:
        raise StructuralError("cell boundaries differ from the evaluated patterns")
    return _padded_rule(name, ev_src, ev_tgt, cell)


def _box_wire_offsets(row: Row) -> tuple[tuple[int, ...], tuple[int, ...]]:
    ins, outs = [0], [0]
    for b in row:
        ins.append(ins[-1] + len(b.in_objs))
        outs.append(outs[-1] + len(b.out_objs))
    return tuple(ins), tuple(outs)


# The element map of one rewrite step: a batch of `count` elements of the
# diagram before the step, as box columns, to the box columns of their
# images in the diagram after it.
Step = Callable[[Columns, int], Columns]


def apply_rewrite(
    diagram: Diagram,
    rule: RewriteRule,
    at_row: int,
    cols: tuple[int, ...],
) -> tuple[Diagram, Step]:
    """Apply `rule` whose pattern row r starts at box index cols[r] of
    diagram row at_row + r.  Returns the new diagram and the element map.
    The map refuses a rule whose images need not chain from row to row: a
    table rule once, through `images_chain`, the first time a step uses it,
    and a closed-form rule in every step, at each seam wire that a
    rewritten box reads or writes."""
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
    # (row, first col, end col) of the local pattern before the step
    bounds = tuple((at_row + r, cols[r], cols[r] + len(rule.src[r])) for r in range(depth))
    # a closed-form rule's images are checked at each row interface that
    # touches a rewritten row, on the wires that a rewritten box reads or
    # writes; every other wire keeps the value it had in the valid
    # assignment the step starts from
    closed_form = isinstance(rule, ClosedFormRule)
    seams = []
    if closed_form:
        rewritten = {at_row + r: range(cols[r], cols[r] + len(rule.tgt[r])) for r in range(depth)}
        for i in range(max(at_row, 1), min(at_row + depth, len(new_diagram) - 1) + 1):
            wires = [
                (upper, lower)
                for upper, lower in zip(_out_wires(new_diagram[i - 1]), _in_wires(new_diagram[i]))
                if upper[0] in rewritten.get(i - 1, ()) or lower[0] in rewritten.get(i, ())
            ]
            seams.append((i, _identity_free(u for u, _ in wires), _identity_free(v for _, v in wires)))

    def step(columns: Columns, count: int) -> Columns:
        if not (closed_form or rule.images_chain):
            raise StructuralError(f"rule {rule.name}: rewrite produced an invalid assignment")
        image = rule.carry([c for i, a, b in bounds for c in columns[i][a:b]], count)
        rows = list(columns)
        for (i, a, b), part in zip(bounds, _by_row(rule.tgt, image)):
            rows[i] = columns[i][:a] + part + columns[i][b:]
        for i, uppers, lowers in seams:
            if _wire_values(uppers, rows[i - 1]) != _wire_values(lowers, rows[i]):
                raise StructuralError(f"rule {rule.name}: rewrite produced an invalid assignment")
        return tuple(rows)

    return new_diagram, step


def insert_identity_row(diagram: Diagram, at: int) -> tuple[Diagram, Step]:
    """Insert a row of identity wires at interface `at` (0..rows)."""
    objs = row_in_objs(diagram[0]) if at == 0 else row_out_objs(diagram[at - 1])
    row = tuple(identity_box(o) for o in objs)
    source = 0 if at == 0 else at - 1
    wires = _in_wires(diagram[0]) if at == 0 else _out_wires(diagram[at - 1])

    def step(columns: Columns, count: int) -> Columns:
        inserted = tuple(gather(t, columns[source][c]) for c, t in wires)
        return columns[:at] + (inserted,) + columns[at:]

    return diagram[:at] + (row,) + diagram[at:], step


def delete_identity_row(diagram: Diagram, at: int) -> tuple[Diagram, Step]:
    if not all(b.is_identity for b in diagram[at]):
        raise StructuralError("row is not all identities")
    if len(diagram) == 1:
        raise StructuralError("empty diagram")
    return diagram[:at] + diagram[at + 1 :], lambda columns, count: columns[:at] + columns[at + 1 :]


class DiagramPath:
    """A chain of rewrites from a start diagram.  Only the element map of
    each step is kept, and each maps a whole batch of elements, held as box
    columns, at once: `compare_paths` carries the start diagram's evaluated
    columns along the steps."""

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

    def carry(self, columns: Columns, count: int) -> Columns:
        """Where the path takes a batch of `count` start elements."""
        for step in self.steps:
            columns = step(columns, count)
        return columns


def compare_paths(p: DiagramPath, q: DiagramPath) -> tuple[bool, Mapping[Assignment, Assignment]]:
    """Decide whether two paths from a common start define the same 2-cell.

    Both paths carry the start diagram's evaluated box columns in join
    order (`EvaluatedDiagram.joined`), q first, so the start's canonical
    order is never built: the verdict does not depend on element order.
    The cells are equal when the two end columns are equal and q's end
    elements are distinct; otherwise their end elements are matched as
    flat tuples of box elements.  Returns (equal, discrepancy) where the
    discrepancy composes q backwards after p, an automorphism-style map on
    the start apex (identity iff equal), keyed by start assignment in apex
    order.  It is built, and put in that order, the first time it is read,
    except for its size.
    """
    if p.start != q.start:
        raise StructuralError("paths start at different diagrams")
    if p.diagram != q.diagram:
        raise StructuralError("paths end at different diagrams")
    start = evaluate(p.start)
    count = start.count
    q_end = [c for row in q.carry(start.joined, count) for c in row]
    p_end = [c for row in p.carry(start.joined, count) for c in row]
    discrepancy = _Discrepancy(start.joined, count, p_end, q_end)
    if p_end == q_end and len(set(_members(q_end, count))) == count:
        return True, discrepancy
    return all(k == v for k, v in discrepancy.items()), discrepancy


class _Discrepancy(Mapping):
    """The discrepancy of `compare_paths`: each start assignment, in apex
    order, to the start assignment whose q end element is its p end
    element.  The dict, and the start assignments it is keyed by, are built
    from the start's box columns, given in any order with both paths' end
    columns in the same order, the first time an entry is read."""

    def __init__(self, start: Columns, count: int, p_end: list, q_end: list):
        self._start, self._count, self._p_end, self._q_end = start, count, p_end, q_end

    @cached_property
    def _entries(self) -> dict[Assignment, Assignment]:
        count = self._count
        assignments = zip(*(tuple(zip(*row)) if row else ((),) * count for row in self._start))
        # start assignments are distinct, and their order as nested tuples
        # is the apex order, so sorting the triples puts the start in apex
        # order; when two q end elements are equal, the later one wins
        ends = sorted(zip(assignments, _members(self._q_end, count), _members(self._p_end, count)))
        q_back = {q: a for a, q, _ in ends}
        return {a: q_back[p] for a, _, p in ends}

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, key: Assignment) -> Assignment:
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __repr__(self) -> str:
        return repr(self._entries)


def first_moved(discrepancy: Mapping[Assignment, Assignment]) -> Optional[tuple[Assignment, Assignment]]:
    """The first (assignment, image) pair a discrepancy moves, or None when
    it is the identity: the witness of an unequal `compare_paths`."""
    return next(((k, v) for k, v in discrepancy.items() if k != v), None)


def equation_witness(equal: bool,
                     discrepancy: Mapping[Assignment, Assignment]) -> Optional[tuple[Assignment, Assignment]]:
    """The witness of a `compare_paths` verdict: None for equal paths, else
    the first pair the discrepancy moves.  An equal verdict reads no entry,
    so its discrepancy is never built."""
    return None if equal else first_moved(discrepancy)


# ---------------------------------------------------------------------------
# the canonical coherence cells of the span bicategory


def _ids(objs: tuple[FinSet, ...]) -> tuple[Box, ...]:
    return tuple(identity_box(o) for o in objs)


class ClosedFormRule(RewriteRule):
    """A rule whose element map is a relabelling of box columns.

    The constructor's `carry(columns, count)` computes the images column by
    column; `mapping` and `cell` are built from it, over the evaluated
    padded patterns, the first time either is read.  `inverse`, when given,
    returns the inverse rule; without it `inverse()` inverts the tables.
    `tgt_ev`, when given, is the tgt pattern's evaluation, made by the
    caller for its own use."""

    def __init__(self, name: str, src: Diagram, tgt: Diagram, carry: Callable, inverse: Optional[Callable] = None,
                 tgt_ev: Optional[EvaluatedDiagram] = None):
        for attr, value in zip(("name", "src", "tgt", "carry", "_inverse", "_tgt_ev"),
                               (name, src, tgt, carry, inverse, tgt_ev)):
            object.__setattr__(self, attr, value)

    @cached_property
    def _tables(self) -> tuple[dict[tuple[int, ...], tuple[int, ...]], SpanCell]:
        ev_src = evaluate(self.src)
        ev_tgt = evaluate(self.tgt) if self._tgt_ev is None else self._tgt_ev
        count = ev_src.count
        sources = [c for row in ev_src.columns for c in row]
        images = list(_members(self.carry(sources, count), count))
        cell = _rule_cell(self.name, ev_src, ev_tgt, images)
        return dict(zip(_members(sources, count), images)), cell

    @property
    def mapping(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return self._tables[0]

    @property
    def cell(self) -> SpanCell:
        return self._tables[1]

    def inverse(self) -> RewriteRule:
        return self._inverse() if self._inverse else super().inverse()


def tensorator_rule(f: Box, g: Box) -> RewriteRule:
    """The slide move c_{f,g}: (id⊗g)∘(f⊗id) => (f⊗id)∘(id⊗g)."""
    src = ((f,) + _ids(g.in_objs), _ids(f.out_objs) + (g,))
    tgt = (_ids(f.in_objs) + (g,), (f,) + _ids(g.out_objs))

    def carry(columns, count: int) -> tuple[tuple[int, ...], ...]:
        # the src pattern's columns run f, the identities, g; the tgt's run
        # f's in wires, g, f, g's out wires
        ef, eg = columns[0], columns[-1]
        return (
            tuple(gather(t, ef) for t in f.in_wires) + (eg, ef)
            + tuple(gather(t, eg) for t in g.out_wires)
        )

    return ClosedFormRule("tensorator", src, tgt, carry)


def _braid_box(first: tuple[FinSet, ...], second: tuple[FinSet, ...]) -> Box:
    return Box(block_braiding_span(first, second), first + second, second + first, name="braid")


def braiding_rule(f: Box, g: Box) -> RewriteRule:
    """The move rho_{f,g}: rho∘(f⊗g) => (g⊗f)∘rho."""
    src = ((f, g), (_braid_box(f.out_objs, g.out_objs),))
    tgt = ((_braid_box(f.in_objs, g.in_objs),), (g, f))

    def carry(columns, count: int) -> tuple[tuple[int, ...], ...]:
        # the new braid's element is its source index: f's in wires, then g's
        ef, eg = columns[0], columns[1]
        sizes = (f.span.src.size, g.span.src.size)
        return (encode_columns((gather(f.span.left.table, ef), gather(g.span.left.table, eg)), sizes, count), eg, ef)

    return ClosedFormRule("braiding", src, tgt, carry)


def syllepsis_rule(x: FinSet, y: FinSet) -> RewriteRule:
    """v_{X,Y}: rho_{Y,X}∘rho_{X,Y} => id, whose identity side is padded to
    a second identity row, with the closed-form inverse v_{X,Y}^-1."""
    ids = (identity_box(x), identity_box(y))
    src = ((_braid_box((x,), (y,)),), (_braid_box((y,), (x,)),))
    tgt = (ids, ids)

    def split(columns, count: int) -> tuple[tuple[int, ...], ...]:
        # the first braid's element is a pair (a, b) in X×Y, read by both
        # identity rows
        a, b = decode_columns(columns[0], (x.size, y.size))
        return (a, b, a, b)

    def join(columns, count: int) -> tuple[tuple[int, ...], ...]:
        # the pair (a, b) of the first identity row is (a, b) in X×Y and
        # (b, a) in Y×X
        a, b = columns[0], columns[1]
        return (encode_columns((a, b), (x.size, y.size), count), encode_columns((b, a), (y.size, x.size), count))

    return ClosedFormRule("syllepsis", src, tgt, split,
                          inverse=lambda: ClosedFormRule("syllepsis^-1", tgt, src, join))


def hexagonator_rule(x: FinSet, y: FinSet, z: FinSet) -> RewriteRule:
    """R_{X|YZ}: crossing X over Y then over Z equals crossing X over Y⊗Z;
    the single crossing is padded to an identity row on Y, Z, X."""
    src = ((_braid_box((x,), (y,)), identity_box(z)),
           (identity_box(y), _braid_box((x,), (z,))))
    tgt = ((_braid_box((x,), (y, z)),), _ids((y, z, x)))

    def carry(columns, count: int) -> tuple[tuple[int, ...], ...]:
        # the pair p in X×Y and c in Z make (p, c) in X×Y×Z, whose out
        # wires y, z, x the padding row reads
        p, c = columns[0], columns[1]
        a, b = decode_columns(p, (x.size, y.size))
        return (encode_columns((p, c), (x.size * y.size, z.size), count), b, c, a)

    return ClosedFormRule("hexagonator", src, tgt, carry)


def tensorator_cell(f: Span, g: Span) -> SpanCell:
    return tensorator_rule(box_from_span(f, "f"), box_from_span(g, "g")).cell


def braiding_cell(f: Span, g: Span) -> SpanCell:
    return braiding_rule(box_from_span(f, "f"), box_from_span(g, "g")).cell


def syllepsis_cell(x: FinSet, y: FinSet) -> SpanCell:
    return syllepsis_rule(x, y).cell


def hexagonator_cell(x: FinSet, y: FinSet, z: FinSet) -> SpanCell:
    return hexagonator_rule(x, y, z).cell

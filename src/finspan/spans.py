"""Finite sets, maps, spans, and the 2-cell calculus of the span bicategory.

Conventions used throughout the package:

* Elements of a ``FinSet`` are the dense integers ``0..size-1``.
* Cartesian products are encoded row-major: the pair ``(a, b)`` with
  ``b`` ranging over a set of size ``nb`` has index ``a * nb + b``.
  Iterated products in any bracketing therefore share one flat index,
  so rebracketing and unit cells act as the identity on indices.
  Outside this module, product elements are coded and split only by
  ``encode_columns`` and ``decode_columns``, a column of elements at a
  time.
* Pullback apexes list their elements lexicographically in ``(a, b)``.
  Left-nested and right-nested pullback composites then enumerate the
  same flat tuples in the same order, which pins down the associativity
  identifications once and for all.
* ``FinMap.then`` composes in pipeline order: ``f.then(g)`` is "f, then g".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence


class StructuralError(ValueError):
    """Raised when domains/codomains or span boundaries fail to match."""


@dataclass(frozen=True)
class FinSet:
    """A finite set with elements 0..size-1 and optional display labels.
    Labels only name elements for display: sets of one size are equal
    whatever their labels."""

    size: int
    labels: Optional[tuple[str, ...]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.size < 0:
            raise StructuralError(f"negative size {self.size}")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise StructuralError("labels length differs from size")
            if len(set(self.labels)) != self.size:
                raise StructuralError("duplicate labels")

    def __iter__(self):
        return iter(range(self.size))

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)


UNIT = FinSet(1)  # the monoidal unit {*}


@dataclass(frozen=True)
class FinMap:
    """A function between finite sets, tabulated on the domain."""

    dom: FinSet
    cod: FinSet
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.dom.size:
            raise StructuralError("table length differs from domain size")
        if self.table and (min(self.table) < 0 or max(self.table) >= self.cod.size):
            raise StructuralError("table entry out of codomain range")

    def __call__(self, i: int) -> int:
        return self.table[i]

    def then(self, g: "FinMap") -> "FinMap":
        """Pipeline composition: first self, then g."""
        if g.dom.size != self.cod.size:
            raise StructuralError("composition boundary mismatch")
        return FinMap(self.dom, g.cod, gather(g.table, self.table))

    def is_bijective(self) -> bool:
        return self.dom.size == self.cod.size and len(set(self.table)) == self.dom.size

    def inverse(self) -> "FinMap":
        if not self.is_bijective():
            raise StructuralError("not invertible")
        inv = [0] * self.cod.size
        for i, v in enumerate(self.table):
            inv[v] = i
        return FinMap(self.cod, self.dom, tuple(inv))


def gather(table, indices: Sequence) -> tuple:
    """The entries `table[i]` for each i in `indices`, as a tuple: the one
    kernel through which tables compose.  It raises what `table[i]`
    raises on a missing index or key."""
    return _picker(indices)(table)


def identity_map(x: FinSet) -> FinMap:
    return FinMap(x, x, tuple(range(x.size)))


def constant_map(dom: FinSet, cod: FinSet, value: int = 0) -> FinMap:
    return FinMap(dom, cod, tuple([value] * dom.size))


def first_difference(f: Sequence[int], g: Sequence[int]) -> Optional[int]:
    """The first element on which two tables on a common domain differ, or
    None when they are equal."""
    if f == g:
        return None
    return next(e for e, (a, b) in enumerate(zip(f, g)) if a != b)


@dataclass(frozen=True)
class Span:
    """A two-legged diagram src <- apex -> tgt; a 1-morphism of spans."""

    src: FinSet
    tgt: FinSet
    apex: FinSet
    left: FinMap
    right: FinMap

    def __post_init__(self):
        if self.left.dom != self.apex or self.right.dom != self.apex:
            raise StructuralError("span legs must share the apex as domain")
        if self.left.cod != self.src or self.right.cod != self.tgt:
            raise StructuralError("span legs hit the wrong boundary")


def identity_span(x: FinSet) -> Span:
    i = identity_map(x)
    return Span(x, x, x, i, i)


@dataclass(frozen=True)
class SpanCell:
    """A 2-morphism of spans: an apex map commuting with both legs."""

    source: Span
    target: Span
    map: FinMap

    def __post_init__(self):
        if self.source.src != self.target.src or self.source.tgt != self.target.tgt:
            raise StructuralError("2-cell between spans with different boundaries")
        if self.map.dom != self.source.apex or self.map.cod != self.target.apex:
            raise StructuralError("2-cell map has wrong boundaries")
        if self.map.then(self.target.left).table != self.source.left.table:
            raise StructuralError("2-cell does not commute with left legs")
        if self.map.then(self.target.right).table != self.source.right.table:
            raise StructuralError("2-cell does not commute with right legs")

    def is_invertible(self) -> bool:
        return self.map.is_bijective()

    def inverse(self) -> "SpanCell":
        return SpanCell(self.target, self.source, self.map.inverse())


def identity_cell(f: Span) -> SpanCell:
    return SpanCell(f, f, identity_map(f.apex))


# ---------------------------------------------------------------------------
# pullbacks and composition


def pullback_columns(factors) -> tuple[list[tuple[int, ...]], int]:
    """The iterated pullback of finite sets that share named keys, as one
    element column per factor together with the number of elements.

    Each factor is `(keys, values)` with distinct keys, where `values[e]` is
    element e's tuple of values on `keys`.  The elements are the tuples
    with one element per factor that agree on every shared key, listed in
    lexicographic order: `columns[i][k]` is factor i's element in the k-th.

    Factors are joined in connected order: factor 0 first, then always the
    first remaining factor that reads a key already bound, or the next
    remaining one when none does.  Each factor extends the partial tuples by
    its fiber over the keys already bound, so no product is built and then
    filtered.  A key's value is carried only while a later factor in the
    join order still reads it, and tuples carrying equal values share one
    extension, built once.  The key values a step reads are picked by
    selectors made once per step.  Each join step lists the parent of every
    extended tuple and re-indexes the earlier columns through it.  The
    columns are sorted only when the join order differs from the given one.
    """
    order, seen, rest = [], set(), list(range(len(factors)))
    while rest:
        i = next((i for i in rest if not seen.isdisjoint(factors[i][0])), rest[0])
        rest.remove(i)
        order.append(i)
        seen.update(factors[i][0])
    last = {k: j for j, i in enumerate(order) for k in factors[i][0]}
    live: tuple = ()
    partial: list[tuple] = [()]
    columns: list[tuple[int, ...]] = []
    for j, i in enumerate(order):
        keys, values = factors[i]
        pos = {k: p for p, k in enumerate(live)}
        bound = [q for q, k in enumerate(keys) if k in pos]
        look = [pos[keys[q]] for q in bound]
        kept = [p for p, k in enumerate(live) if last[k] > j]
        fresh = [q for q, k in enumerate(keys) if k not in pos and last[k] > j]
        live = tuple(live[p] for p in kept) + tuple(keys[q] for q in fresh)
        bound_of, fresh_of, kept_of, look_of = map(_picker, (bound, fresh, kept, look))
        fibers: dict[tuple, tuple[list[int], list[tuple]]] = {}
        for e, vals in enumerate(values):
            es, news = fibers.setdefault(bound_of(vals), ([], []))
            es.append(e)
            news.append(fresh_of(vals))
        extensions: dict[tuple, tuple[list[int], list[tuple]]] = {}
        parents: list[int] = []
        column: list[int] = []
        grown: list[tuple] = []
        for a, carried in enumerate(partial):
            ext = extensions.get(carried)
            if ext is None:
                old = kept_of(carried)
                es, news = fibers.get(look_of(carried), ((), ()))
                ext = extensions[carried] = (es, [old + new for new in news])
            parents += [a] * len(ext[0])
            column += ext[0]
            grown += ext[1]
        reindex = _picker(parents)
        columns = [reindex(col) for col in columns]
        columns.append(tuple(column))
        partial = grown
    columns = [columns[order.index(i)] for i in range(len(order))]
    return columns if order == sorted(order) else sort_columns(columns), len(partial)


def _picker(indices: Sequence):
    """The function taking a table to the tuple of its entries at
    `indices`.  `itemgetter` of a single index returns the bare entry, so
    one index and none are written out."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        i = indices[0]
        return lambda v: (v[i],)
    return lambda v: ()


def sort_columns(columns) -> list[tuple[int, ...]]:
    """Equal-length element columns with their rows in lexicographic order."""
    return list(zip(*sorted(zip(*columns)))) or [()] * len(columns)


def iterated_pullback(factors) -> tuple[tuple[int, ...], ...]:
    """The elements of `pullback_columns` as tuples, one entry per factor."""
    columns, count = pullback_columns(factors)
    return tuple(zip(*columns)) if columns else ((),) * count


def pullback_pairs(f: FinMap, g: FinMap) -> tuple[tuple[int, int], ...]:
    """Element pairs of the pullback of f against g, lexicographic in (a, b)."""
    if f.cod != g.cod:
        raise StructuralError("pullback requires a common codomain")
    return iterated_pullback([(("v",), [(v,) for v in f.table]),
                              (("v",), [(v,) for v in g.table])])


def pullback_square_witness(p: FinMap, q: FinMap, f: FinMap, g: FinMap):
    """None when the square p: D -> A, q: D -> B over f: A -> C, g: B -> C
    is a pullback, that is when (p, q) maps D bijectively onto the pullback
    of f against g.  Otherwise the witness is ("not injective", x, y) for
    the first two elements with equal images, ("not surjective", (a, b))
    for the lexicographically first pullback pair missed, or ("square does
    not commute",)."""
    images: dict[tuple[int, int], int] = {}
    for x in p.dom:
        key = (p.table[x], q.table[x])
        if key in images:
            return ("not injective", images[key], x)
        images[key] = x
    pairs = pullback_pairs(f, g)
    for pair in pairs:
        if pair not in images:
            return ("not surjective", pair)
    if len(images) != len(pairs):
        return ("square does not commute",)
    return None


def pullback(f: FinMap, g: FinMap) -> tuple[FinSet, FinMap, FinMap]:
    """The set {(a, b) : f(a) = g(b)} with its two projections."""
    pairs = pullback_pairs(f, g)
    apex = FinSet(len(pairs))
    p1 = FinMap(apex, f.dom, tuple(a for a, _ in pairs))
    p2 = FinMap(apex, g.dom, tuple(b for _, b in pairs))
    return apex, p1, p2


def compose_pairs(f: Span, g: Span) -> tuple[tuple[int, int], ...]:
    """Apex pair decoding of the composite g∘f, in apex index order."""
    if f.tgt != g.src:
        raise StructuralError("span composition boundary mismatch")
    return pullback_pairs(f.right, g.left)


def compose_spans(f: Span, g: Span) -> Span:
    """Composite span of f: X -> Y followed by g: Y -> Z."""
    return _composite(f, g, compose_pairs(f, g))


def _composite(f: Span, g: Span, pairs: tuple[tuple[int, int], ...]) -> Span:
    """The composite span of f and g whose apex is `pairs`, their
    `compose_pairs`."""
    apex = FinSet(len(pairs))
    left = FinMap(apex, f.src, tuple(f.left.table[a] for a, _ in pairs))
    right = FinMap(apex, g.tgt, tuple(g.right.table[b] for _, b in pairs))
    return Span(f.src, g.tgt, apex, left, right)


# ---------------------------------------------------------------------------
# span isomorphism

def _fibers(s: Span) -> dict[tuple[int, int], list[int]]:
    fibers: dict[tuple[int, int], list[int]] = {}
    for i in s.apex:
        fibers.setdefault((s.left.table[i], s.right.table[i]), []).append(i)
    return fibers


def spans_isomorphic(f: Span, g: Span) -> Optional[SpanCell]:
    """An invertible 2-cell f => g if one exists, else None.

    Decided by comparing fiber cardinalities of (left, right) over every
    boundary pair, then assembling a bijection fiber by fiber in index order.
    """
    if f.src != g.src or f.tgt != g.tgt:
        raise StructuralError("spans with different boundaries")
    ff, gf = _fibers(f), _fibers(g)
    if set(ff) != set(gf):
        return None
    table = [0] * f.apex.size
    for key, felems in ff.items():
        gelems = gf[key]
        if len(felems) != len(gelems):
            return None
    for key, felems in ff.items():
        for a, b in zip(felems, gf[key]):
            table[a] = b
    return SpanCell(f, g, FinMap(f.apex, g.apex, tuple(table)))


# ---------------------------------------------------------------------------
# 2-cell calculus


def vertical_compose(u: SpanCell, v: SpanCell) -> SpanCell:
    """u: f => g followed by v: g => h."""
    if u.target != v.source:
        raise StructuralError("vertical composition boundary mismatch")
    return SpanCell(u.source, v.target, u.map.then(v.map))


def horizontal_compose(u: SpanCell, v: SpanCell) -> SpanCell:
    """u: f => f' (X -> Y) beside v: g => g' (Y -> Z), giving g∘f => g'∘f'."""
    f, fp, g, gp = u.source, u.target, v.source, v.target
    src_pairs = compose_pairs(f, g)
    tgt_pairs = compose_pairs(fp, gp)
    tgt_index = {pair: i for i, pair in enumerate(tgt_pairs)}
    table = tuple(tgt_index[(u.map.table[a], v.map.table[b])] for a, b in src_pairs)
    source = _composite(f, g, src_pairs)
    target = _composite(fp, gp, tgt_pairs)
    return SpanCell(source, target, FinMap(source.apex, target.apex, table))


def whisker(s: Span, u: SpanCell, side: str) -> SpanCell:
    """Whisker the cell u with the span s on the given side.

    side="left": s comes first, result is u∘s-shaped (u.source∘s => u.target∘s).
    side="right": result is s∘u-shaped.
    """
    if side == "left":
        return horizontal_compose(identity_cell(s), u)
    if side == "right":
        return horizontal_compose(u, identity_cell(s))
    raise StructuralError("side must be 'left' or 'right'")


# ---------------------------------------------------------------------------
# products and braidings


def encode_columns(columns: Sequence[Sequence[int]], sizes: Sequence[int], count: int) -> tuple[int, ...]:
    """The row-major code of each of `count` rows given as one column per
    factor: starting from its first value, each further value is added
    to the code so far times that factor's size.  The first size is never
    read, and no columns code every row as 0."""
    if not columns:
        return (0,) * count
    codes = columns[0]
    for column, size in zip(columns[1:], sizes[1:]):
        codes = [c * size + v for c, v in zip(codes, column)]
    return tuple(codes)


def decode_columns(codes: Sequence[int], sizes: Sequence[int]) -> tuple[Sequence[int], ...]:
    """The factor columns of row-major codes, undoing `encode_columns`:
    column i holds each code's value in factor i.  A single factor's
    column is `codes` itself."""
    if not sizes:
        return ()
    columns = []
    for size in reversed(sizes[1:]):
        columns.append(tuple(c % size for c in codes))
        codes = tuple(c // size for c in codes)
    return (codes, *reversed(columns))


def product_finset(a: FinSet, b: FinSet) -> FinSet:
    return FinSet(a.size * b.size)


def product_map(f: FinMap, g: FinMap) -> FinMap:
    dom = product_finset(f.dom, g.dom)
    cod = product_finset(f.cod, g.cod)
    table = tuple(
        f.table[a] * g.cod.size + g.table[b]
        for a in f.dom
        for b in g.dom
    )
    return FinMap(dom, cod, table)


def product_span(f: Span, g: Span) -> Span:
    """Componentwise Cartesian product of two spans.

    The apex codes the pair (a, b) row-major, as a * g.apex.size + b, so
    both bracketings of a triple product are the same span.
    """
    return Span(
        product_finset(f.src, g.src),
        product_finset(f.tgt, g.tgt),
        product_finset(f.apex, g.apex),
        product_map(f.left, g.left),
        product_map(f.right, g.right),
    )


def braiding_span(x: FinSet, y: FinSet) -> Span:
    """The braiding X×Y -> Y×X: identity left leg, component swap right leg."""
    return block_braiding_span((x,), (y,))


def block_braiding_span(first: tuple[FinSet, ...], second: tuple[FinSet, ...]) -> Span:
    """Braiding that moves the block of `first` factors past `second`: the
    pair (a, b) of block indices, a * T + b, goes to b * S + a, where S and T
    are the sizes of the two blocks."""
    S = math.prod(o.size for o in first)
    T = math.prod(o.size for o in second)
    apex = FinSet(S * T)
    swap = FinMap(apex, apex, tuple(b * S + a for a in range(S) for b in range(T)))
    return Span(apex, apex, apex, identity_map(apex), swap)

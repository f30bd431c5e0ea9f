"""The span calculus: pullbacks, composition, isomorphism, 2-cells, and
the monoidal coherence cells."""

import itertools
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspan import spans
from finspan.documents import document_from_dict
from finspan.diagrams import (
    braiding_cell,
    hexagonator_cell,
    syllepsis_cell,
    tensorator_cell,
)
from finspan.spans import (
    FinMap,
    FinSet,
    ProductShape,
    Span,
    SpanCell,
    StructuralError,
    UNIT,
    block_braiding_span,
    braiding_span,
    coherence_cell,
    compose_spans,
    decode_columns,
    decode_tuple,
    encode_columns,
    encode_tuple,
    gather,
    horizontal_compose,
    identity_cell,
    identity_map,
    identity_span,
    iterated_pullback,
    product_span,
    pullback,
    pullback_pairs,
    pullback_square_witness,
    spans_isomorphic,
    vertical_compose,
    whisker,
)
from finspan.simplicial import vertex_map

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def rand_span(rng, ns, nt, na):
    src, tgt, apex = FinSet(ns), FinSet(nt), FinSet(na)
    return Span(
        src, tgt, apex,
        FinMap(apex, src, tuple(rng.randrange(ns) for _ in range(na))),
        FinMap(apex, tgt, tuple(rng.randrange(nt) for _ in range(na))),
    )


def rand_cell_into(rng, g, na):
    apex = FinSet(na)
    h = FinMap(apex, g.apex, tuple(rng.randrange(g.apex.size) for _ in range(na)))
    f = Span(g.src, g.tgt, apex, h.then(g.left), h.then(g.right))
    return SpanCell(f, g, h)


class TestPullback:
    def test_two_points_against_one(self):
        y = FinSet(1)
        f = FinMap(FinSet(2), y, (0, 0))
        g = FinMap(FinSet(1), y, (0,))
        apex, p1, p2 = pullback(f, g)
        assert apex.size == 2
        assert p1.table == (0, 1)
        assert p2.table == (0, 0)

    def test_identity_diagonal(self):
        x = FinSet(3)
        apex, p1, p2 = pullback(identity_map(x), identity_map(x))
        assert apex.size == 3
        assert p1.is_bijective() and p2.is_bijective()

    def test_disjoint_images(self):
        y = FinSet(2)
        f = FinMap(FinSet(1), y, (0,))
        g = FinMap(FinSet(1), y, (1,))
        apex, _, _ = pullback(f, g)
        assert apex.size == 0

    def test_codomain_mismatch(self):
        f = FinMap(FinSet(1), FinSet(2), (0,))
        g = FinMap(FinSet(1), FinSet(3), (0,))
        with pytest.raises(StructuralError):
            pullback(f, g)

    def test_square_witness_is_the_first_missed_pair(self):
        # interval_l3 with s_0^0(0) set to 2: its higher unitality square
        # misses several pullback pairs, (7, 0) first
        data = json.loads((FIXTURES / "interval_l3.json").read_text())
        data["degen"][0][0][0] = 2
        X = document_from_dict(data).simplicial
        p, q = X.s(2, 1), vertex_map(X, 2, (1,))
        f, g = vertex_map(X, 3, (1, 2)), X.s(0, 0)
        images = set(zip(p.table, q.table))
        missed = [pair for pair in pullback_pairs(f, g) if pair not in images]
        assert len(missed) > 1 and missed[0] == (7, 0)
        assert pullback_square_witness(p, q, f, g) == ("not surjective", (7, 0))


def brute_force_pullback(factors):
    """Every tuple of the full product, kept when the factors agree on each
    shared key, sorted."""
    out = []
    for combo in itertools.product(*[range(len(values)) for _, values in factors]):
        bound = {}
        if all(bound.setdefault(k, v) == v
               for (keys, values), e in zip(factors, combo)
               for k, v in zip(keys, values[e])):
            out.append(combo)
    return tuple(sorted(out))


def rand_factors(rng):
    """Two to four factors over the keys a, b, c, d with values in 0..2.
    Factors may read no key, be empty, or repeat values."""
    factors = []
    for _ in range(rng.randint(2, 4)):
        keys = tuple(rng.sample("abcd", rng.randint(0, 3)))
        size = 0 if rng.random() < 0.08 else rng.randint(1, 5)
        factors.append((keys, [tuple(rng.randrange(3) for _ in keys) for _ in range(size)]))
    return factors


def _readers(factors):
    readers = {}
    for i, (keys, _) in enumerate(factors):
        for k in keys:
            readers.setdefault(k, []).append(i)
    return readers


def _joined_out_of_order(factors):
    """Whether some factor reads no key of the factors before it while a
    later factor does, so the connected join order is not the given one."""
    keys = [set(k) for k, _ in factors]
    for i in range(1, len(keys)):
        before = set().union(*keys[:i])
        if not keys[i] & before and any(later & before for later in keys[i + 1:]):
            return True
    return False


def _selection_sizes(factors):
    """For each join step of `pullback_columns`, the number of keys each of
    its selections picks: `bound`, the factor's keys already carried;
    `fresh`, its new keys that a later factor reads; `kept`, the carried
    keys that a later factor still reads."""
    order, seen, rest = [], set(), list(range(len(factors)))
    while rest:
        i = next((i for i in rest if seen & set(factors[i][0])), rest[0])
        rest.remove(i)
        order.append(i)
        seen.update(factors[i][0])
    last = {k: j for j, i in enumerate(order) for k in factors[i][0]}
    live = []
    for j, i in enumerate(order):
        keys = factors[i][0]
        bound = [k for k in keys if k in live]
        kept = [k for k in live if last[k] > j]
        fresh = [k for k in keys if k not in live and last[k] > j]
        live = kept + fresh
        yield {"bound": len(bound), "fresh": len(fresh), "kept": len(kept)}


class TestIteratedPullback:
    @pytest.mark.parametrize("seed", range(200))
    def test_matches_filtered_full_product(self, seed):
        factors = rand_factors(random.Random(seed))
        assert iterated_pullback(factors) == brute_force_pullback(factors)

    def test_random_factor_lists_cover_the_shapes(self):
        shapes = set()
        for seed in range(200):
            factors = rand_factors(random.Random(seed))
            readers = _readers(factors).values()
            shapes.add(("shared by two", any(len(r) == 2 for r in readers)))
            shapes.add(("shared by three", any(len(r) == 3 for r in readers)))
            shapes.add(("skips a factor", any(b - a > 1 for r in readers for a, b in zip(r, r[1:]))))
            shapes.add(("no keys", any(not keys for keys, _ in factors)))
            shapes.add(("empty", any(not values for _, values in factors)))
            shapes.add(("repeated values", any(len(set(values)) < len(values) for _, values in factors)))
            shapes.add(("joined out of order", _joined_out_of_order(factors)))
            # a selection of one key is the case `itemgetter` alone gets wrong
            for sizes in _selection_sizes(factors):
                for selection, n in sizes.items():
                    shapes.add((f"{selection} picks {('none', 'one', 'several')[min(n, 2)]}", True))
        assert {name for name, seen in shapes if seen} == {
            "shared by two", "shared by three", "skips a factor", "no keys", "empty", "repeated values",
            "joined out of order",
        } | {f"{selection} picks {n}"
             for selection in ("bound", "fresh", "kept") for n in ("none", "one", "several")}

    def test_key_read_by_the_first_and_third_factor_only(self):
        factors = [(("k",), [(0,), (1,), (1,)]), ((), [(), ()]), (("k",), [(1,), (0,)])]
        assert iterated_pullback(factors) == brute_force_pullback(factors) == (
            (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0),
        )

    def test_degenerate_factor_lists(self):
        assert iterated_pullback([]) == ((),)
        assert iterated_pullback([((), [(), ()]), (("k",), [])]) == ()
        assert iterated_pullback([((), [(), ()]), ((), [()])]) == ((0, 0), (1, 0))


class TestGather:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 64])
    @pytest.mark.parametrize("kind", [tuple, list, range])
    def test_it_reads_each_entry_in_order(self, kind, count):
        rng = random.Random(count)
        size = rng.randrange(1, 40)
        table = range(size) if kind is range else kind(rng.randrange(100) for _ in range(size))
        for indices in ([rng.randrange(size) for _ in range(count)],
                        tuple(rng.randrange(-size, size) for _ in range(count))):
            got = gather(table, indices)
            assert type(got) is tuple and got == tuple(table[i] for i in indices)

    @given(st.lists(st.integers(-5, 5), max_size=8), st.lists(st.integers(-9, 9), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_it_raises_what_indexing_raises(self, table, indices):
        for t in (table, tuple(table), dict(enumerate(table))):
            try:
                expected = tuple(t[i] for i in indices)
            except (IndexError, KeyError) as exc:
                with pytest.raises(type(exc)) as raised:
                    gather(t, indices)
                assert raised.value.args == exc.args
            else:
                assert gather(t, indices) == expected

    def test_a_missing_key_raises_key_error(self):
        index = {(0, 1): 5, (1, 0): 6}
        assert gather(index, [(1, 0), (0, 1)]) == (6, 5)
        for keys in ([(2, 2)], [(0, 1), (2, 2)]):
            with pytest.raises(KeyError) as raised:
                gather(index, keys)
            assert raised.value.args == ((2, 2),)


class TestComposition:
    def test_identity_unitor(self):
        rng = random.Random(0)
        s = rand_span(rng, 3, 2, 4)
        left = compose_spans(identity_span(s.src), s)
        right = compose_spans(s, identity_span(s.tgt))
        for c in (left, right):
            cell = spans_isomorphic(c, s)
            assert cell is not None and cell.is_invertible()
        # the right unitor is the identity on indices; the left unitor is
        # the canonical pair projection
        assert right == s
        from finspan.spans import compose_pairs

        pairs = compose_pairs(identity_span(s.src), s)
        projection = FinMap(left.apex, s.apex, tuple(a for _, a in pairs))
        unitor = SpanCell(left, s, projection)
        assert unitor.is_invertible()

    def test_point_middle_gives_product(self):
        f = rand_span(random.Random(1), 2, 1, 2)
        g = rand_span(random.Random(2), 1, 3, 3)
        assert compose_spans(f, g).apex.size == 6

    def test_associativity_is_index_identity(self):
        rng = random.Random(3)
        f = rand_span(rng, 2, 2, 3)
        g = rand_span(rng, 2, 2, 3)
        h = rand_span(rng, 2, 2, 3)
        lhs = compose_spans(compose_spans(f, g), h)
        rhs = compose_spans(f, compose_spans(g, h))
        assert lhs == rhs  # left- and right-nested composites coincide


class TestSpansIsomorphic:
    def brute(self, f, g):
        if f.apex.size != g.apex.size:
            return False
        for perm in itertools.permutations(range(g.apex.size)):
            if all(
                g.left.table[perm[i]] == f.left.table[i]
                and g.right.table[perm[i]] == f.right.table[i]
                for i in f.apex
            ):
                return True
        return False

    def test_equal_spans_identity_cell(self):
        s = rand_span(random.Random(4), 2, 2, 5)
        cell = spans_isomorphic(s, s)
        assert cell is not None
        assert cell.map.table == tuple(range(5))

    def test_cardinality_obstruction(self):
        rng = random.Random(5)
        f = rand_span(rng, 1, 1, 2)
        g = rand_span(rng, 1, 1, 3)
        assert spans_isomorphic(f, g) is None

    def test_agrees_with_brute_force(self):
        rng = random.Random(6)
        for _ in range(300):
            ns, nt = rng.randrange(1, 4), rng.randrange(1, 4)
            f = rand_span(rng, ns, nt, rng.randrange(0, 6))
            g = rand_span(rng, ns, nt, rng.randrange(0, 6))
            cell = spans_isomorphic(f, g)
            assert (cell is not None) == self.brute(f, g)
            if cell is not None:
                assert cell.is_invertible()

    def test_equivalence_relation(self):
        rng = random.Random(7)
        spans = [rand_span(rng, 2, 2, 3) for _ in range(12)]
        for f in spans:
            assert spans_isomorphic(f, f) is not None
        for f, g in itertools.combinations(spans, 2):
            fg = spans_isomorphic(f, g)
            assert (fg is not None) == (spans_isomorphic(g, f) is not None)
        for f, g, h in itertools.combinations(spans, 3):
            if spans_isomorphic(f, g) and spans_isomorphic(g, h):
                assert spans_isomorphic(f, h) is not None


class TestTwoCells:
    def test_vertical_identity(self):
        s = rand_span(random.Random(8), 2, 2, 4)
        i = identity_cell(s)
        assert vertical_compose(i, i).map.table == i.map.table

    def test_whisker_identity_is_identity(self):
        rng = random.Random(9)
        f = rand_span(rng, 2, 3, 3)
        g = rand_span(rng, 3, 2, 4)
        w = whisker(g, identity_cell(f), side="left")
        assert w.map.table == tuple(range(w.source.apex.size))

    def test_a_horizontal_composite_computes_each_pullback_once(self, monkeypatch):
        rng = random.Random(13)
        u = rand_cell_into(rng, rand_span(rng, 2, 3, 3), 4)
        v = rand_cell_into(rng, rand_span(rng, 3, 2, 4), 3)
        s = rand_span(rng, 2, 2, 3)
        cases = [
            (lambda: horizontal_compose(u, v), (u.source, v.source), (u.target, v.target)),
            (lambda: whisker(s, u, side="left"), (s, u.source), (s, u.target)),
            (lambda: whisker(s, v, side="right"), (v.source, s), (v.target, s)),
        ]
        expected = [(compose_spans(*source), compose_spans(*target)) for _, source, target in cases]
        calls = []
        pullback_pairs_ = spans.pullback_pairs

        def counting_pullback_pairs(f, g):
            calls.append((f, g))
            return pullback_pairs_(f, g)

        monkeypatch.setattr(spans, "pullback_pairs", counting_pullback_pairs)
        for (compose, _, _), (source, target) in zip(cases, expected):
            calls.clear()
            cell = compose()
            assert len(calls) == 2
            assert (cell.source, cell.target) == (source, target)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_interchange(self, seed):
        rng = random.Random(seed)
        g1 = rand_span(rng, 2, 3, rng.randrange(1, 4))
        u = rand_cell_into(rng, g1, rng.randrange(1, 4))
        u2 = rand_cell_into(rng, u.source, rng.randrange(1, 4))
        g2 = rand_span(rng, 3, 2, rng.randrange(1, 4))
        v = rand_cell_into(rng, g2, rng.randrange(1, 4))
        v2 = rand_cell_into(rng, v.source, rng.randrange(1, 4))
        lhs = horizontal_compose(vertical_compose(u2, u), vertical_compose(v2, v))
        rhs = vertical_compose(horizontal_compose(u2, v2), horizontal_compose(u, v))
        assert lhs.map.table == rhs.map.table


class TestProductsAndShapes:
    def test_unit_factor(self):
        s = rand_span(random.Random(10), 2, 3, 4)
        p = product_span(s, identity_span(UNIT))
        cell = spans_isomorphic(p, s)
        assert cell is not None and cell.map.table == tuple(range(4))

    def test_sizes_multiply(self):
        rng = random.Random(11)
        f = rand_span(rng, 2, 2, 2)
        g = rand_span(rng, 2, 2, 3)
        assert product_span(f, g).apex.size == 6

    def test_rebracketing_cell(self):
        rng = random.Random(12)
        f = rand_span(rng, 1, 1, 2)
        g = rand_span(rng, 1, 1, 3)
        h = rand_span(rng, 1, 1, 4)
        lhs = product_span(product_span(f, g), h)
        rhs = product_span(f, product_span(g, h))
        assert lhs == rhs
        sh = [ProductShape.leaf(k) for k in (2, 3, 4)]
        a = ProductShape.node(ProductShape.node(sh[0], sh[1]), sh[2])
        b = ProductShape.node(sh[0], ProductShape.node(sh[1], sh[2]))
        cell = coherence_cell(lhs, a, b)
        assert cell.map.table == tuple(range(24))
        back = coherence_cell(rhs, b, a)
        assert vertical_compose(cell, back).map.table == tuple(range(24))

    def test_shape_mismatch_rejected(self):
        a = ProductShape.node(ProductShape.leaf(2), ProductShape.leaf(3))
        b = ProductShape.node(ProductShape.leaf(3), ProductShape.leaf(2))
        s = identity_span(FinSet(6))
        with pytest.raises(StructuralError):
            coherence_cell(s, a, b)

    def test_shape_codec(self):
        sh = ProductShape.node(
            ProductShape.leaf(2), ProductShape.node(ProductShape.leaf(3), ProductShape.leaf(4))
        )
        for i in range(sh.size):
            assert sh.encode(sh.decode(i)) == i

    def test_product_records_shape(self):
        from finspan.spans import product_shape

        rng = random.Random(16)
        f = rand_span(rng, 2, 2, 3)
        g = rand_span(rng, 2, 2, 4)
        p = product_span(f, g)
        sh = product_shape(f.apex, g.apex)
        assert sh.size == p.apex.size
        assert sh.decode(p.apex.size - 1) == (2, 3)

    def test_decode_refuses_an_index_out_of_range(self):
        from finspan.spans import product_shape

        sh = product_shape(2, 3)
        assert (sh.decode(0), sh.decode(1), sh.decode(4), sh.decode(5)) == ((0, 0), (0, 1), (1, 1), (1, 2))
        for index in (-1, 6):
            with pytest.raises(StructuralError, match="index out of range"):
                sh.decode(index)


@st.composite
def column_batches(draw):
    """Factor sizes, a row count, the rows as one column per factor, and
    codes drawn from the whole product."""
    sizes = tuple(draw(st.lists(st.integers(1, 4), max_size=4)))
    count = draw(st.integers(0, 6))
    columns = tuple(
        tuple(draw(st.lists(st.integers(0, s - 1), min_size=count, max_size=count))) for s in sizes
    )
    codes = tuple(draw(st.lists(st.integers(0, math.prod(sizes) - 1), max_size=6)))
    return columns, sizes, count, codes


class TestColumnCodes:
    @given(column_batches(), st.integers(0, 9))
    @settings(max_examples=200, deadline=None)
    def test_encode_columns_codes_each_row_as_encode_tuple(self, batch, first):
        columns, sizes, count, _ = batch
        rows = list(zip(*columns)) if columns else [()] * count
        expected = tuple(encode_tuple(row, sizes) for row in rows)
        assert encode_columns(columns, sizes, count) == expected
        # the first size is never read
        assert encode_columns(columns, (first,) + sizes[1:], count) == expected

    @given(column_batches())
    @settings(max_examples=200, deadline=None)
    def test_decode_columns_splits_each_code_as_decode_tuple(self, batch):
        columns, sizes, count, codes = batch
        decoded = decode_columns(codes, sizes)
        assert len(decoded) == len(sizes)
        assert all(len(c) == len(codes) for c in decoded)
        assert [tuple(c[k] for c in decoded) for k in range(len(codes))] == [decode_tuple(i, sizes) for i in codes]
        assert decode_columns(encode_columns(columns, sizes, count), sizes) == columns

    def test_the_edge_cases(self):
        # no columns code every row as 0, and no sizes split into no columns
        assert encode_columns((), (), 3) == (0, 0, 0)
        assert decode_columns((0, 0, 0), ()) == ()
        # no rows
        assert encode_columns(((), ()), (2, 3), 0) == ()
        assert decode_columns((), (2, 3)) == ((), ())
        # factors of size 1 hold only 0
        assert encode_columns(((0, 0), (1, 2), (0, 0)), (1, 3, 1), 2) == (1, 2)
        assert decode_columns((1, 2), (1, 3, 1)) == ((0, 0), (1, 2), (0, 0))
        # a single factor's codes are its column, the same object
        for codes in ((2, 0, 1), [2, 0, 1], ()):
            assert encode_columns((codes,), (3,), len(codes)) == tuple(codes)
            (column,) = decode_columns(codes, (3,))
            assert column is codes


class TestCoherenceCells:
    def test_tensorator_composites_are_the_product(self):
        rng = random.Random(13)
        f = rand_span(rng, 2, 2, 3)
        g = rand_span(rng, 3, 2, 2)
        c = tensorator_cell(f, g)
        assert c.is_invertible()
        assert c.source.apex.size == f.apex.size * g.apex.size
        assert c.target.apex.size == f.apex.size * g.apex.size
        # the source composite is literally (id x g) after (f x id)
        direct = compose_spans(
            product_span(f, identity_span(g.src)),
            product_span(identity_span(f.tgt), g),
        )
        assert c.source == direct

    def test_tensorator_inverse(self):
        rng = random.Random(14)
        f = rand_span(rng, 2, 2, 2)
        g = rand_span(rng, 2, 2, 3)
        c = tensorator_cell(f, g)
        assert vertical_compose(c, c.inverse()).map.table == tuple(range(c.source.apex.size))

    def test_identity_spans_tensorator(self):
        x = FinSet(3)
        c = tensorator_cell(identity_span(x), identity_span(x))
        assert c.map.table == tuple(range(9))

    def test_braiding_round_trip_is_syllepsis(self):
        x, y = FinSet(2), FinSet(3)
        rho = braiding_span(x, y)
        rho_back = braiding_span(y, x)
        double = compose_spans(rho, rho_back)
        v = syllepsis_cell(x, y)
        assert v.source == double
        assert v.target == identity_span(FinSet(6))
        assert v.is_invertible()

    def test_braiding_on_point_factor(self):
        x = FinSet(4)
        rho = braiding_span(x, UNIT)
        cell = spans_isomorphic(rho, identity_span(FinSet(4)))
        assert cell is not None

    def test_braiding_cell_invertible(self):
        rng = random.Random(15)
        f = rand_span(rng, 2, 2, 3)
        g = rand_span(rng, 2, 3, 2)
        assert braiding_cell(f, g).is_invertible()

    def test_hexagonator_boundaries(self):
        x, y, z = FinSet(2), FinSet(2), FinSet(3)
        r = hexagonator_cell(x, y, z)
        assert r.is_invertible()
        # both sides are the span with identity left leg and the rotation
        n = 12
        assert r.source.left.is_bijective()
        rotated = sorted(
            (r.source.right.table[i], i) for i in range(n)
        )
        assert r.source.right.table == r.target.right.table


# ---------------------------------------------------------------------------
# the block braiding against the swap table decoded and re-encoded element
# by element


def decoded_block_swap(first, second):
    """The block braiding's swap table as each apex element's factors,
    rotated by the first block."""
    sizes = tuple(o.size for o in first + second)
    out_sizes = tuple(o.size for o in second + first)
    k = len(first)
    return tuple(
        encode_tuple(vals[k:] + vals[:k], out_sizes)
        for vals in (decode_tuple(i, sizes) for i in range(math.prod(sizes)))
    )


BLOCK_CASES = [
    ((), ()),
    ((), (2, 3)),
    ((3, 2), ()),
    ((1,), (1,)),
    ((1,), (3,)),
    ((3,), (1, 1)),
    ((2, 1, 3), (1, 2)),
    ((2,), (3, 2)),
    ((2, 3), (2,)),
    ((0, 2), (3,)),
    ((2,), (4, 2, 3)),
]


@pytest.mark.parametrize("first, second", BLOCK_CASES + [
    tuple(tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))) for _ in range(2))
    for rng in map(random.Random, range(20))
])
def test_block_braiding_matches_the_decoded_swap(first, second):
    first, second = tuple(map(FinSet, first)), tuple(map(FinSet, second))
    span = block_braiding_span(first, second)
    table = decoded_block_swap(first, second)
    assert span.right.table == table
    assert span.apex.size == span.src.size == span.tgt.size == len(table)
    assert span.left == identity_map(span.apex)
    if len(first) == len(second) == 1:
        assert span == braiding_span(*first, *second)

"""Pseudomonoids built from 2-Segal sets, and the pentagon/triangle checks.

The multiplication span of a simplicial set is X_1 x X_1 <- X_2 -> X_1 with
legs (d_2, d_0) and d_1; the unit is {*} <- X_0 -> X_1 with right leg s_0.
For a 2-Segal set the two square-triangulation maps give the associator and
the unitality pullbacks give the unitors.  The coherence equations are
verified exactly, by running both composite 2-cells of each equation as
rewrite paths and comparing the resulting apex bijections.

The associator-lift search for 2-truncated data follows the pentagon cycle
of the five square flips inside the pentagon, which only needs X_2.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from operator import itemgetter
from typing import Optional

from .diagrams import (
    Box,
    DiagramPath,
    EvaluatedDiagram,
    RewriteRule,
    _rule_cell,
    compare_paths,
    equation_witness,
    evaluate,
    identity_box,
    member_index,
    rule_from_cell,
    tensorator_rule,
)
from .reporting import Report
from .simplicial import (
    Triangulation,
    TruncSimplicialSet,
    _failures,
    check_2segal,
    check_unitality,
    degeneracy_relations,
    edge_map,
    make_simplicial,
    polygon_stack,
    segal_witness,
    vertex_map,
)
from .spans import (
    FinMap,
    FinSet,
    Span,
    SpanCell,
    StructuralError,
    UNIT,
    constant_map,
    encode_columns,
    gather,
    identity_span,
    pullback_pairs,
)


class ConstructionError(ValueError):
    """Raised when pseudomonoid data cannot be built from the input."""


# ---------------------------------------------------------------------------
# basic spans and boxes


def mult_span(x1: FinSet, x2: FinSet, d0: FinMap, d1: FinMap, d2: FinMap) -> Span:
    left = FinMap(x2, FinSet(x1.size * x1.size), encode_columns((d2.table, d0.table), (x1.size, x1.size), x2.size))
    return Span(left.cod, x1, x2, left, d1)


def unit_span(x0: FinSet, x1: FinSet, s0: FinMap) -> Span:
    return Span(UNIT, x1, x0, constant_map(x0, UNIT), s0)


def mult_box(mu: Span, x1: FinSet) -> Box:
    return Box(mu, (x1, x1), (x1,), name="mu")


def unit_box(eta: Span, x1: FinSet) -> Box:
    return Box(eta, (), (x1,), name="eta")


def assoc_src_rows(mu: Box, idb: Box):
    return ((mu, idb), (mu,))


def assoc_tgt_rows(mu: Box, idb: Box):
    return ((idb, mu), (mu,))


def lunit_src_rows(eta: Box, mu: Box, idb: Box):
    return ((eta, idb), (mu,))


def runit_src_rows(eta: Box, mu: Box, idb: Box):
    return ((idb, eta), (mu,))


@dataclass(frozen=True)
class PseudomonoidData:
    """Unit, multiplication, associator, and unitors on a carrier set.

    The associator is a cell between the evaluated diagrams mu(mu x id) and
    mu(id x mu); the unitors map the evaluated unit composites to the
    identity span.  All three cells must be invertible.  Each pattern is
    evaluated once, to check the cells' boundaries and to build the three
    rewrite rules the coherence equations use (`assoc_rule`, `lunit_rule`,
    `runit_rule`).  `evaluated` may hand over the evaluations of the
    patterns mu(mu x id), mu(id x mu), mu(eta x id) and mu(id x eta), in
    that order, when the caller has already made them.
    """

    carrier: FinSet
    unit: Span
    mult: Span
    assoc: SpanCell
    lunit: SpanCell
    runit: SpanCell
    evaluated: InitVar[tuple[EvaluatedDiagram, ...]] = ()
    assoc_rule: RewriteRule = field(init=False, compare=False, repr=False)
    lunit_rule: RewriteRule = field(init=False, compare=False, repr=False)
    runit_rule: RewriteRule = field(init=False, compare=False, repr=False)

    def __post_init__(self, evaluated):
        for name, cell in (("assoc", self.assoc), ("lunit", self.lunit), ("runit", self.runit)):
            if not cell.is_invertible():
                raise ConstructionError(f"{name} cell is not invertible")
        mu, eta, idb = self.boxes()
        patterns = (assoc_src_rows(mu, idb), assoc_tgt_rows(mu, idb),
                    lunit_src_rows(eta, mu, idb), runit_src_rows(eta, mu, idb))
        if not evaluated:
            evaluated = tuple(map(evaluate, patterns))
        elif tuple(ev.diagram for ev in evaluated) != patterns:
            raise ConstructionError("handed-over evaluations are not of the pseudomonoid's patterns")
        assoc_src, assoc_tgt, lunit_src, runit_src = evaluated
        unit_tgt = evaluate(((idb,),))
        if self.assoc.source != assoc_src.span:
            raise ConstructionError("assoc source is not mu(mu x id)")
        if self.assoc.target != assoc_tgt.span:
            raise ConstructionError("assoc target is not mu(id x mu)")
        if self.lunit.source != lunit_src.span:
            raise ConstructionError("lunit source is not mu(eta x id)")
        if self.runit.source != runit_src.span:
            raise ConstructionError("runit source is not mu(id x eta)")
        if self.lunit.target != unit_tgt.span:
            raise ConstructionError("lunit target is not the identity span")
        if self.runit.target != unit_tgt.span:
            raise ConstructionError("runit target is not the identity span")
        for attr, rule in (
            ("assoc_rule", rule_from_cell("associator", assoc_src, assoc_tgt, self.assoc)),
            ("lunit_rule", rule_from_cell("lunit", lunit_src, unit_tgt, self.lunit)),
            ("runit_rule", rule_from_cell("runit", runit_src, unit_tgt, self.runit)),
        ):
            object.__setattr__(self, attr, rule)

    def boxes(self) -> tuple[Box, Box, Box]:
        return (
            mult_box(self.mult, self.carrier),
            unit_box(self.unit, self.carrier),
            identity_box(self.carrier),
        )


# ---------------------------------------------------------------------------
# construction from a 2-Segal set


def build_pseudomonoid(X: TruncSimplicialSet) -> PseudomonoidData:
    """The pseudomonoid of a 2-Segal, unital simplicial set (N >= 3): its
    2-truncation with the 2-Segal associator."""
    if X.N < 3:
        raise ConstructionError("need truncation level at least 3")
    check_2segal(X).require(ConstructionError, "not 2-Segal: ")
    check_unitality(X).require(ConstructionError, "not unital: ")
    return pseudomonoid_from_two_truncated(two_truncation(X), canonical_segal_associator(X))


# ---------------------------------------------------------------------------
# coherence checks


@dataclass
class EquationResult:
    """Outcome of one string-diagram equation between two rewrite paths."""

    ok: bool
    discrepancy: Mapping

    def __bool__(self) -> bool:
        return self.ok

    @property
    def witness(self):
        return equation_witness(self.ok, self.discrepancy)


def _pentagon_paths(P: PseudomonoidData) -> tuple[DiagramPath, DiagramPath]:
    mu, _, idb = P.boxes()
    a = P.assoc_rule
    c = tensorator_rule(mu, mu)
    start = ((mu, idb, idb), (mu, idb), (mu,))
    lhs = (
        DiagramPath(start)
        .rewrite(a, 0, (0, 0))
        .rewrite(a, 1, (0, 0))
        .rewrite(a, 0, (1, 1))
    )
    rhs = (
        DiagramPath(start)
        .rewrite(a, 1, (0, 0))
        .rewrite(c, 0, (0, 0))
        .rewrite(a, 1, (0, 0))
    )
    return lhs, rhs


def verify_pentagon(P: PseudomonoidData) -> EquationResult:
    """Compare the two composite cells of the pentagon equation, tensorator
    step included; the discrepancy automorphism is returned when unequal."""
    lhs, rhs = _pentagon_paths(P)
    ok, discrepancy = compare_paths(lhs, rhs)
    return EquationResult(ok, discrepancy)


def verify_triangle(P: PseudomonoidData) -> EquationResult:
    """Compare the two composite cells of the triangle equation."""
    mu, eta, idb = P.boxes()
    start = ((idb, eta, idb), (mu, idb), (mu,))
    lhs = DiagramPath(start).rewrite(P.assoc_rule, 1, (0, 0)).rewrite(P.lunit_rule, 0, (1, 1))
    rhs = DiagramPath(start).rewrite(P.runit_rule, 0, (0, 0))
    ok, discrepancy = compare_paths(lhs, rhs)
    return EquationResult(ok, discrepancy)


# ---------------------------------------------------------------------------
# 2-truncated data, taco spaces, and the associator lift search


@dataclass(frozen=True)
class TwoTruncatedData:
    """X_0, X_1, X_2 with faces and degeneracies, every simplicial identity
    that involves a degeneracy holding (the face identities on X_2 are not
    checked)."""

    x0: FinSet
    x1: FinSet
    x2: FinSet
    d1: tuple[FinMap, FinMap]
    d2: tuple[FinMap, FinMap, FinMap]
    s0: FinMap
    s1: tuple[FinMap, FinMap]

    def __post_init__(self):
        X = two_truncated_simplicial(self)
        Report(_failures(degeneracy_relations(2), X)).require(StructuralError, "truncated identity fails: ")


def two_truncation(X: TruncSimplicialSet) -> TwoTruncatedData:
    return TwoTruncatedData(
        X.levels[0], X.levels[1], X.levels[2],
        (X.d(1, 0), X.d(1, 1)),
        (X.d(2, 0), X.d(2, 1), X.d(2, 2)),
        X.s(0, 0),
        (X.s(1, 0), X.s(1, 1)),
    )


def two_truncated_simplicial(T: TwoTruncatedData) -> TruncSimplicialSet:
    """Repackage 2-truncated data as a truncation-2 simplicial set."""
    return make_simplicial(
        [T.x0, T.x1, T.x2],
        [(), T.d1, T.d2],
        [(T.s0,), T.s1, ()],
    )


def taco_pairs(T: TwoTruncatedData) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """The left (0 1 2),(0 2 3) and right (0 1 3),(1 2 3) taco pairs: the
    pullbacks of d_1 against d_2 and of d_0 against d_1."""
    d0, d1, d2 = T.d2
    return pullback_pairs(d1, d2), pullback_pairs(d0, d1)


def taco_fibers(T: TwoTruncatedData) -> tuple[dict, dict]:
    """The left (0 1 2),(0 2 3) and right (0 1 3),(1 2 3) taco pairs grouped
    by their boundary edges (01, 12, 23, 03), in index order within each
    fiber.  An associator maps each left fiber bijectively to the right
    fiber with the same key."""
    d0, d1, d2 = T.d2
    left_pairs, right_pairs = taco_pairs(T)
    left: dict[tuple, list] = {}
    for a, b in left_pairs:
        left.setdefault((d2.table[a], d0.table[a], d0.table[b], d1.table[b]), []).append((a, b))
    right: dict[tuple, list] = {}
    for a, b in right_pairs:
        right.setdefault((d2.table[a], d2.table[b], d0.table[b], d1.table[a]), []).append((a, b))
    return left, right


def taco_spaces(T: TwoTruncatedData) -> tuple[Span, Span]:
    """The two square-triangulation spans (X_1)^3 <- taco -> X_1."""
    d0, d1, d2 = (f.table for f in T.d2)
    n1 = T.x1.size
    left_pairs, right_pairs = taco_pairs(T)
    cube = FinSet(n1 * n1 * n1)

    def span_from(pairs, edges, eout):
        # edges and eout read the face tables on the two triangle columns
        apex = FinSet(len(pairs))
        a, b = zip(*pairs) if pairs else ((), ())
        left = FinMap(apex, cube, encode_columns(edges(a, b), (n1, n1, n1), apex.size))
        return Span(cube, T.x1, apex, left, FinMap(apex, T.x1, eout(a, b)))

    left_span = span_from(
        left_pairs,
        lambda a, b: (gather(d2, a), gather(d0, a), gather(d0, b)),
        lambda a, b: gather(d1, b),
    )
    right_span = span_from(
        right_pairs,
        lambda a, b: (gather(d2, a), gather(d2, b), gather(d0, b)),
        lambda a, b: gather(d1, a),
    )
    return left_span, right_span


# the pentagon cycle: five triangulations of the pentagon and the square
# flips between them, three forward flips against two
PENTAGON_TRIANGULATIONS = {
    "a": ((0, 1, 2), (0, 2, 3), (0, 3, 4)),
    "b": ((0, 1, 3), (0, 3, 4), (1, 2, 3)),
    "c": ((0, 1, 4), (1, 2, 3), (1, 3, 4)),
    "d": ((0, 1, 4), (1, 2, 4), (2, 3, 4)),
    "e": ((0, 1, 2), (0, 2, 4), (2, 3, 4)),
}
PENTAGON_LHS_FLIPS = (("a", "b", (0, 1, 2, 3)), ("b", "c", (0, 1, 3, 4)), ("c", "d", (1, 2, 3, 4)))
PENTAGON_RHS_FLIPS = (("a", "e", (0, 2, 3, 4)), ("e", "d", (0, 1, 2, 4)))


def _fan_stack(T: TwoTruncatedData) -> tuple[tuple, ...]:
    """The elements of the iterated pullback of X_2's over the fan
    triangulation "a" of the pentagon, in lexicographic order."""
    return polygon_stack(two_truncated_simplicial(T), 4, PENTAGON_TRIANGULATIONS["a"]).elements


def _flip(triangles, quad, assoc, element):
    """One square flip: replace the (q0 q1 q2),(q0 q2 q3) components through
    the associator, producing components for (q0 q1 q3),(q1 q2 q3).  The
    walks use `_walk_steps`, this bookkeeping precomputed as index steps;
    this form, by triangle names, is their reference."""
    q0, q1, q2, q3 = quad
    comps = dict(zip(triangles, element))
    pair = (comps.pop((q0, q1, q2)), comps.pop((q0, q2, q3)))
    za, zb = assoc[pair]
    comps[(q0, q1, q3)] = za
    comps[(q1, q2, q3)] = zb
    new_triangles = tuple(sorted(comps))
    return new_triangles, tuple(comps[t] for t in new_triangles)


def _walk_steps(flips) -> tuple:
    """One side of the pentagon cycle as index steps on fan elements: step
    (i, j, src) looks up the taco pair of components i and j and builds the
    next element with `src`, a getter of the old components followed by
    the pair's two images.  The same bookkeeping as `_flip`, done once."""
    triangles = PENTAGON_TRIANGULATIONS["a"]
    steps = []
    for _, _, (q0, q1, q2, q3) in flips:
        pos = {t: i for i, t in enumerate(triangles)}
        i, j = pos.pop((q0, q1, q2)), pos.pop((q0, q2, q3))
        pos[(q0, q1, q3)] = len(triangles)
        pos[(q1, q2, q3)] = len(triangles) + 1
        triangles = tuple(sorted(pos))
        steps.append((i, j, itemgetter(*(pos[t] for t in triangles))))
    return tuple(steps)


_LHS_STEPS = _walk_steps(PENTAGON_LHS_FLIPS)
_RHS_STEPS = _walk_steps(PENTAGON_RHS_FLIPS)


def _walk(steps, assoc, element):
    """Follow one side from a fan element as far as `assoc` reaches: the end
    element and None, or None and the first taco pair `assoc` lacks."""
    for i, j, src in steps:
        pair = (element[i], element[j])
        image = assoc.get(pair)
        if image is None:
            return None, pair
        element = src(element + image)
    return element, None


def pentagon_flip_discrepancy(T: TwoTruncatedData, assoc: dict) -> dict:
    """Walk both sides of the pentagon cycle and compose one against the
    other: the result maps the fan-triangulation stack to itself and is the
    identity exactly when the pentagon equation holds.  Raises KeyError on
    the first taco pair `assoc` lacks."""
    start = _fan_stack(T)

    def walk(steps, element):
        end, missing = _walk(steps, assoc, element)
        if missing is not None:
            raise KeyError(missing)
        return end

    lhs = {e: walk(_LHS_STEPS, e) for e in start}
    rhs_back = {walk(_RHS_STEPS, e): e for e in start}
    return {e: rhs_back[lhs[e]] for e in start}


def _settle(starts, assoc, position):
    """Walk both sides from each start element.  None when some element's
    walks both end and differ; otherwise the elements still undecided, keyed
    by the position of the later-assigned of the pairs their walks lack."""
    waiting: dict[int, list] = {}
    for e in starts:
        lhs, lhs_missing = _walk(_LHS_STEPS, assoc, e)
        rhs, rhs_missing = _walk(_RHS_STEPS, assoc, e)
        if lhs_missing is None and rhs_missing is None:
            if lhs != rhs:
                return None
        else:
            later = max(position.get(lhs_missing, -1), position.get(rhs_missing, -1))
            waiting.setdefault(later, []).append(e)
    return waiting


@dataclass
class LiftSearchResult:
    status: str  # "lift exists" | "no lift" | "budget exceeded"
    witness: Optional[dict] = None
    candidates_tried: int = 0
    candidates_total: int = 0
    detail: str = ""
    nodes: int = 0  # taco pairs assigned by the search, one per node


def search_associator_lift(T: TwoTruncatedData, budget: int = 1_000_000) -> LiftSearchResult:
    """Search the span isomorphisms between the taco spaces for one whose
    pentagon cycle closes, and return the lexicographically first.

    Candidates are ordered by fiber key, then by bijection per fiber in
    lexicographic order.  The search is depth first: singleton fibers are
    fixed up front, and each node gives the next left pair an unused right
    pair of its fiber, in order.  After each node the start elements of the
    fan stack that were waiting on that pair are walked along both sides of
    the pentagon cycle.  A walk that ends never changes as the associator
    grows, so when both walks end and differ no candidate below the node
    closes the pentagon: the node is pruned and all its candidates count as
    tried, so `candidates_tried` and the witness are those of trying every
    candidate in order.  `budget` bounds the nodes explored."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    left, right = taco_fibers(T)
    if set(left) != set(right) or any(len(left[k]) != len(right[k]) for k in left):
        bad = sorted(set(left) ^ set(right)) or [
            k for k in sorted(left) if len(left[k]) != len(right[k])
        ]
        return LiftSearchResult("no lift", detail=f"taco spans not isomorphic at fiber {bad[0]}")

    keys = sorted(left)
    assoc = {left[k][0]: right[k][0] for k in keys if len(left[k]) == 1}
    open_keys = [k for k in keys if len(left[k]) > 1]
    sizes = [math.factorial(len(left[k])) for k in open_keys]
    total = math.prod(sizes)
    # the open pairs in assignment order, each with its right fiber and the
    # candidates below a node that assigns the m-th of its fiber's s pairs:
    # (s - m)! times the later fibers' bijections
    order = [p for k in open_keys for p in left[k]]
    fibers = [right[k] for k in open_keys for _ in left[k]]
    below = [math.factorial(len(left[k]) - m) * math.prod(sizes[i + 1:])
             for i, k in enumerate(open_keys) for m in range(1, len(left[k]) + 1)]
    position = {p: n for n, p in enumerate(order)}

    waiting = _settle(_fan_stack(T), assoc, position)
    if waiting is None:
        return LiftSearchResult("no lift", candidates_tried=total, candidates_total=total)
    tried = nodes = 0
    found = not order
    used = set()
    # one frame per assigned pair: its values still to try, last first, and
    # the start elements waiting before it was assigned
    stack = [(fibers[0][::-1], waiting)] if order else []
    while stack:
        d = len(stack) - 1
        values, waiting = stack[-1]
        used.discard(assoc.get(order[d]))
        if not values:
            stack.pop()
            del assoc[order[d]]
            continue
        if nodes == budget:
            return LiftSearchResult("budget exceeded", candidates_tried=tried, candidates_total=total,
                                    nodes=nodes, detail=f"search stopped at its budget of {budget} nodes")
        nodes += 1
        assoc[order[d]] = value = values.pop()
        settled = _settle(waiting.get(d, ()), assoc, position)
        if settled is None:
            tried += below[d]
            continue
        if d + 1 == len(order):
            found = True
            break
        used.add(value)
        child = {j: starts for j, starts in waiting.items() if j > d}
        for j, starts in settled.items():
            child[j] = child.get(j, []) + starts
        stack.append(([v for v in reversed(fibers[d + 1]) if v not in used], child))
    if not found:
        return LiftSearchResult("no lift", candidates_tried=tried, candidates_total=total, nodes=nodes)

    witness = {p: assoc[p] for k in keys for p in left[k]}
    if any(k != v for k, v in pentagon_flip_discrepancy(T, witness).items()):
        raise RuntimeError("pruned lift search returned an associator whose pentagon does not close")
    return LiftSearchResult("lift exists", witness=witness, candidates_tried=tried + 1,
                            candidates_total=total, nodes=nodes)


def pseudomonoid_from_two_truncated(T: TwoTruncatedData, assoc: dict) -> PseudomonoidData:
    """Candidate pseudomonoid data from 2-truncated levels and an associator
    given as a taco-pair map; unitors come from the unitality pullbacks."""
    d0_2, d1_2, d2_2 = T.d2
    mu = mult_span(T.x1, T.x2, d0_2, d1_2, d2_2)
    eta = unit_span(T.x0, T.x1, T.s0)
    mub = mult_box(mu, T.x1)
    etab = unit_box(eta, T.x1)
    idb = identity_box(T.x1)

    # an associator src element (m, x, m') goes through the taco pair
    # (m, m') to the tgt element (d_2 z_a, z_b, z_a) of its image (z_a, z_b)
    assoc_src = evaluate(assoc_src_rows(mub, idb))
    assoc_tgt = evaluate(assoc_tgt_rows(mub, idb))
    pairs = map(assoc.__getitem__, zip(assoc_src.columns[0][0], assoc_src.columns[1][0]))
    a_cell = _rule_cell("associator", assoc_src, assoc_tgt,
                        ((d2_2.table[za], zb, za) for za, zb in pairs))

    def unitor(side, ev, key):
        inv = {key(x): x for x in T.x1}
        members = member_index(ev)
        if inv.keys() != members.keys():
            raise ConstructionError(f"{side} unitality square is not a pullback")
        return SpanCell(ev.span, identity_span(T.x1), FinMap(
            ev.span.apex, T.x1, gather(inv, list(members))
        ))

    lunit_src = evaluate(lunit_src_rows(etab, mub, idb))
    lunit = unitor("left", lunit_src, lambda x: (T.d1[1].table[x], x, T.s1[0].table[x]))
    runit_src = evaluate(runit_src_rows(etab, mub, idb))
    runit = unitor("right", runit_src, lambda x: (x, T.d1[0].table[x], T.s1[1].table[x]))
    return PseudomonoidData(T.x1, eta, mu, a_cell, lunit, runit,
                            evaluated=(assoc_src, assoc_tgt, lunit_src, runit_src))


def canonical_segal_associator(X: TruncSimplicialSet) -> dict:
    """The 2-Segal associator of X as a taco-pair map, read off the faces of
    X_3: the simplex with components (d_3, d_1) on the diagonal 02 goes to
    its components (d_2, d_0) on the diagonal 13.  Both square
    triangulation maps, the first two lines of `check_2segal`, must be
    bijective."""
    if not all(r.passed for r in check_2segal(X).results[:2]):
        raise ConstructionError("square triangulation maps are not bijective")
    d0, d1, d2, d3 = (f.table for f in X.face[3])
    return dict(sorted(zip(zip(d3, d1), zip(d2, d0))))


# ---------------------------------------------------------------------------
# n-fold multiplication


def n_fold_multiplication(X: TruncSimplicialSet, n: int) -> Span:
    """The span (X_1)^n <- X_n -> X_1 with edge legs (e_1..e_n) and e_out."""
    if not 1 <= n <= X.N:
        raise StructuralError("level outside the truncation")
    x1 = X.levels[1]
    xn = X.levels[n]
    edge_tables = [edge_map(X, n, i).table for i in range(1, n + 1)]
    left = FinMap(xn, FinSet(x1.size**n), encode_columns(edge_tables, [x1.size] * n, xn.size))
    right = edge_map(X, n, "out")
    return Span(left.cod, x1, xn, left, right)


def triangulation_composite_span(X: TruncSimplicialSet, T: Triangulation) -> tuple[Span, SpanCell]:
    """The iterated pullback span for T together with the cell from the
    n-fold multiplication span into it (invertible iff X is 2-Segal at T)."""
    w = segal_witness(X, T)
    n, x1, stack = T.n, X.levels[1], w.stack
    apex = FinSet(len(stack.elements))
    columns = tuple(zip(*stack.elements)) or ((),) * len(stack.cells)

    def edge_column(a: int, b: int) -> tuple[int, ...]:
        # the edge's value in each element, read in the first triangle holding it
        j, c = next((j, c) for j, c in enumerate(stack.cells) if a in c and b in c)
        return gather(vertex_map(X, 2, (c.index(a), c.index(b))).table, columns[j])

    left = FinMap(apex, FinSet(x1.size**n), encode_columns(
        [edge_column(i - 1, i) for i in range(1, n + 1)], [x1.size] * n, apex.size))
    right = FinMap(apex, x1, edge_column(0, n))
    span = Span(left.cod, x1, apex, left, right)
    cell = SpanCell(n_fold_multiplication(X, n), span, w.forward)
    return span, cell

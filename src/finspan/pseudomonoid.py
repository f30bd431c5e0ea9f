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

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .diagrams import (
    Box,
    DiagramPath,
    compare_paths,
    evaluate,
    identity_box,
    make_rule,
    rule_from_spancell,
    tensorator_rule,
)
from .simplicial import (
    T02,
    T13,
    Triangulation,
    TruncSimplicialSet,
    check_2segal,
    check_unitality,
    edge_map,
    make_simplicial,
    polygon_stack,
    segal_witness,
)
from .spans import (
    FinMap,
    FinSet,
    Span,
    SpanCell,
    StructuralError,
    UNIT,
    constant_map,
    encode_tuple,
    identity_span,
    pullback_pairs,
)


class ConstructionError(ValueError):
    """Raised when pseudomonoid data cannot be built from the input."""


# ---------------------------------------------------------------------------
# basic spans and boxes


def mult_span(x1: FinSet, x2: FinSet, d0: FinMap, d1: FinMap, d2: FinMap) -> Span:
    left = FinMap(x2, FinSet(x1.size * x1.size), tuple(
        d2.table[e] * x1.size + d0.table[e] for e in x2
    ))
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
    identity span.  All three cells must be invertible.
    """

    carrier: FinSet
    unit: Span
    mult: Span
    assoc: SpanCell
    lunit: SpanCell
    runit: SpanCell

    def __post_init__(self):
        for name, cell in (("assoc", self.assoc), ("lunit", self.lunit), ("runit", self.runit)):
            if not cell.is_invertible():
                raise ConstructionError(f"{name} cell is not invertible")
        mu = mult_box(self.mult, self.carrier)
        eta = unit_box(self.unit, self.carrier)
        idb = identity_box(self.carrier)
        if self.assoc.source != evaluate(assoc_src_rows(mu, idb)).span:
            raise ConstructionError("assoc source is not mu(mu x id)")
        if self.assoc.target != evaluate(assoc_tgt_rows(mu, idb)).span:
            raise ConstructionError("assoc target is not mu(id x mu)")
        if self.lunit.source != evaluate(lunit_src_rows(eta, mu, idb)).span:
            raise ConstructionError("lunit source is not mu(eta x id)")
        if self.runit.source != evaluate(runit_src_rows(eta, mu, idb)).span:
            raise ConstructionError("runit source is not mu(id x eta)")
        if self.lunit.target != identity_span(self.carrier):
            raise ConstructionError("lunit target is not the identity span")
        if self.runit.target != identity_span(self.carrier):
            raise ConstructionError("runit target is not the identity span")

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
    segal = check_2segal(X)
    if not segal.ok:
        raise ConstructionError(f"not 2-Segal: {segal.failures[0].name}")
    unital = check_unitality(X)
    if not unital.ok:
        raise ConstructionError(f"not unital: {unital.failures[0].name}")
    return pseudomonoid_from_two_truncated(two_truncation(X), canonical_segal_associator(X))


# ---------------------------------------------------------------------------
# coherence checks


@dataclass
class EquationResult:
    """Outcome of one string-diagram equation between two rewrite paths."""

    ok: bool
    discrepancy: dict

    def __bool__(self) -> bool:
        return self.ok


def _pentagon_paths(P: PseudomonoidData) -> tuple[DiagramPath, DiagramPath]:
    mu, eta, idb = P.boxes()
    a = rule_from_spancell("associator", assoc_src_rows(mu, idb), assoc_tgt_rows(mu, idb), P.assoc)
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
    a = rule_from_spancell("associator", assoc_src_rows(mu, idb), assoc_tgt_rows(mu, idb), P.assoc)
    l_rule = rule_from_spancell("lunit", lunit_src_rows(eta, mu, idb), ((idb,),), P.lunit)
    r_rule = rule_from_spancell("runit", runit_src_rows(eta, mu, idb), ((idb,),), P.runit)
    start = ((idb, eta, idb), (mu, idb), (mu,))
    lhs = DiagramPath(start).rewrite(a, 1, (0, 0)).rewrite(l_rule, 0, (1, 1))
    rhs = DiagramPath(start).rewrite(r_rule, 0, (0, 0))
    ok, discrepancy = compare_paths(lhs, rhs)
    return EquationResult(ok, discrepancy)


# ---------------------------------------------------------------------------
# 2-truncated data, taco spaces, and the associator lift search


@dataclass(frozen=True)
class TwoTruncatedData:
    """X_0, X_1, X_2 with faces and degeneracies, simplicial identities
    holding within the truncation."""

    x0: FinSet
    x1: FinSet
    x2: FinSet
    d1: tuple[FinMap, FinMap]
    d2: tuple[FinMap, FinMap, FinMap]
    s0: FinMap
    s1: tuple[FinMap, FinMap]

    def __post_init__(self):
        d0_1, d1_1 = self.d1
        d0_2, d1_2, d2_2 = self.d2
        s0_0 = self.s0
        s0_1, s1_1 = self.s1
        checks = [
            ("d0 s0 = id", s0_0.then(d0_1)),
            ("d1 s0 = id", s0_0.then(d1_1)),
            ("d0 s0^1 = id", s0_1.then(d0_2)),
            ("d1 s0^1 = id", s0_1.then(d1_2)),
            ("d1 s1^1 = id", s1_1.then(d1_2)),
            ("d2 s1^1 = id", s1_1.then(d2_2)),
        ]
        for name, got in checks:
            if got.table != tuple(range(got.dom.size)):
                raise StructuralError(f"truncated identity fails: {name}")
        if s0_1.then(d2_2).table != d1_1.then(s0_0).table:
            raise StructuralError("truncated identity fails: d2 s0 = s0 d1")
        if s1_1.then(d0_2).table != d0_1.then(s0_0).table:
            raise StructuralError("truncated identity fails: d0 s1 = s0 d0")
        if s0_0.then(s0_1).table != s0_0.then(s1_1).table:
            raise StructuralError("truncated identity fails: s0 s0 = s1 s0")


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
    d0, d1, d2 = T.d2
    n1 = T.x1.size
    left_pairs, right_pairs = taco_pairs(T)
    cube = FinSet(n1 * n1 * n1)

    def span_from(pairs, edges, eout):
        apex = FinSet(len(pairs))
        left = FinMap(apex, cube, tuple(
            encode_tuple(edges(a, b), (n1, n1, n1)) for a, b in pairs
        ))
        right = FinMap(apex, T.x1, tuple(eout(a, b) for a, b in pairs))
        return Span(cube, T.x1, apex, left, right)

    left_span = span_from(
        left_pairs,
        lambda a, b: (d2.table[a], d0.table[a], d0.table[b]),
        lambda a, b: d1.table[b],
    )
    right_span = span_from(
        right_pairs,
        lambda a, b: (d2.table[a], d2.table[b], d0.table[b]),
        lambda a, b: d1.table[a],
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
    the associator, producing components for (q0 q1 q3),(q1 q2 q3)."""
    q0, q1, q2, q3 = quad
    comps = dict(zip(triangles, element))
    pair = (comps.pop((q0, q1, q2)), comps.pop((q0, q2, q3)))
    za, zb = assoc[pair]
    comps[(q0, q1, q3)] = za
    comps[(q1, q2, q3)] = zb
    new_triangles = tuple(sorted(comps))
    return new_triangles, tuple(comps[t] for t in new_triangles)


def pentagon_flip_discrepancy(T: TwoTruncatedData, assoc: dict) -> dict:
    """Walk both sides of the pentagon cycle and compose one against the
    other: the result maps the fan-triangulation stack to itself and is the
    identity exactly when the pentagon equation holds."""
    start = _fan_stack(T)

    def walk(flips, element):
        triangles = PENTAGON_TRIANGULATIONS["a"]
        for _, _, quad in flips:
            triangles, element = _flip(triangles, quad, assoc, element)
        return element

    lhs = {e: walk(PENTAGON_LHS_FLIPS, e) for e in start}
    rhs = {e: walk(PENTAGON_RHS_FLIPS, e) for e in start}
    rhs_back = {v: k for k, v in rhs.items()}
    return {e: rhs_back[lhs[e]] for e in start}


def _walk_steps(flips) -> tuple:
    """One side of the pentagon cycle as index steps on fan elements: step
    (i, j, src) looks up the taco pair of components i and j and builds the
    next element from `src`, indices into the old components followed by
    the pair's two images.  The same bookkeeping as `_flip`, done once."""
    triangles = PENTAGON_TRIANGULATIONS["a"]
    steps = []
    for _, _, (q0, q1, q2, q3) in flips:
        pos = {t: i for i, t in enumerate(triangles)}
        i, j = pos.pop((q0, q1, q2)), pos.pop((q0, q2, q3))
        pos[(q0, q1, q3)] = len(triangles)
        pos[(q1, q2, q3)] = len(triangles) + 1
        triangles = tuple(sorted(pos))
        steps.append((i, j, tuple(pos[t] for t in triangles)))
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
        components = element + image
        element = tuple(components[s] for s in src)
    return element, None


def _settle(starts, assoc, fiber_of):
    """Walk both sides from each start element.  None when some element's
    walks both end and differ; otherwise the elements still undecided, keyed
    by the open fiber that must be assigned before they can be."""
    waiting: dict[int, list] = {}
    for e in starts:
        lhs, lhs_missing = _walk(_LHS_STEPS, assoc, e)
        rhs, rhs_missing = _walk(_RHS_STEPS, assoc, e)
        if lhs_missing is None and rhs_missing is None:
            if lhs != rhs:
                return None
        else:
            fiber = max(fiber_of[p] for p in (lhs_missing, rhs_missing) if p is not None)
            waiting.setdefault(fiber, []).append(e)
    return waiting


@dataclass
class LiftSearchResult:
    status: str  # "lift exists" | "no lift" | "budget exceeded"
    witness: Optional[dict] = None
    candidates_tried: int = 0
    candidates_total: int = 0
    detail: str = ""
    nodes: int = 0  # fiber bijections assigned by the search


def search_associator_lift(T: TwoTruncatedData, budget: int = 1_000_000) -> LiftSearchResult:
    """Search the span isomorphisms between the taco spaces for one whose
    pentagon cycle closes, and return the lexicographically first.

    Candidates are ordered by fiber key, then by bijection per fiber in
    lexicographic order.  The search is depth first: singleton fibers are
    fixed up front, and each node assigns the next fiber one bijection.
    After each node the start elements of the fan stack that were waiting
    on that fiber are walked along both sides of the pentagon cycle.  A
    walk that ends never changes as the associator grows, so when both
    walks end and differ no candidate below the node closes the pentagon:
    the node is pruned and all its candidates count as tried.
    `candidates_tried` and the witness are therefore those of trying every
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
    fiber_of = {p: i for i, k in enumerate(open_keys) for p in left[k]}
    sizes = [math.factorial(len(left[k])) for k in open_keys]
    total = math.prod(sizes)

    waiting = _settle(_fan_stack(T), assoc, fiber_of)
    if waiting is None:
        return LiftSearchResult("no lift", candidates_tried=total, candidates_total=total)
    tried = nodes = 0
    found = not open_keys
    # one frame per assigned fiber: its bijections still to try, and the
    # start elements waiting before it was assigned
    stack = [(itertools.permutations(right[open_keys[0]]), waiting)] if open_keys else []
    while stack:
        i = len(stack) - 1
        perms, waiting = stack[-1]
        perm = next(perms, None)
        if perm is None:
            stack.pop()
            for p in left[open_keys[i]]:
                del assoc[p]
            continue
        if nodes == budget:
            return LiftSearchResult("budget exceeded", candidates_tried=tried, candidates_total=total,
                                    nodes=nodes, detail=f"search stopped at its budget of {budget} nodes")
        nodes += 1
        assoc.update(zip(left[open_keys[i]], perm))
        settled = _settle(waiting.get(i, ()), assoc, fiber_of)
        if settled is None:
            tried += math.prod(sizes[i + 1:])
            continue
        if i + 1 == len(open_keys):
            found = True
            break
        child = {j: starts for j, starts in waiting.items() if j > i}
        for j, starts in settled.items():
            child[j] = child.get(j, []) + starts
        stack.append((itertools.permutations(right[open_keys[i + 1]]), child))
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

    def assoc_fn(asn):
        pair = (asn[0][0], asn[1][0])
        za, zb = assoc[pair]
        return ((d2_2.table[za], zb), (za,))

    a_rule = make_rule("associator", assoc_src_rows(mub, idb), assoc_tgt_rows(mub, idb), assoc_fn)

    lev = evaluate(lunit_src_rows(etab, mub, idb))
    linv = {((T.d1[1].table[x], x), (T.s1[0].table[x],)): x for x in T.x1}
    if set(linv) != set(lev.assignments):
        raise ConstructionError("left unitality square is not a pullback")
    lunit = SpanCell(lev.span, identity_span(T.x1), FinMap(
        lev.span.apex, T.x1, tuple(linv[a] for a in lev.assignments)
    ))
    rev = evaluate(runit_src_rows(etab, mub, idb))
    rinv = {((x, T.d1[0].table[x]), (T.s1[1].table[x],)): x for x in T.x1}
    if set(rinv) != set(rev.assignments):
        raise ConstructionError("right unitality square is not a pullback")
    runit = SpanCell(rev.span, identity_span(T.x1), FinMap(
        rev.span.apex, T.x1, tuple(rinv[a] for a in rev.assignments)
    ))
    return PseudomonoidData(T.x1, eta, mu, a_rule.cell, lunit, runit)


def canonical_segal_associator(X: TruncSimplicialSet) -> dict:
    """The 2-Segal associator of X as a taco-pair map."""
    w13 = segal_witness(X, T13)
    w02 = segal_witness(X, T02)
    if w13.inverse is None or w02.inverse is None:
        raise ConstructionError("square triangulation maps are not bijective")
    out = {}
    for pair in w13.stack.elements:
        psi = w13.inverse.table[w13.stack.index[pair]]
        out[pair] = w02.stack.elements[w02.forward.table[psi]]
    return out


# ---------------------------------------------------------------------------
# n-fold multiplication


def n_fold_multiplication(X: TruncSimplicialSet, n: int) -> Span:
    """The span (X_1)^n <- X_n -> X_1 with edge legs (e_1..e_n) and e_out."""
    if not 1 <= n <= X.N:
        raise StructuralError("level outside the truncation")
    x1 = X.levels[1]
    xn = X.levels[n]
    sizes = tuple([x1.size] * n)
    edge_tables = [edge_map(X, n, i).table for i in range(1, n + 1)]
    left = FinMap(xn, FinSet(x1.size**n), tuple(
        encode_tuple(tuple(t[e] for t in edge_tables), sizes) for e in xn
    ))
    right = edge_map(X, n, "out")
    return Span(left.cod, x1, xn, left, right)


def triangulation_composite_span(X: TruncSimplicialSet, T: Triangulation) -> tuple[Span, SpanCell]:
    """The iterated pullback span for T together with the cell from the
    n-fold multiplication span into it (invertible iff X is 2-Segal at T)."""
    w = segal_witness(X, T)
    n = T.n
    x1 = X.levels[1]
    stack = w.stack
    apex = FinSet(len(stack.elements))
    sizes = tuple([x1.size] * n)
    left = FinMap(apex, FinSet(x1.size**n), tuple(
        encode_tuple(tuple(stack.edge_value(e, (i - 1, i)) for i in range(1, n + 1)), sizes)
        for e in stack.elements
    ))
    right = FinMap(apex, x1, tuple(stack.edge_value(e, (0, n)) for e in stack.elements))
    span = Span(left.cod, x1, apex, left, right)
    cell = SpanCell(n_fold_multiplication(X, n), span, w.forward)
    return span, cell

"""Pointed finite cardinals, Gamma-structures, and commutativity.

Morphisms of pointed cardinals <n> -> <m> are arbitrary basepoint-fixing
maps, encoded with 0 for the basepoint.  They factor through a permutation
followed by a monotone map, giving a generator decomposition into swaps,
degeneracies, and faces; a Gamma-set is then a simplicial set with
compatible symmetric-group actions generated by adjacent transpositions.

The interstice functor sends a monotone map of linear orders to the
pointed map on gaps; pulling a Gamma-set back along it recovers the
underlying simplicial structure.

On a 2-Segal base, the transposition at level 2 is a 2-cell from the
multiplication to its braided composite; the symmetry and hexagon
equations for it are verified both in reduced form and as genuine
span-level rewrite paths, and conversely such a 2-cell rebuilds the whole
tower of transpositions triangle by triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence

from .diagrams import (
    Box,
    ClosedFormRule,
    DiagramPath,
    EvaluatedDiagram,
    RewriteRule,
    _braid_box,
    braiding_rule,
    compare_paths,
    equation_witness,
    evaluate,
    identity_box,
    hexagonator_rule,
    member_index,
    syllepsis_rule,
)
from .paracyclic import LambdaMor, check_on_morphisms
from .reporting import CheckResult, Report
from .simplicial import (
    Relation,
    Token,
    Triangulation,
    TruncSimplicialSet,
    _triangulation_with_triangle,
    act,
    check_2segal,
    check_relations,
    degeneracy_relations,
    face_relations,
    glued_map,
    structure_tables,
)
from .spans import (
    FinMap,
    SpanCell,
    StructuralError,
    encode_columns,
    gather,
    identity_map,
)


class NotCommutativeError(ValueError):
    """The supplied 2-cell fails the symmetry or hexagon equation."""


BASEPOINT = 0


@dataclass(frozen=True)
class PhiStarMor:
    """A pointed map <n> -> <m>; entry 0 encodes the basepoint."""

    n: int
    m: int
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.n:
            raise StructuralError("need one value per non-basepoint element")
        if any(not 0 <= v <= self.m for v in self.table):
            raise StructuralError("value out of range")

    def __call__(self, i: int) -> int:
        return BASEPOINT if i == BASEPOINT else self.table[i - 1]


def phistar_identity(n: int) -> PhiStarMor:
    return PhiStarMor(n, n, tuple(range(1, n + 1)))


def phistar_s(n: int, i: int) -> PhiStarMor:
    """The generator <n> -> <n+1> that skips i+1 (0 <= i <= n)."""
    if not 0 <= i <= n:
        raise StructuralError("degeneracy index out of range")
    return PhiStarMor(n, n + 1, tuple(k if k <= i else k + 1 for k in range(1, n + 1)))


def phistar_d(n: int, i: int) -> PhiStarMor:
    """The generator <n> -> <n-1>: collapses i and i+1 for i > 0, and
    collapses 1 to the basepoint for i = 0 (0 <= i <= n-1)."""
    if not 0 <= i <= n - 1:
        raise StructuralError("face index out of range")
    if i == 0:
        return PhiStarMor(n, n - 1, tuple([0] + [k - 1 for k in range(2, n + 1)]))
    return PhiStarMor(n, n - 1, tuple(k if k <= i else k - 1 for k in range(1, n + 1)))


def phistar_d_top(n: int) -> PhiStarMor:
    """The derived final face <n> -> <n-1>: collapses n to the basepoint."""
    return PhiStarMor(n, n - 1, tuple(list(range(1, n)) + [0]))


def phistar_theta(n: int, i: int) -> PhiStarMor:
    """The adjacent transposition swapping i and i+1 (1 <= i <= n-1)."""
    if not 1 <= i <= n - 1:
        raise StructuralError("transposition index out of range")
    table = list(range(1, n + 1))
    table[i - 1], table[i] = table[i], table[i - 1]
    return PhiStarMor(n, n, tuple(table))


def phistar_compose(f: PhiStarMor, g: PhiStarMor) -> PhiStarMor:
    """The composite g∘f of f: <n> -> <m> then g: <m> -> <k>."""
    if f.m != g.n:
        raise StructuralError("object mismatch in composition")
    return PhiStarMor(f.n, g.m, tuple(g(v) for v in f.table))


def phistar_to_phi(f: PhiStarMor) -> tuple[int, ...]:
    """The underlying unpointed map on {0..n}, basepoint folded to 0.

    This forgetful assignment is faithful and sends the generators to the
    cofaces (skipping 0), the codegeneracies, and the main transpositions
    of the category of finite cardinals.
    """
    return (0,) + tuple(f.table)


def _bubble_swaps(values: Sequence[int]) -> list[int]:
    """The slots of the adjacent swaps that bubble sorting `values` makes,
    in the order it makes them; the swap at slot k (from 1) exchanges the
    k-th and (k+1)-th entries."""
    line = list(values)
    slots = []
    changed = True
    while changed:
        changed = False
        for k in range(1, len(line)):
            if line[k - 1] > line[k]:
                line[k - 1], line[k] = line[k], line[k - 1]
                slots.append(k)
                changed = True
    return slots


def phistar_factorize(f: PhiStarMor) -> tuple[Token, ...]:
    """A generator word for f, in application order (first entry acts
    first).  The permutation part is produced by bubble sorting the stable
    argsort of the underlying pointed table; the monotone part peels
    degeneracies then faces."""
    p = [0] + list(f.table)  # underlying map on {0..n}, basepoint as 0
    n = f.n
    order = sorted(range(n + 1), key=lambda k: (p[k], k))
    position = [0] * (n + 1)
    for j, k in enumerate(order):
        position[k] = j
    # position[1:] is the one-line form of the permutation rho'; each
    # swap at slot k is the transposition theta_k
    word: list[Token] = [("theta", n, k) for k in _bubble_swaps(position[1:])]
    h = [p[k] for k in order]  # monotone with h[0] = 0

    def monotone_word(values: list[int], target: int) -> list[Token]:
        a = len(values) - 1
        present = set(values)
        dups = [j for j in range(a) if values[j] == values[j + 1]]
        if dups:
            j = dups[0]
            rest = values[:j] + values[j + 1 :]
            return [("d", a, j)] + monotone_word(rest, target)
        missing = [v for v in range(target + 1) if v not in present]
        if missing:
            i = missing[0]
            rest = [v - 1 if v > i else v for v in values]
            return monotone_word(rest, target - 1) + [("s", target - 1, i - 1)]
        return []

    return tuple(word + monotone_word(h, f.m))


# ("d", n, n) is the derived final face
_PHISTAR_GENERATORS = {
    "s": phistar_s,
    "theta": phistar_theta,
    "d": lambda n, i: phistar_d_top(n) if i == n else phistar_d(n, i),
}


def phistar_recompose(n: int, word: Sequence[Token]) -> PhiStarMor:
    """The pointed map from <n> whose action is `word`."""
    out = phistar_identity(n)
    for kind, m, i in word:
        out = phistar_compose(out, _PHISTAR_GENERATORS[kind](m, i))
    return out


def check_phistar_relations(n_max: int = 6) -> Report:
    """The generator relations of the pointed-cardinal category up to
    n_max, on its morphisms: the simplicial identities, with the derived
    final face as d_n, and the relations of a Gamma structure."""
    relations = chain(face_relations(n_max), degeneracy_relations(n_max + 1), gamma_relations(n_max))
    return check_on_morphisms(relations, phistar_recompose)


# ---------------------------------------------------------------------------
# the interstice functor


def cut(f: LambdaMor) -> PhiStarMor:
    """The pointed map <m> -> <n> induced on interstices by a monotone
    f: [n] -> [m]."""
    if not f.in_delta():
        raise StructuralError("interstice functor needs a simplex-category morphism")
    n, m = f.m, f.n  # f: [n] -> [m] in simplex indexing
    table = []
    for i in range(1, m + 1):
        if f.values[0] >= i or f.values[-1] < i:
            table.append(BASEPOINT)
        else:
            table.append(min(k for k in range(n + 1) if f.values[k] >= i))
    return PhiStarMor(m, n, tuple(table))


# ---------------------------------------------------------------------------
# Gamma structures


@dataclass(frozen=True)
class GammaData:
    """A truncated simplicial set with adjacent-transposition actions
    theta_i^n: X_n -> X_n for 1 <= i <= n-1."""

    base: TruncSimplicialSet
    theta_tables: tuple[tuple[FinMap, ...], ...]

    def __post_init__(self):
        if len(self.theta_tables) != self.base.N + 1:
            raise StructuralError("theta tables must be indexed by level")
        for n, row in enumerate(self.theta_tables):
            expected = max(0, n - 1)
            if len(row) != expected:
                raise StructuralError(f"need {expected} transpositions at level {n}")
            for t in row:
                if t.dom != self.base.levels[n] or t.cod != self.base.levels[n]:
                    raise StructuralError(f"theta at level {n} has wrong boundaries")

    def theta(self, n: int, i: int) -> FinMap:
        if not 1 <= i <= n - 1:
            raise StructuralError("transposition index out of range")
        return self.theta_tables[n][i - 1]


def gamma_tables(G: GammaData) -> dict[Token, tuple[int, ...]]:
    """The token tables of G: faces, degeneracies and transpositions."""
    tables = structure_tables(G.base)
    tables.update({("theta", n, i): t.table for n, row in enumerate(G.theta_tables) for i, t in enumerate(row, 1)})
    return tables


def evaluate_gamma(G: GammaData, f: PhiStarMor) -> FinMap:
    """The action X(f): X_n -> X_m via the generator word of f."""
    X = G.base
    if f.n > X.N or f.m > X.N:
        raise StructuralError("level outside the truncation")
    return FinMap(X.levels[f.n], X.levels[f.m], act(gamma_tables(G), phistar_factorize(f), X.levels[f.n].size))


def gamma_relations(N: int) -> Iterator[Relation]:
    """The Moore, mixed and final-face relations within truncation N."""
    yield ("d_0^1 = d_1^1 (pointed collapse)",), 1, (("d", 1, 0),), (("d", 1, 1),)
    for n in range(2, N + 1):
        yield from ((("theta_{}^2 = id at level {}", i, n), n, (("theta", n, i), ("theta", n, i)), ())
                    for i in range(1, n))
        yield from ((("braid theta_{} theta_{} at level {}", i, i + 1, n), n,
                     (("theta", n, i), ("theta", n, i + 1), ("theta", n, i)),
                     (("theta", n, i + 1), ("theta", n, i), ("theta", n, i + 1))) for i in range(1, n - 1))
        yield from ((("theta_{} theta_{} commute at level {}", i, j, n), n,
                     (("theta", n, i), ("theta", n, j)), (("theta", n, j), ("theta", n, i)))
                    for i in range(1, n) for j in range(i + 2, n))
    # mixed with degeneracies: theta_i s_j (level 1 gives the swap of the
    # two degeneracies of an edge)
    for n in range(1, N):
        for i in range(1, n + 1):
            for j in range(n + 1):
                if i < j:
                    rhs = (("theta", n, i), ("s", n, j))
                elif i == j:
                    rhs = (("s", n, i - 1),)
                elif i == j + 1:
                    rhs = (("s", n, i),)
                else:
                    rhs = (("theta", n, i - 1), ("s", n, j))
                yield ("theta_{} s_{} at level {}", i, j, n), n, (("s", n, j), ("theta", n + 1, i)), rhs
    # mixed with faces: theta_i d_j for the generator faces j <= n-1
    for n in range(3, N + 1):
        for i in range(1, n - 1):
            for j in range(n):
                if i < j - 1:
                    rhs = (("theta", n, i), ("d", n, j))
                elif i == j - 1:
                    rhs = (("theta", n, i), ("theta", n, i + 1), ("d", n, i))
                elif i == j:
                    rhs = (("theta", n, i + 1), ("theta", n, i), ("d", n, i + 1))
                else:
                    rhs = (("theta", n, i + 1), ("d", n, j))
                yield ("theta_{} d_{} at level {}", i, j, n), n, (("d", n, j), ("theta", n - 1, i)), rhs
    # absorption d_i theta_i = d_i, and the final face from the transpositions
    yield from ((("d_{} theta_{} = d_{} at level {}", i, i, i, n), n, (("theta", n, i), ("d", n, i)), (("d", n, i),))
                for n in range(2, N + 1) for i in range(1, n))
    yield from ((("final face identity at level {}", n), n,
                 tuple(("theta", n, i) for i in range(n - 1, 0, -1)) + (("d", n, 0),), (("d", n, n),))
                for n in range(2, N + 1))


def check_gamma(G: GammaData) -> Report:
    """The Moore, mixed, and final-face relations within the truncation."""
    return check_relations(gamma_relations(G.base.N), gamma_tables(G), G.base.levels)


def permutation_action(G: GammaData, n: int, perm: tuple[int, ...]) -> FinMap:
    """The action of an arbitrary permutation of {1..n} on X_n, generated
    on demand from adjacent transpositions: each swap of the bubble sort
    acts before the ones found earlier."""
    word = [("theta", n, k) for k in reversed(_bubble_swaps(perm))]
    level = G.base.levels[n]
    return FinMap(level, level, act(gamma_tables(G), word, level.size))


# ---------------------------------------------------------------------------
# commutativity cells


@dataclass(frozen=True)
class CommutativityCell:
    """An invertible 2-cell from the multiplication to its braided form,
    carried by a level-2 involution."""

    gamma: SpanCell
    theta: FinMap


def _mu_box(X: TruncSimplicialSet) -> Box:
    from .pseudomonoid import mult_box, mult_span

    return mult_box(mult_span(X), X.levels[1])


def _braided_mult_rows(X: TruncSimplicialSet, mub: Box):
    return ((_braid_box((X.levels[1],), (X.levels[1],)),), (mub,))


def braided_mult(X: TruncSimplicialSet) -> EvaluatedDiagram:
    """The evaluated braided composite mu∘rho.  The functions below take it
    as `braided`, so that one evaluation serves a whole conversion."""
    return evaluate(_braided_mult_rows(X, _mu_box(X)))


def _commutor_images(X: TruncSimplicialSet, theta: FinMap, m) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The image of each level-2 element in the column `m` under mu =>
    mu∘rho, as the braided composite's two box columns: the braid element
    (d_2(m), d_0(m)) in X_1 x X_1 and theta(m)."""
    size = X.levels[1].size
    braid = encode_columns((gather(X.d(2, 2).table, m), gather(X.d(2, 0).table, m)), (size, size), len(m))
    return braid, gather(theta.table, m)


def gamma_rule(X: TruncSimplicialSet, theta: FinMap, mub: Box,
               braided: Optional[EvaluatedDiagram] = None) -> RewriteRule:
    """The rewrite rule mu => mu∘rho carried by a level-2 involution.  Its
    images depend on theta, so its cell is built here: an involution that
    is not compatible with the span legs is refused at once."""
    idb = identity_box(X.levels[1])
    rule = ClosedFormRule("commutor", ((idb, idb), (mub,)), _braided_mult_rows(X, mub),
                          carry=lambda columns, count: _commutor_images(X, theta, columns[2]),
                          tgt_ev=braided)
    rule.cell
    return rule


def gamma_cell(X: TruncSimplicialSet, theta: FinMap, braided: Optional[EvaluatedDiagram] = None) -> SpanCell:
    """The public form of the cell: multiplication span => braided composite."""
    ev = braided_mult(X) if braided is None else braided
    index = member_index(ev)
    table = []
    for m, image in enumerate(zip(*_commutor_images(X, theta, range(X.levels[2].size)))):
        if image not in index:
            raise StructuralError(
                f"candidate involution is not compatible with the span legs at {m}"
            )
        table.append(index[image])
    mub = ev.diagram[-1][0]
    return SpanCell(mub.span, ev.span, FinMap(X.levels[2], ev.span.apex, tuple(table)))


def theta_from_gamma_cell(X: TruncSimplicialSet, gamma: SpanCell,
                          braided: Optional[EvaluatedDiagram] = None) -> FinMap:
    ev = braided_mult(X) if braided is None else braided
    if gamma.target != ev.span:
        raise StructuralError("cell target is not the braided multiplication")
    mu_column = ev.columns[1][0]
    table = tuple(mu_column[gamma.map.table[m]] for m in X.levels[2])
    return FinMap(X.levels[2], X.levels[2], table)


def crossing_map(X: TruncSimplicialSet, theta: FinMap) -> FinMap:
    """The auxiliary level-3 map c with d_1 c = theta d_2 and d_3 c = d_0."""
    return glued_map(X, 3, 3, {(0, 1, 2): ((1, 2, 3), None), (0, 2, 3): ((0, 1, 3), theta)})


def theta_via_triangulation(
    X: TruncSimplicialSet, theta: FinMap, n: int, i: int,
    T: Optional[Triangulation] = None,
) -> FinMap:
    """theta_i^n: decompose along a triangulation containing the triangle
    (i-1, i, i+1), apply theta to that component, and glue back."""
    if n == 2:
        return theta
    tri = (i - 1, i, i + 1)
    if T is None:
        T = _triangulation_with_triangle(n, tri)
    if tri not in T.triangles:
        raise StructuralError("triangulation misses the required triangle")
    return glued_map(X, n, n, {t: (t, theta if t == tri else None) for t in T.triangles})


def span_level_commutativity(X: TruncSimplicialSet, theta: FinMap,
                             braided: Optional[EvaluatedDiagram] = None) -> Report:
    """The symmetry and hexagon equations as genuine span-level rewrite
    paths, using the braiding, syllepsis, slide, and hexagonator cells."""
    from .pseudomonoid import build_pseudomonoid

    report = Report()
    x1 = X.levels[1]
    P = build_pseudomonoid(X)
    mub, _, idb = P.boxes()
    a_rule = P.assoc_rule
    g_rule = gamma_rule(X, theta, mub, braided)
    v_inv = syllepsis_rule(x1, x1).inverse()

    start = ((mub,),)
    lhs = (
        DiagramPath(start)
        .insert_identity_row(0)
        .rewrite(g_rule, 0, (0, 0))
        .insert_identity_row(1)
        .rewrite(g_rule, 1, (0, 0))
    )
    rhs = (
        DiagramPath(start)
        .insert_identity_row(0)
        .insert_identity_row(0)
        .rewrite(v_inv, 0, (0, 0))
    )
    report.add(CheckResult("span-level symmetry equation", equation_witness(*compare_paths(lhs, rhs))))

    slide = braiding_rule(idb, mub)
    hexr = hexagonator_rule(x1, x1, x1)
    start = ((mub, idb), (mub,))
    lhs = (
        DiagramPath(start)
        .rewrite(a_rule, 0, (0, 0))
        .insert_identity_row(1)
        .rewrite(g_rule, 1, (0, 0))
        .rewrite(slide, 0, (0, 0))
        .rewrite(a_rule, 1, (0, 0))
    )
    rhs = (
        DiagramPath(start)
        .insert_identity_row(0)
        .rewrite(g_rule, 0, (0, 0))
        .rewrite(a_rule, 1, (0, 0))
        .insert_identity_row(1)
        .rewrite(g_rule, 1, (1, 1))
        .rewrite(hexr, 0, (0, 0))
        .delete_identity_row(1)
    )
    report.add(CheckResult("span-level hexagon equation", equation_witness(*compare_paths(lhs, rhs))))
    return report


def reduced_commutativity(X: TruncSimplicialSet, G: GammaData) -> Report:
    """The reduced symmetry and hexagon checks: theta is an involution and
    the crossing map equals theta_2 theta_1 at level 3."""
    report = Report()
    theta = G.theta(2, 1)
    report.equal("reduced symmetry: theta involution", theta.then(theta), identity_map(X.levels[2]))
    if X.N >= 3:
        c = crossing_map(X, theta)
        report.equal("reduced hexagon: crossing = theta_2 theta_1",
                     c, G.theta(3, 1).then(G.theta(3, 2)))
        report.equal("hexagon component at d_1",
                     G.theta(3, 1).then(G.theta(3, 2)).then(X.d(3, 1)),
                     X.d(3, 2).then(theta))
        report.equal("hexagon component at d_3",
                     G.theta(3, 1).then(G.theta(3, 2)).then(X.d(3, 3)),
                     X.d(3, 0))
    return report


def commutative_from_gamma(G: GammaData, full_span_level: bool = False) -> tuple[CommutativityCell, Report]:
    """The commutativity cell of a Gamma structure, with the reduced checks
    (and optionally the full span-level equations)."""
    X = G.base
    check_2segal(X).require(NotCommutativeError, "base is not 2-Segal: ")
    span_cell = ((("d{} theta = d{}", i, 2 - i), 2, (("theta", 2, 1), ("d", 2, i)), (("d", 2, 2 - i),))
                 for i in range(3))
    check_relations(span_cell, gamma_tables(G), X.levels).require(
        NotCommutativeError, "transposition is not a span cell: ")
    theta = G.theta(2, 1)
    report = reduced_commutativity(X, G)
    braided = braided_mult(X)
    if full_span_level:
        report.extend(span_level_commutativity(X, theta, braided))
    return CommutativityCell(gamma_cell(X, theta, braided), theta), report


def gamma_from_commutative(X: TruncSimplicialSet, gamma: SpanCell,
                           braided: Optional[EvaluatedDiagram] = None) -> GammaData:
    """Rebuild all transposition actions from a commutativity cell.

    The cell must be invertible and satisfy the span-level symmetry and
    hexagon equations (checked first); the higher transpositions are then
    constructed triangle by triangle and the full relation set is verified.
    `braided` is `braided_mult(X)`, evaluated here when not given.
    """
    check_2segal(X).require(NotCommutativeError, "base is not 2-Segal: ")
    if not gamma.map.is_bijective():
        raise NotCommutativeError("cell is not invertible")
    if braided is None:
        braided = braided_mult(X)
    theta = theta_from_gamma_cell(X, gamma, braided)
    span_report = span_level_commutativity(X, theta, braided)
    if not span_report.ok:
        failure = span_report.failures[0]
        raise NotCommutativeError(f"{failure.name}, diagnostic {failure.witness}")
    tables: list[tuple[FinMap, ...]] = [(), (), (theta,)]
    for n in range(3, X.N + 1):
        tables.append(tuple(
            theta_via_triangulation(X, theta, n, i) for i in range(1, n)
        ))
    G = GammaData(X, tuple(tables[: X.N + 1]))
    check_gamma(G).require(NotCommutativeError, "derived structure fails: ")
    return G

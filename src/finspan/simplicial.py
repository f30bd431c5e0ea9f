"""Truncated simplicial sets, polygon combinatorics, and 2-Segal checkers.

Simplices are modeled as polygons: an n-simplex is an (n+1)-gon with
vertices 0..n in clockwise order.  A triangulation or subdivision of the
polygon induces a map from X_n to an iterated pullback of lower levels,
and the 2-Segal property asks these maps to be bijections.  The face and
degeneracy recipes of the polygon calculus (delete a triangle, attach a
degenerate triangle) are implemented here and checked against the stored
tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property, wraps
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .reporting import CheckResult, Report
from .spans import (
    FinMap,
    FinSet,
    StructuralError,
    encode_columns,
    first_difference,
    gather,
    identity_map,
    iterated_pullback,
    pullback_square_witness,
)


class GluingError(ValueError):
    """Raised when polygon components do not share matching edges."""


@dataclass(frozen=True)
class TruncSimplicialSet:
    """Levels X_0..X_N with face maps d_i^n and degeneracies s_i^n.

    `face[n]` holds (d_0^n, ..., d_n^n) for 1 <= n <= N (face[0] is empty);
    `degen[n]` holds (s_0^n, ..., s_n^n) for 0 <= n < N (degen[N] is empty).

    `memo` holds data derived from the tables (vertex maps, the component
    tables gluing reads, the face identities and the 2-Segal and unitality
    verdicts), and no stack.  It is left out of `==` and `hash`, so two
    equal structures never share an entry, and it dies with its structure.
    """

    N: int
    levels: tuple[FinSet, ...]
    face: tuple[tuple[FinMap, ...], ...]
    degen: tuple[tuple[FinMap, ...], ...]
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 2 or len(self.levels) != self.N + 1:
            raise StructuralError("need levels X_0..X_N with N >= 2")
        if len(self.face) != self.N + 1 or len(self.degen) != self.N + 1:
            raise StructuralError("face/degen tuples must be indexed by level")
        if self.face[0] != () or self.degen[self.N] != ():
            raise StructuralError("face[0] and degen[N] must be empty")
        for n in range(1, self.N + 1):
            if len(self.face[n]) != n + 1:
                raise StructuralError(f"need n+1 face maps at level {n}")
            for i, d in enumerate(self.face[n]):
                if d.dom != self.levels[n] or d.cod != self.levels[n - 1]:
                    raise StructuralError(f"face d_{i}^{n} has wrong boundaries")
        for n in range(self.N):
            if len(self.degen[n]) != n + 1:
                raise StructuralError(f"need n+1 degeneracy maps at level {n}")
            for i, s in enumerate(self.degen[n]):
                if s.dom != self.levels[n] or s.cod != self.levels[n + 1]:
                    raise StructuralError(f"degeneracy s_{i}^{n} has wrong boundaries")

    def d(self, n: int, i: int) -> FinMap:
        return self.face[n][i]

    def s(self, n: int, i: int) -> FinMap:
        return self.degen[n][i]


def make_simplicial(levels, face, degen) -> TruncSimplicialSet:
    """Assemble a TruncSimplicialSet from levels plus per-level map lists."""
    N = len(levels) - 1
    return TruncSimplicialSet(
        N,
        tuple(levels),
        tuple(tuple(fs) for fs in face),
        tuple(tuple(ss) for ss in degen),
    )


# A token (kind, n, i) names a structure map acting on X_n: ("d", n, i) is
# d_i^n, ("s", n, i) is s_i^n with ("s", n, n+1) the extra degeneracy,
# ("t", n, 0) is tau^n and ("theta", n, i) is theta_i^n.  A relation
# (name, n, lhs, rhs) says that two words of tokens, read in application
# order on X_n, act alike; the empty word is the identity.  Its name is a
# `str.format` template followed by its fields, formatted only when read.
# The relation lists are generators, so a check holds one relation at a
# time: a structure check on a fresh structure then allocates about as
# little as the composites it compares.
Token = tuple[str, int, int]
Relation = tuple[tuple, int, tuple[Token, ...], tuple[Token, ...]]


def relation_name(relation: Relation) -> str:
    """The report-line name of a relation."""
    template, *fields = relation[0]
    return template.format(*fields)


def face_relations(N: int) -> Iterator[Relation]:
    """d_i d_j = d_{j-1} d_i for i < j, on X_n for 2 <= n <= N."""
    return ((("simplicial identity d_{} d_{} = d_{} d_{} at level {}", i, j, j - 1, i, n), n,
             (("d", n, j), ("d", n - 1, i)), (("d", n, i), ("d", n - 1, j - 1)))
            for n in range(2, N + 1) for j in range(n + 1) for i in range(j))


def degeneracy_relations(N: int) -> Iterator[Relation]:
    """s_i s_j = s_{j+1} s_i for i <= j on X_n with n <= N-2, then the mixed
    identities d_i s_j on X_n with n < N."""
    yield from ((("simplicial identity s_{} s_{} = s_{} s_{} at level {}", i, j, j + 1, i, n), n,
                 (("s", n, j), ("s", n + 1, i)), (("s", n, i), ("s", n + 1, j + 1)))
                for n in range(N - 1) for j in range(n + 1) for i in range(j + 1))
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                if i < j:
                    rhs = (("d", n, i), ("s", n - 1, j - 1))
                elif i in (j, j + 1):
                    rhs = ()
                else:
                    rhs = (("d", n, i - 1), ("s", n - 1, j))
                if n >= 1 or not rhs:
                    yield (("simplicial identity d_{} s_{} mixed identity at level {}", i, j, n), n,
                           (("s", n, j), ("d", n + 1, i)), rhs)


def structure_tables(X: TruncSimplicialSet) -> dict[Token, tuple[int, ...]]:
    """The table of every face and degeneracy token of X."""
    tables = {("d", n, i): d.table for n, row in enumerate(X.face) for i, d in enumerate(row)}
    tables.update({("s", n, i): s.table for n, row in enumerate(X.degen) for i, s in enumerate(row)})
    return tables


def act(tables: dict[Token, tuple[int, ...]], word: Sequence[Token], size: int) -> tuple[int, ...]:
    """The table of `word` on a level of `size` elements: its tokens act in
    order, each through `tables[token]`, and the empty word is the identity."""
    out = None
    for token in word:
        out = tables[token] if out is None else gather(tables[token], out)
    return tuple(range(size)) if out is None else out


def relation_witnesses(relations: Iterable[Relation], tables: dict[Token, tuple[int, ...]],
                       levels: Sequence[FinSet]) -> Iterator[tuple[Relation, Optional[int]]]:
    """Each relation (name, n, lhs, rhs) with the first element of X_n on
    which its two words act differently, or None when they agree."""
    for relation in relations:
        _, n, lhs, rhs = relation
        yield relation, first_difference(act(tables, lhs, levels[n].size), act(tables, rhs, levels[n].size))


def check_relations(relations: Iterable[Relation], tables: dict[Token, tuple[int, ...]],
                    levels: Sequence[FinSet]) -> Report:
    """One line per relation, named by it and witnessed on failure by the
    first element where its words differ."""
    return Report([CheckResult(relation_name(r), w) for r, w in relation_witnesses(relations, tables, levels)])


def _failures(relations: Iterable[Relation], X: TruncSimplicialSet) -> list[CheckResult]:
    """A failing line for each relation that X breaks; the passing ones are
    never named."""
    return [CheckResult(relation_name(r), w)
            for r, w in relation_witnesses(relations, structure_tables(X), X.levels) if w is not None]


def _face_violations(X: TruncSimplicialSet) -> list[CheckResult]:
    """The failing face identities, memoised in `X.memo`.  Vertex maps
    compose exactly when this list is empty."""
    if "face identities" not in X.memo:
        X.memo["face identities"] = _failures(face_relations(X.N), X)
    return X.memo["face identities"]


def check_simplicial_identities(X: TruncSimplicialSet) -> Report:
    """Verify every simplicial identity within the truncation; failures name
    the identity, the indices, and a witnessing element."""
    report = Report(_face_violations(X) + _failures(degeneracy_relations(X.N), X))
    if report.ok:
        report.add(CheckResult("simplicial identities"))
    return report


# ---------------------------------------------------------------------------
# polygon combinatorics


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of the (n+1)-gon on vertices 0..n: a subdivision
    whose cells are all triangles."""

    n: int
    triangles: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if any(len(t) != 3 for t in self.triangles):
            raise StructuralError("cells of a triangulation must be triangles")
        Subdivision(self.n, self.triangles)

    @property
    def diagonals(self) -> tuple[tuple[int, int], ...]:
        return diagonals(self.n, self.triangles)


@dataclass(frozen=True)
class Subdivision:
    """A subdivision of the (n+1)-gon into cells with at least 3 vertices,
    cut out by pairwise noncrossing diagonals."""

    n: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_polygon(self.n)
        if any(len(c) < 3 for c in self.cells):
            raise StructuralError("cells must be polygons")
        if list(self.cells) != sorted(tuple(sorted(c)) for c in self.cells):
            raise StructuralError("cells must be sorted tuples in sorted order")
        edge_count: dict[tuple[int, int], int] = {}
        for c in self.cells:
            if not all(0 <= v <= self.n for v in c):
                raise StructuralError("cell vertex out of range")
            for e in _sides(c):
                edge_count[e] = edge_count.get(e, 0) + 1
        boundary = set(boundary_edges(self.n))
        for e in boundary:
            if edge_count.get(e, 0) != 1:
                raise StructuralError(f"boundary edge {e} not covered exactly once")
        inner = [e for e in edge_count if e not in boundary]
        for e in inner:
            if edge_count[e] != 2:
                raise StructuralError(f"diagonal {e} not shared by two cells")
        for (a, b) in inner:
            for (c, d) in inner:
                if a < c < b < d:
                    raise StructuralError(f"diagonals {(a, b)} and {(c, d)} cross")


def _check_polygon(n: int) -> None:
    """Refuse a polygon 0..n with fewer than 3 vertices."""
    if n < 2:
        raise StructuralError("polygon needs at least 3 vertices")


def boundary_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(n)) + ((0, n),)


def _sides(c: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The sides of the sorted cell `c`, each as a sorted pair."""
    return (*zip(c, c[1:]), (c[0], c[-1]))


def diagonals(n: int, cells: Iterable[tuple[int, ...]]) -> tuple[tuple[int, int], ...]:
    """The diagonals of the subdivision `cells` of the polygon 0..n, sorted.
    A diagonal (a, b) is the side (c[0], c[-1]) of exactly one cell c, the
    one with all its vertices in a..b; the top cell's is the edge (0, n)."""
    return tuple(sorted((c[0], c[-1]) for c in cells if c[-1] - c[0] < n))


# the two triangulations of the square, named by the faces d_i of a
# 3-simplex they consist of: diagonal 02 (d_1, d_3) and diagonal 13 (d_0, d_2)
T13 = Triangulation(3, ((0, 1, 2), (0, 2, 3)))
T02 = Triangulation(3, ((0, 1, 3), (1, 2, 3)))


def fan_triangulation(vertices: Sequence[int], anchor: int = 0) -> tuple[tuple[int, int, int], ...]:
    """Fan of a polygon given by `vertices` (cyclic order) from vertices[anchor]."""
    vs = list(vertices)
    a = vs[anchor]
    rest = vs[anchor + 1 :] + vs[:anchor]
    return tuple(tuple(sorted((a, rest[i], rest[i + 1]))) for i in range(len(rest) - 1))


def _subdivisions_of(vertices: tuple[int, ...], triangles: bool):
    """Every subdivision of the polygon on the consecutive `vertices`, as a
    tuple of cells whose first is the top cell, the one holding the edge
    from the first vertex to the last; only triangulations when
    `triangles`.  Top cells run by size, then lexicographically, and each
    gap between consecutive top-cell vertices is subdivided on its own, the
    leftmost gap varying slowest."""
    if len(vertices) == 2:
        yield ()
        return
    v0, vk = vertices[0], vertices[-1]
    interior = vertices[1:-1]
    for size in range(1, 2 if triangles else len(interior) + 1):
        for subset in itertools.combinations(interior, size):
            cell = (v0,) + subset + (vk,)
            parts = [()]
            for a, b in zip(cell, cell[1:]):
                gap = tuple(_subdivisions_of(vertices[a - v0 : b - v0 + 1], triangles))
                parts = [done + more for done in parts for more in gap]
            for part in parts:
                yield (cell,) + part


def _polygon_cells(n: int, triangles: bool) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The sorted cells of every subdivision of the polygon 0..n, or of
    every triangulation when `triangles`, in enumeration order."""
    _check_polygon(n)
    return (tuple(sorted(cells)) for cells in _subdivisions_of(tuple(range(n + 1)), triangles))


def enumerate_triangulations(n: int) -> tuple[Triangulation, ...]:
    """All triangulations of the (n+1)-gon, Catalan(n-1) of them, in a
    deterministic order."""
    return tuple(Triangulation(n, cells) for cells in _polygon_cells(n, True))


def enumerate_subdivisions(n: int) -> tuple[Subdivision, ...]:
    """All polygon subdivisions of the (n+1)-gon (little Schroeder count)."""
    return tuple(Subdivision(n, cells) for cells in _polygon_cells(n, False))


# ---------------------------------------------------------------------------
# induced maps and iterated pullbacks


def vertex_map(X: TruncSimplicialSet, n: int, keep: Sequence[int]) -> FinMap:
    """The map X_n -> X_{k} induced by the monotone inclusion of `keep`,
    memoised in `X.memo`."""
    key = (n, tuple(keep))
    if key not in X.memo:
        dropped = [v for v in range(n + 1) if v not in key[1]]
        if not dropped:
            X.memo[key] = identity_map(X.levels[n])
        else:
            # d_v for the highest dropped vertex v, then the vertex map of
            # X_{n-1} keeping the rest: one composition, the same table as
            # composing the faces one at a time
            v = dropped[-1]
            face = X.d(n, v)
            X.memo[key] = face if len(dropped) == 1 else face.then(
                vertex_map(X, n - 1, tuple(u - (u > v) for u in key[1])))
    return X.memo[key]


def edge_map(X: TruncSimplicialSet, n: int, kind) -> FinMap:
    """e_i^n picks the edge from i-1 to i; kind="out" picks the edge 0..n."""
    if kind == "out":
        return vertex_map(X, n, (0, n))
    i = int(kind)
    if not 1 <= i <= n:
        raise StructuralError("interior edge index out of range")
    return vertex_map(X, n, (i - 1, i))


@dataclass(frozen=True)
class PolygonStack:
    """The iterated pullback attached to a polygon subdivision: one component
    per cell, matching along shared diagonals.  Cells are kept in sorted
    order and elements in lexicographic order, left-nested."""

    cells: tuple[tuple[int, ...], ...]
    elements: tuple[tuple[int, ...], ...]

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {e: i for i, e in enumerate(self.elements)}


def polygon_stack(X: TruncSimplicialSet, cells: tuple[tuple[int, ...], ...]) -> PolygonStack:
    """The iterated pullback for `cells`.  Nothing is memoised."""
    # two cells can share only a side, so a cell is keyed by its sides
    factors = []
    for c in cells:
        sides = _sides(range(len(c)))
        columns = [vertex_map(X, len(c) - 1, side).table for side in sides]
        factors.append((tuple((c[i], c[j]) for i, j in sides), tuple(zip(*columns))))
    return PolygonStack(cells, iterated_pullback(factors))


@dataclass(frozen=True)
class SegalWitness:
    """A triangulation map together with its inverse when bijective."""

    stack: PolygonStack
    forward: FinMap
    inverse: Optional[FinMap]


def subdivision_map(X: TruncSimplicialSet, n: int, cells: tuple[tuple[int, ...], ...]) -> tuple[PolygonStack, FinMap]:
    stack = polygon_stack(X, cells)
    table = tuple(map(stack.index.get, zip(*(vertex_map(X, n, c).table for c in cells))))
    if None in table:
        raise GluingError(
            f"components of element {table.index(None)} at level {n} violate the shared-edge "
            "constraints; the simplicial identities do not hold"
        )
    return stack, FinMap(X.levels[n], FinSet(len(stack.elements)), table)


def segal_witness(X: TruncSimplicialSet, T: Triangulation) -> SegalWitness:
    """The triangulation map for T with its inverse.  Nothing is memoised."""
    stack, fwd = subdivision_map(X, T.n, T.triangles)
    return SegalWitness(stack, fwd, fwd.inverse() if fwd.is_bijective() else None)


def _one_verdict(check):
    """Decide `check` once per structure: its results are memoised in
    `X.memo` under the check's name, and each call returns a fresh `Report`
    of them, so that adding to it never changes the memo."""

    @wraps(check)
    def memoised(X: TruncSimplicialSet) -> Report:
        if check.__name__ not in X.memo:
            X.memo[check.__name__] = check(X).results
        return Report(list(X.memo[check.__name__]))

    return memoised


@_one_verdict
def check_2segal(X: TruncSimplicialSet) -> Report:
    """Decide bijectivity of every triangulation map for 3 <= n <= N."""
    report = _segal_maps(X, ((f"2-Segal map at n={n}, diagonals {diagonals(n, cells)}", n, cells)
                             for n in range(3, X.N + 1) for cells in _polygon_cells(n, True)))
    if X.N < 3:
        report.add(CheckResult.skip("2-Segal maps", "truncation below 3"))
    return report


def check_subdivision_criterion(X: TruncSimplicialSet) -> Report:
    """Bijectivity of the map for every polygon subdivision up to level N."""
    return _segal_maps(X, ((f"subdivision map at n={n}, cells {cells}", n, cells)
                           for n in range(3, X.N + 1) for cells in _polygon_cells(n, False)))


def _segal_maps(X: TruncSimplicialSet, maps: Iterable[tuple[str, int, tuple[tuple[int, ...], ...]]]) -> Report:
    """One line per `(name, n, cells)`, passing when the map from X_n to the
    stack of the subdivision `cells` of the polygon 0..n is bijective: the
    one decision of `check_2segal`, `check_subdivision_criterion` and gluing.

    When the face identities hold, a map passes when it is a composite of
    bijections (`_composed_verdicts`).  Every other map is decided by its
    stack (`subdivision_map`), which also gives its witness, and the stack
    is dropped with the line.  When the face identities fail, vertex maps
    need not compose, and `subdivision_map` raises `GluingError` on a
    simplex whose components do not glue.
    """
    report = Report()
    composed = None if _face_violations(X) else _composed_verdicts(X)
    for name, n, cells in maps:
        if composed is not None and composed(cells):
            report.add(CheckResult(name))
        else:
            report.add(CheckResult(name, _bijectivity_witness(subdivision_map(X, n, cells)[1])))
    return report


def _composed_verdicts(X: TruncSimplicialSet) -> Callable[[tuple[tuple[int, ...], ...]], bool]:
    """`composed(cells)`: whether the map of the subdivision `cells` of a
    polygon is a composite of bijections, which makes it a bijection.  The
    face identities must hold.

    The subdivision's map is its top cell's coarse map followed by each
    side polygon's own map, which keeps the side's outer edge, and so on
    down: every cell c is the top cell of the side polygon c[0]..c[-1].  So
    the map is a composite of bijections when the coarse map of each cell,
    shifted down to start at 0, is bijective (`_coarse_bijective`).  Each
    verdict is memoised for the life of `composed`; a cell on consecutive
    vertices has no side polygon, and its coarse map is the identity.
    """
    coarse: dict[tuple[int, ...], bool] = {}

    def coarse_passes(top: tuple[int, ...]) -> bool:
        if top not in coarse:
            coarse[top] = len(top) == top[-1] + 1 or _coarse_bijective(X, top)
        return coarse[top]

    return lambda cells: all(coarse_passes(tuple(v - c[0] for v in c)) for c in cells)


def _coarse_bijective(X: TruncSimplicialSet, top: tuple[int, ...]) -> bool:
    """Whether the coarse map of the cell `top` of the polygon 0..n, with
    n = top[-1], is bijective.  `top`, on k + 1 vertices, holds the edge
    (0, n), and each of its sides (a, b) with b - a >= 2 bounds a side
    polygon a..b; the coarse map X_n -> X_k x_{X_1} prod X_{b-a} sends a
    simplex to its top-cell simplex and its side-polygon simplices.

    A simplex psi is coded row-major by its top-cell simplex t[psi] and its
    side simplices v_j[psi], for the vertex maps v_j onto the side
    polygons, so the map is injective exactly when the codes are distinct.
    The stack has, over each t in X_k, the product over those sides of the
    number of simplices of X_{b-a} whose outer edge is t's side, so the map
    is bijective exactly when that sum is |X_n| as well.  Both are exact only
    when the face identities hold, since psi's components are read through
    vertex maps.
    """
    n, k = top[-1], len(top) - 1
    columns, sizes = [vertex_map(X, n, top).table], [X.levels[k].size]
    weights = [1] * X.levels[k].size
    for j, (a, b) in enumerate(zip(top, top[1:])):
        if b - a < 2:
            continue
        columns.append(vertex_map(X, n, range(a, b + 1)).table)
        sizes.append(X.levels[b - a].size)
        outer = [0] * X.levels[1].size
        for e in vertex_map(X, b - a, (0, b - a)).table:
            outer[e] += 1
        weights = [w * outer[e] for w, e in zip(weights, vertex_map(X, k, (j, j + 1)).table)]
    size = X.levels[n].size
    return sum(weights) == size and len(set(encode_columns(columns, sizes, size))) == size


def _bijectivity_witness(f: FinMap):
    seen: dict[int, int] = {}
    for e in f.dom:
        v = f.table[e]
        if v in seen:
            return ("not injective", seen[v], e)
        seen[v] = e
    for v in f.cod:
        if v not in seen:
            return ("not surjective", v)
    return None


@_one_verdict
def check_unitality(X: TruncSimplicialSet) -> Report:
    """The three unitality squares, each checked as a pullback against s_0."""
    report = Report()
    squares = [
        # (d0, s1) against s0: X_1 = X_2 x_{d0,s0} X_0
        ("unitality square d0/s1", X.s(1, 1), X.d(1, 0), X.d(2, 0)),
        # (d1, s0) against s0: X_1 = X_2 x_{d2,s0} X_0
        ("unitality square d1/s0", X.s(1, 0), X.d(1, 1), X.d(2, 2)),
    ]
    if X.N >= 3:
        # d_{02} keeps vertex 1 of a 2-simplex; d_{03} keeps the edge 1..2
        squares.append(("higher unitality square d02/s1", X.s(2, 1),
                        vertex_map(X, 2, (1,)), vertex_map(X, 3, (1, 2))))
    for name, into_first, into_second, against_s0 in squares:
        report.add(CheckResult(name, pullback_square_witness(into_first, into_second, against_s0, X.s(0, 0))))
    if X.N < 3:
        report.add(CheckResult.skip("higher unitality square d02/s1", "truncation below 3"))
    return report


# ---------------------------------------------------------------------------
# gluing: the graphical calculus for faces and degeneracies


def unglue(X: TruncSimplicialSet, T: Triangulation, psi: int) -> tuple[int, ...]:
    """Decompose a simplex into its triangle components along T."""
    return tuple(vertex_map(X, T.n, t).table[psi] for t in T.triangles)


def glue_columns(X: TruncSimplicialSet, T: Triangulation, columns: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The unique simplices with the given triangulated decompositions, as
    a batch: `columns` holds one column of components per triangle of T,
    in `T.triangles` order, and member k has the components
    `columns[j][k]`.  A column count other than T's triangle count and
    columns of unequal lengths are refused.  An empty batch glues nothing
    and raises nothing; an error names the first member that fails.  The
    first glue along T decides T's map by `_segal_maps` and memoises None
    if it is not bijective, else T's component table, from each simplex's
    `unglue` tuple to the simplex."""
    if len(columns) != len(T.triangles):
        raise GluingError(f"{len(columns)} component columns for {len(T.triangles)} triangles")
    if len(set(lengths := [len(c) for c in columns])) > 1:
        raise GluingError(f"component columns of unequal lengths {lengths}")
    keys = list(zip(*columns))
    if not keys:
        return ()
    if T not in X.memo:
        bijective = _segal_maps(X, [("triangulation map", T.n, T.triangles)]).ok
        components = zip(*(vertex_map(X, T.n, t).table for t in T.triangles))
        X.memo[T] = dict(zip(components, X.levels[T.n])) if bijective else None
    if (table := X.memo[T]) is None:
        raise GluingError("triangulation map is not bijective; cannot glue")
    try:
        return gather(table, keys)
    except KeyError:
        key = next(k for k in keys if k not in table)
        raise GluingError(f"incompatible parts {key} for diagonals {T.diagonals}") from None


def glue(X: TruncSimplicialSet, T: Triangulation, parts: Sequence[int]) -> int:
    """The unique simplex with the given triangulated decomposition."""
    return glue_columns(X, T, [(p,) for p in parts])[0]


def glued_map(X: TruncSimplicialSet, n: int, m: int, parts: dict) -> FinMap:
    """The map X_n -> X_m gluing each simplex's components along the
    triangulation of 0..m formed by the keys of `parts`, the one recipe of
    the polygon calculus.  `parts[t] = (cell, f)` makes the component on
    the triangle t the simplex's face on the vertices `cell` of 0..n, sent
    through `f` unless `f` is None."""
    T = Triangulation(m, tuple(sorted(parts)))
    columns = []
    for t in T.triangles:
        cell, f = parts[t]
        column = vertex_map(X, n, cell).table
        columns.append(column if f is None else gather(f.table, column))
    return FinMap(X.levels[n], X.levels[m], glue_columns(X, T, columns))


def _triangle_at_vertex(n: int, i: int) -> tuple[int, int, int]:
    if i == 0:
        return (0, 1, n)
    if i == n:
        return (0, n - 1, n)
    return (i - 1, i, i + 1)


def _triangulation_with_triangle(n: int, tri: tuple[int, int, int]) -> Triangulation:
    """A deterministic triangulation of the (n+1)-gon containing `tri`: each
    remaining region is fanned from its minimal vertex (vertex 0 whenever
    the region contains it)."""
    tris = [tri]
    # regions between consecutive corners of the triangle, walking the cycle
    corners = sorted(tri)
    loops = [
        list(range(corners[0], corners[1] + 1)),
        list(range(corners[1], corners[2] + 1)),
        list(range(corners[2], n + 1)) + list(range(0, corners[0] + 1)),
    ]
    for region in loops:
        uniq = []
        for v in region:
            if v not in uniq:
                uniq.append(v)
        if len(uniq) >= 3:
            tris.extend(fan_triangulation(uniq, anchor=uniq.index(min(uniq))))
    return Triangulation(n, tuple(sorted(set(tuple(sorted(t)) for t in tris))))


@cache
def _face_recipe(n: int, i: int) -> dict:
    """The parts of d_i^n for `glued_map`: cut the (n+1)-gon along a
    triangulation holding the triangle at vertex i, delete that triangle,
    and move the vertices after i down by one.  They depend only on
    (n, i)."""
    tri = _triangle_at_vertex(n, i)
    T = _triangulation_with_triangle(n, tri)
    return {tuple(v - (v > i) for v in t): (t, None) for t in T.triangles if t != tri}


def face_via_polygon(X: TruncSimplicialSet, n: int, i: int) -> FinMap:
    """d_i^n by the polygon recipe: decompose along a triangulation
    containing the triangle at vertex i, delete that component, relabel,
    and glue."""
    if n < 3:
        return X.d(n, i)
    return glued_map(X, n, n - 1, _face_recipe(n, i))


def degen_via_polygon(X: TruncSimplicialSet, n: int, i: int) -> FinMap:
    """s_i^n by the polygon recipe: attach the degenerate triangle
    s_0 e_{i+1} (s_1 e_n when i = n) to the fan of the (n+1)-gon, so that
    the resulting (n+2)-gon has degenerate edge e_{i+1}."""
    if n < 2:
        return X.s(n, i)
    j = min(i, n - 1)
    parts = {tuple(v + (v > j) for v in t): (t, None) for t in fan_triangulation(range(n + 1))}
    parts[(j, j + 1, j + 2)] = ((j, j + 1), X.s(1, i - j))
    return glued_map(X, n, n + 1, parts)

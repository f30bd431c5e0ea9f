"""The acceptance suite: every exit criterion as a reportable check.

Each criterion function returns a Report whose results all carry concrete
witnesses on failure; run_all executes the whole suite with one seed and
prints one line per criterion.  The same functions back the test suite
and the command-line `acceptance` command.
"""

from __future__ import annotations

import itertools
import random
import time

from . import catalog
from .catalog import (
    building,
    chain_poset_category,
    commutative_monoid_gamma,
    cyclic_group_category,
    graph_partition_gamma,
    identity_endofunctor,
    interval_cyclic,
    interval_monoid,
    nerve,
    no_lift_canonical_associator,
    no_lift_family,
    pair_groupoid,
    partial_monoid_nerve,
    path_graph,
    twisted_cyclic_paracyclic,
)
from .gammaset import (
    GammaData,
    check_gamma,
    check_phistar_relations,
    commutative_from_gamma,
    cut,
    gamma_from_commutative,
    phistar_compose,
    phistar_d,
    phistar_s,
)
from .paracyclic import (
    LambdaMor,
    ParacyclicData,
    check_cyclic,
    check_lambda_relations,
    check_paracyclic,
    evaluate,
    frobenius_from_paracyclic,
    lambda_compose,
    lambda_delta,
    lambda_factorize,
    lambda_recompose,
    lambda_sigma,
    paracyclic_from_frobenius,
)
from .pseudomonoid import (
    build_pseudomonoid,
    pentagon_flip_discrepancy,
    pseudomonoid_from_two_truncated,
    search_associator_lift,
    verify_pentagon,
    verify_triangle,
)
from .reporting import CheckResult, Report
from .simplicial import (
    check_2segal,
    check_simplicial_identities,
    check_unitality,
    enumerate_triangulations,
    glue,
    make_simplicial,
    unglue,
)
from .spans import FinMap, FinSet, Span, first_difference, spans_isomorphic


def segal_fixtures() -> dict:
    return {
        "nerve of Z2": nerve(cyclic_group_category(2), 4),
        "nerve of Z3": nerve(cyclic_group_category(3), 4),
        "nerve of the 3-chain poset": nerve(chain_poset_category(3), 4),
        "building of the 3-chain": building(3, 4),
        "interval partial monoid L=3": partial_monoid_nerve(interval_monoid(3), 4),
    }


def paracyclic_fixtures() -> dict:
    G2 = cyclic_group_category(2)
    return {
        "groupoid Z2": catalog.groupoid_cyclic(cyclic_group_category(2), 4),
        "pair groupoid on 2 objects": catalog.groupoid_cyclic(pair_groupoid(2), 4),
        "pair groupoid with swap bisection": catalog.swap_bisection_cyclic(4),
        "interval L=2": interval_cyclic(2, 4),
        "interval L=3": interval_cyclic(3, 4),
        "twisted cyclic nerve of Z2, identity twist": twisted_cyclic_paracyclic(
            G2, identity_endofunctor(G2), 4
        ),
    }


def gamma_fixtures() -> dict:
    return {
        "interval L=3": commutative_monoid_gamma(interval_monoid(3), 4),
        "graph partitions of the path P3": graph_partition_gamma(path_graph(3), 4),
    }


def _first_failure(rep: Report, name: str) -> CheckResult:
    """The first failing line of `rep`, or one passing line `name` for all
    of it."""
    failures = rep.failures
    return failures[0] if failures else CheckResult(name)


def _time_budget(name: str, t0: float, limit: float) -> CheckResult:
    """The time since `t0` against `limit` seconds, witnessed on failure by
    the elapsed seconds."""
    elapsed = time.perf_counter() - t0
    return CheckResult(name, elapsed if elapsed >= limit else None, detail=f"{elapsed:.1f}s")


def criterion_1_two_segal_suite() -> Report:
    report = Report()
    t0 = time.perf_counter()
    for name, X in segal_fixtures().items():
        ids = check_simplicial_identities(X)
        seg = check_2segal(X)
        uni = check_unitality(X)
        for label, rep in (("identities", ids), ("2-Segal", seg), ("unitality", uni)):
            report.add(_first_failure(rep, f"{name}: {label}"))
    return report.add(_time_budget("2-Segal suite under 60 s", t0, 60))


def criterion_2_pentagon_triangle() -> Report:
    report = Report()
    for name, X in segal_fixtures().items():
        P = build_pseudomonoid(X)
        report.add(CheckResult(f"{name}: pentagon", verify_pentagon(P).witness))
        report.add(CheckResult(f"{name}: triangle", verify_triangle(P).witness))
    return report


def criterion_3_no_lift() -> Report:
    report = Report()
    t0 = time.perf_counter()
    expected = {0: "lift exists", 1: "lift exists", 2: "no lift", 3: "no lift"}
    for a, want in expected.items():
        res = search_associator_lift(no_lift_family(a))
        report.add(CheckResult(
            f"lift search |A|={a}", None if res.status == want else res.status,
            detail=f"{res.candidates_tried}/{res.candidates_total} candidates",
        ))
    T = no_lift_family(2)
    disc = pentagon_flip_discrepancy(T, no_lift_canonical_associator(T))
    moved = {k: v for k, v in disc.items() if k != v}
    a0, a1 = 3, 4  # the two label elements of X_2
    middle = 2     # the (0,1) element
    want = {
        (a0, middle, a1): (a1, middle, a0),
        (a1, middle, a0): (a0, middle, a1),
    }
    report.add(CheckResult("canonical-associator pentagon discrepancy is the label swap",
                           None if moved == want else moved))
    return report.add(_time_budget("no-lift suite under 5 min", t0, 300))


def criterion_4_frobenius_roundtrip() -> Report:
    report = Report()
    for name, P in paracyclic_fixtures().items():
        rep = check_paracyclic(P)
        if not rep.ok:
            report.add(rep.failures[0])
            continue
        C = frobenius_from_paracyclic(P)
        P2 = paracyclic_from_frobenius(P.base, C.counit)
        report.add(CheckResult(f"{name}: counit then paracyclic reproduces tau", next(
            ((n, a.table, b.table) for n, (a, b) in enumerate(zip(P.tau, P2.tau)) if a.table != b.table),
            None,
        )))
        C2 = frobenius_from_paracyclic(P2)
        report.add(CheckResult(f"{name}: paracyclic then counit reproduces s_1^0",
                               None if C2.s1_0.table == C.s1_0.table else (C.s1_0.table, C2.s1_0.table)))
    return report


def criterion_5_cyclicity() -> Report:
    report = Report()
    expectations = {
        "groupoid Z2": (catalog.groupoid_cyclic(cyclic_group_category(2), 4), "cyclic"),
        "interval L=3": (interval_cyclic(3, 4), "cyclic"),
        "twisted cyclic nerve, inversion on Z3": (
            twisted_cyclic_paracyclic(cyclic_group_category(3), catalog.inversion_twist(3), 4),
            "paracyclic-only",
        ),
    }
    for name, (P, want) in expectations.items():
        res = check_cyclic(P)
        report.add(CheckResult(f"{name}: verdict {want}", None if res.verdict == want else res.verdict))
    for name, P in paracyclic_fixtures().items():
        report.add(CheckResult(f"{name}: two-condition criterion agrees with all levels",
                               check_cyclic(P).disagreement))
    return report


def criterion_6_gamma_roundtrip() -> Report:
    report = Report()
    for name, G in gamma_fixtures().items():
        rep = check_gamma(G)
        if not rep.ok:
            report.add(rep.failures[0])
            continue
        report.add(CheckResult(f"{name}: transposition relations"))
        cell, crep = commutative_from_gamma(G, full_span_level=True)
        report.add(_first_failure(crep, f"{name}: reduced and span-level symmetry/hexagon"))
        G2 = gamma_from_commutative(G.base, cell.gamma)
        report.add(CheckResult(f"{name}: rebuilt transpositions equal the originals", next(
            ((n, i, e) for n, (ra, rb) in enumerate(zip(G.theta_tables, G2.theta_tables))
             for i, (a, b) in enumerate(zip(ra, rb))
             if (e := first_difference(a.table, b.table)) is not None),
            None,
        )))
    return report


def _random_lambda(rng: random.Random, m: int, n: int) -> LambdaMor:
    v0 = rng.randrange(-3 * (n + 1), 3 * (n + 1))
    vals = sorted(rng.randint(v0, v0 + n + 1) for _ in range(m + 1))
    return LambdaMor(m, n, tuple(vals))


def criterion_7_morphism_calculi(seed: int = 0) -> Report:
    report = Report()
    rng = random.Random(seed)

    bad = None
    for m in range(7):
        for n in range(7):
            for _ in range(200):
                f = _random_lambda(rng, m, n)
                g, a = lambda_factorize(f)
                if lambda_recompose(g, a) != f:
                    bad = f
    report.add(CheckResult("200 random factorizations per size class recompose", bad))

    P = interval_cyclic(2, 4)
    bad = None
    for _ in range(200):
        m, n, k = (rng.randrange(0, 5) for _ in range(3))
        f = _random_lambda(rng, m, n)
        g = _random_lambda(rng, n, k)
        if evaluate(P, lambda_compose(f, g)).table != evaluate(P, g).then(evaluate(P, f)).table:
            bad = (f, g)
    report.add(CheckResult("200 random composable pairs evaluate functorially", bad))
    report.add(CheckResult("paracyclic generator relations up to level 6",
                           next((r.name for r in check_lambda_relations(6).failures), None)))
    report.add(CheckResult("pointed-cardinal generator relations up to level 6",
                           next((r.name for r in check_phistar_relations(6).failures), None)))

    def random_monotone(m, n):
        return LambdaMor(m, n, tuple(sorted(rng.randrange(0, n + 1) for _ in range(m + 1))))

    bad = None
    for _ in range(200):
        m, n, k = (rng.randrange(0, 6) for _ in range(3))
        f = random_monotone(m, n)
        g = random_monotone(n, k)
        if cut(lambda_compose(f, g)) != phistar_compose(cut(g), cut(f)):
            bad = (f, g)
    report.add(CheckResult("interstice functor is functorial on 200 random pairs", bad))
    generators = itertools.chain(
        ((lambda_delta(n, i), phistar_d(n, i)) for n in range(1, 7) for i in range(n)),
        ((lambda_sigma(n, i), phistar_s(n, i)) for n in range(6) for i in range(n + 1)),
    )
    report.add(CheckResult("interstices of cofaces and codegeneracies are the generators",
                           next((f for f, g in generators if cut(f) != g), None)))
    return report


def criterion_8_oracles(seed: int = 0) -> Report:
    report = Report()
    rng = random.Random(seed)

    def rand_span(ns, nt, na):
        src, tgt, apex = FinSet(ns), FinSet(nt), FinSet(na)
        return Span(
            src, tgt, apex,
            FinMap(apex, src, tuple(rng.randrange(ns) for _ in range(na))),
            FinMap(apex, tgt, tuple(rng.randrange(nt) for _ in range(na))),
        )

    def brute_force_iso(f, g):
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

    bad = None
    for _ in range(500):
        ns, nt = rng.randrange(1, 4), rng.randrange(1, 4)
        f = rand_span(ns, nt, rng.randrange(0, 7))
        g = rand_span(ns, nt, rng.randrange(0, 7))
        cell = spans_isomorphic(f, g)
        if (cell is not None) != brute_force_iso(f, g):
            bad = (f, g)
        if cell is not None and not cell.is_invertible():
            bad = (f, g)
    report.add(CheckResult("span isomorphism agrees with brute force on 500 spans", bad))

    for name, X in segal_fixtures().items():
        bad = None
        for n in (3, 4):
            for T in enumerate_triangulations(n):
                for psi in X.levels[n]:
                    if glue(X, T, unglue(X, T, psi)) != psi:
                        bad = (n, T.diagonals, psi)
        report.add(CheckResult(f"{name}: glue/unglue is the identity on X_3 and X_4", bad))
    return report


def _mutate_map(m: FinMap, index: int, value: int) -> FinMap:
    table = list(m.table)
    table[index] = value
    return FinMap(m.dom, m.cod, tuple(table))


def _swap_entries(m: FinMap, i: int, j: int) -> FinMap:
    table = list(m.table)
    table[i], table[j] = table[j], table[i]
    return FinMap(m.dom, m.cod, tuple(table))


def criterion_9_mutation_sensitivity() -> Report:
    """Each checker on a mutated input, as (line, the checker's report,
    whether the line names the first failure) read by `_detected`."""
    X = nerve(cyclic_group_category(2), 4)
    face = [list(fs) for fs in X.face]
    face[2][1] = _mutate_map(face[2][1], 0, (face[2][1].table[0] + 1) % X.levels[1].size)
    degen = [list(ss) for ss in X.degen]
    degen[1][1] = _mutate_map(degen[1][1], 0, (degen[1][1].table[0] + 1) % X.levels[2].size)

    P = interval_cyclic(2, 4)
    tau = list(P.tau)
    tau[2] = _swap_entries(tau[2], 0, 1)

    G = commutative_monoid_gamma(interval_monoid(3), 4)
    tables = [list(row) for row in G.theta_tables]
    tables[3][0] = _swap_entries(tables[3][0], 0, 1)

    T = no_lift_family(2)
    canon = no_lift_canonical_associator(T)
    mutated = dict(canon)
    d0, d1, d2 = T.face[2]
    fiber = [p for p in canon if (d2.table[p[0]], d0.table[p[0]], d0.table[p[1]]) == (1, 0, 1)]
    mutated[fiber[0]], mutated[fiber[1]] = canon[fiber[1]], canon[fiber[0]]

    def equation(result) -> Report:
        """An equation's verdict as a report of one line."""
        return Report([CheckResult("equation", result.witness)])

    table = (
        ("simplicial checker detects a corrupted d_1^2 entry",
         check_simplicial_identities(make_simplicial(X.levels, face, X.degen)), True),
        ("2-Segal checker detects the doubled-simplex fixture", check_2segal(catalog_non_two_segal()), False),
        ("unitality checker detects a corrupted s_1^1 entry",
         check_unitality(make_simplicial(X.levels, X.face, degen)), False),
        ("paracyclic checker detects a mutated tau^2",
         check_paracyclic(ParacyclicData(P.base, tuple(tau))), True),
        ("transposition checker detects a mutated theta_1^3",
         check_gamma(GammaData(G.base, tuple(tuple(r) for r in tables))), True),
        ("pentagon checker rejects the canonical associator on the doubled family",
         equation(verify_pentagon(pseudomonoid_from_two_truncated(T, canon))), False),
        ("triangle checker detects a unit-fiber associator swap",
         equation(verify_triangle(pseudomonoid_from_two_truncated(T, mutated))), False),
    )
    return Report([_detected(*row) for row in table])


def _detected(name: str, rep: Report, named: bool) -> CheckResult:
    """The line `name` for a checker's report `rep` on a mutated input: it
    passes when `rep` fails, and its detail names `rep`'s first failing
    line when `named`."""
    failures = rep.failures
    return CheckResult(name, None if failures else "mutation passed silently",
                       detail=failures[0].name if named and failures else "")


def catalog_non_two_segal():
    """A simplicially valid fixture that fails the 2-Segal condition: the
    nerve of Z2 truncated at 3 with one 3-simplex doubled."""
    X = nerve(cyclic_group_category(2), 3)
    n3 = X.levels[3].size
    levels = list(X.levels[:3]) + [FinSet(n3 + 1)]
    face = [list(fs) for fs in X.face]
    face[3] = [
        FinMap(levels[3], levels[2], f.table + (f.table[0],)) for f in X.face[3]
    ]
    degen = [list(ss) for ss in X.degen]
    degen[2] = [FinMap(levels[2], levels[3], s.table) for s in X.degen[2]]
    return make_simplicial(levels, face, degen)


CRITERIA = (
    ("1 two-Segal suite", criterion_1_two_segal_suite),
    ("2 pentagon and triangle", criterion_2_pentagon_triangle),
    ("3 no-lift reproduction", criterion_3_no_lift),
    ("4 Frobenius/paracyclic round trip", criterion_4_frobenius_roundtrip),
    ("5 cyclicity detection", criterion_5_cyclicity),
    ("6 Gamma/commutative round trip", criterion_6_gamma_roundtrip),
    ("7 morphism calculi", criterion_7_morphism_calculi),
    ("8 oracle equivalence", criterion_8_oracles),
    ("9 mutation sensitivity", criterion_9_mutation_sensitivity),
)


def run_all(seed: int = 0, verbose: bool = False) -> tuple[Report, list[str]]:
    total = Report()
    lines = []
    for name, fn in CRITERIA:
        t0 = time.perf_counter()
        rep = fn(seed) if fn in (criterion_7_morphism_calculi, criterion_8_oracles) else fn()
        elapsed = time.perf_counter() - t0
        status = "pass" if rep.ok else "FAIL"
        lines.append(f"[{status}] criterion {name} ({elapsed:.1f}s, {len(rep.results)} checks)")
        if verbose or not rep.ok:
            lines.extend("    " + l for l in rep.lines())
        total.extend(rep)
    return total, lines

"""Command-line interface: check documents, derive structures, search for
associator lifts, emit example fixtures, and run the acceptance suite.

Exit codes: 0 all checks passed, 1 a check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import catalog
from .acceptance import run_all
from .documents import (
    DocumentError,
    StructureDocument,
    dumps_document,
    load_document,
)
from .gammaset import (
    NotCommutativeError,
    check_gamma,
    commutative_from_gamma,
    gamma_cell,
    gamma_from_commutative,
    span_level_commutativity,
)
from .paracyclic import (
    NotFrobeniusError,
    check_cyclic,
    check_paracyclic,
    frobenius_from_paracyclic,
    paracyclic_from_frobenius,
)
from .pseudomonoid import ConstructionError, search_associator_lift, two_truncation
from .reporting import CheckResult, Report
from .simplicial import (
    GluingError,
    check_2segal,
    check_simplicial_identities,
    check_subdivision_criterion,
    check_unitality,
)
from .spans import FinMap, StructuralError


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_check(args) -> int:
    try:
        doc = load_document(args.path)
    except (DocumentError, OSError) as exc:
        return _fail(str(exc))
    X = doc.simplicial
    report = Report()
    t0 = time.time()
    identities = check_simplicial_identities(X)
    report.extend(identities)

    explicit = args.segal2 or args.unitality or args.subdivisions or args.paracyclic or args.gamma
    run_segal = args.segal2 or not explicit
    run_unital = args.unitality or not explicit

    if not identities.ok:
        # downstream checkers presuppose a simplicial set
        report.add(CheckResult("2-Segal maps", None, detail="simplicial identities fail"))
    else:
        if run_segal:
            if X.N >= 3:
                report.extend(check_2segal(X))
            else:
                report.add(CheckResult("2-Segal maps", None, detail="truncation below 3"))
        if run_unital:
            report.extend(check_unitality(X))
        if args.subdivisions:
            report.extend(check_subdivision_criterion(X))
    if args.paracyclic or (not explicit and doc.paracyclic is not None):
        if doc.paracyclic is None:
            report.add(CheckResult("paracyclic relations", None, detail="no paracyclic block"))
        else:
            report.extend(check_paracyclic(doc.paracyclic))
            res = check_cyclic(doc.paracyclic)
            report.add(CheckResult(f"cyclicity verdict: {res.verdict}", True))
            report.add(CheckResult("cyclicity criteria agree", res.agree,
                                   witness=None if res.agree else (res.two_condition, res.all_levels)))
    if args.gamma or ((args.full_hexagon or not explicit) and doc.gamma is not None):
        if doc.gamma is None:
            report.add(CheckResult("transposition relations", None, detail="no gamma block"))
        else:
            report.extend(check_gamma(doc.gamma))
            if args.full_hexagon:
                if not identities.ok:
                    report.add(CheckResult("span-level equations", None,
                                           detail="simplicial identities fail"))
                else:
                    try:
                        report.extend(span_level_commutativity(X, doc.gamma.theta(2, 1)))
                    except (StructuralError, ConstructionError) as exc:
                        report.add(CheckResult("span-level equations", False, witness=str(exc)))
    for line in report.lines():
        print(line)
    print(f"checked in {time.time() - t0:.2f}s: "
          f"{sum(1 for r in report.results if r.passed) } passed, "
          f"{len(report.failures)} failed, "
          f"{sum(1 for r in report.results if r.passed is None)} skipped")
    return 0 if report.ok else 1


def cmd_derive(args) -> int:
    try:
        doc = load_document(args.path)
    except (DocumentError, OSError) as exc:
        return _fail(str(exc))
    X = doc.simplicial
    try:
        if args.direction == "paracyclic-to-frobenius":
            if doc.paracyclic is None:
                return _fail("document has no paracyclic block")
            C = frobenius_from_paracyclic(doc.paracyclic)
            out = StructureDocument(X, counit=C.counit)
        elif args.direction == "frobenius-to-paracyclic":
            if doc.counit is None:
                return _fail("document has no counit block")
            P = paracyclic_from_frobenius(X, doc.counit)
            out = StructureDocument(X, paracyclic=P)
        elif args.direction == "gamma-to-commutative":
            if doc.gamma is None:
                return _fail("document has no gamma block")
            cell, report = commutative_from_gamma(doc.gamma)
            if not report.ok:
                print(report, file=sys.stderr)
                return 1
            out = StructureDocument(X, commutative=cell.theta)
        elif args.direction == "commutative-to-gamma":
            if doc.commutative is None:
                return _fail("document has no commutative block")
            G = gamma_from_commutative(X, gamma_cell(X, doc.commutative))
            out = StructureDocument(X, gamma=G)
        else:
            return _fail(f"unknown direction {args.direction}")
    except NotFrobeniusError as exc:
        print(f"not Frobenius: {exc}", file=sys.stderr)
        return 1
    except NotCommutativeError as exc:
        print(f"not commutative: {exc}", file=sys.stderr)
        return 1
    except (GluingError, ConstructionError) as exc:
        print(f"cannot derive: {exc}", file=sys.stderr)
        return 1
    except StructuralError as exc:
        return _fail(str(exc))
    text = dumps_document(out)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_search_lift(args) -> int:
    if args.budget < 1:
        return _fail(f"--budget must be at least 1, got {args.budget}")
    try:
        doc = load_document(args.path)
    except (DocumentError, OSError) as exc:
        return _fail(str(exc))
    try:
        T = two_truncation(doc.simplicial)
        res = search_associator_lift(T, budget=args.budget)
    except StructuralError as exc:
        return _fail(str(exc))
    print(f"verdict: {res.status}")
    if res.candidates_total:
        print(f"candidates: {res.candidates_tried} tried of {res.candidates_total}")
    if args.verbose:
        print(f"nodes: {res.nodes}")
    if res.detail:
        print(res.detail)
    if res.status == "lift exists" and args.verbose:
        for k, v in sorted(res.witness.items()):
            print(f"  {k} -> {v}")
    return 0 if res.status == "lift exists" else 1


EXAMPLES = {
    "nerve-z2": lambda args: StructureDocument(
        catalog.nerve(catalog.cyclic_group_category(2), args.n_levels)
    ),
    "nerve-z3": lambda args: StructureDocument(
        catalog.nerve(catalog.cyclic_group_category(3), args.n_levels)
    ),
    "nerve-zk": lambda args: StructureDocument(
        catalog.nerve(catalog.cyclic_group_category(args.k), args.n_levels)
    ),
    "chain-poset": lambda args: StructureDocument(
        catalog.nerve(catalog.chain_poset_category(args.k), args.n_levels)
    ),
    "building": lambda args: StructureDocument(
        catalog.building(args.k, args.n_levels)
    ),
    "pair-groupoid": lambda args: _with_para(
        catalog.groupoid_cyclic(catalog.pair_groupoid(args.k), args.n_levels)
    ),
    "groupoid-zk": lambda args: _with_para(
        catalog.groupoid_cyclic(catalog.cyclic_group_category(args.k), args.n_levels)
    ),
    "pair-groupoid-bisection": lambda args: _with_para(_swap_bisection(args)),
    "interval": lambda args: _interval_doc(args),
    "twisted-zk-id": lambda args: _with_para(
        catalog.twisted_cyclic_paracyclic(
            catalog.cyclic_group_category(args.k),
            catalog.identity_endofunctor(catalog.cyclic_group_category(args.k)),
            args.n_levels,
        )
    ),
    "twisted-z3-inversion": lambda args: _with_para(_twisted_inversion(args)),
    "graph-path": lambda args: _with_gamma(
        catalog.graph_partition_gamma(catalog.path_graph(args.k), args.n_levels)
    ),
    "nolift": lambda args: _no_lift_doc(args),
    "point": lambda args: StructureDocument(catalog.constant_point(args.n_levels)),
}


def _with_para(P):
    return StructureDocument(P.base, paracyclic=P)


def _with_gamma(G):
    return StructureDocument(G.base, gamma=G)


def _swap_bisection(args):
    C = catalog.pair_groupoid(2)
    omega = FinMap(C.objects, C.morphisms, (1, 2))
    return catalog.groupoid_cyclic(C, args.n_levels, bisection=omega)


def _twisted_inversion(args):
    G3 = catalog.cyclic_group_category(3)
    F = catalog.Endofunctor(
        FinMap(G3.objects, G3.objects, (0,)),
        FinMap(G3.morphisms, G3.morphisms, (0, 2, 1)),
    )
    return catalog.twisted_cyclic_paracyclic(G3, F, args.n_levels)


def _interval_doc(args):
    P = catalog.interval_cyclic(args.L, args.n_levels)
    G = catalog.commutative_monoid_gamma(catalog.interval_monoid(args.L), args.n_levels)
    return StructureDocument(P.base, paracyclic=P, gamma=G)


def _no_lift_doc(args):
    T = catalog.no_lift_family(args.a_size)
    return StructureDocument(catalog.two_truncated_simplicial(T))


def cmd_example(args) -> int:
    if args.name not in EXAMPLES:
        return _fail(f"unknown example {args.name}; know {', '.join(sorted(EXAMPLES))}")
    try:
        doc = EXAMPLES[args.name](args)
    except StructuralError as exc:
        return _fail(str(exc))
    text = dumps_document(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_acceptance(args) -> int:
    report, lines = run_all(seed=args.seed, verbose=args.verbose)
    print("\n".join(lines))
    print(f"acceptance: {len(report.results)} checks, "
          f"{len(report.failures)} failures")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finspan",
        description="span-bicategory structure checks on finite simplicial data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run checkers on a structure document")
    p.add_argument("path")
    p.add_argument("--2segal", dest="segal2", action="store_true")
    p.add_argument("--unitality", action="store_true")
    p.add_argument("--subdivisions", action="store_true")
    p.add_argument("--paracyclic", action="store_true")
    p.add_argument("--gamma", action="store_true")
    p.add_argument("--full-hexagon", dest="full_hexagon", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("derive", help="derive one structure from another")
    p.add_argument("path")
    p.add_argument(
        "--direction",
        required=True,
        choices=[
            "frobenius-to-paracyclic",
            "paracyclic-to-frobenius",
            "gamma-to-commutative",
            "commutative-to-gamma",
        ],
    )
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("search-lift", help="pruned exhaustive associator lift search")
    p.add_argument("path")
    p.add_argument("--budget", type=int, default=1_000_000,
                   help="most search nodes (fiber bijections assigned) to explore")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_search_lift)

    p = sub.add_parser("example", help="emit a catalog example as a document")
    p.add_argument("name")
    p.add_argument(
        "--n-levels",
        type=int,
        default=int(os.environ.get("FINSPAN_LEVELS", "4")),
        help="truncation level (default 4, or the FINSPAN_LEVELS variable)",
    )
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--a-size", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("acceptance", help="run the full acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_acceptance)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

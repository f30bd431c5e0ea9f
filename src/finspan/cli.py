"""Command-line interface: check documents, derive structures, search for
associator lifts, emit example fixtures, and run the acceptance suite.

Exit codes: 0 all checks passed, 1 a check failed, 2 input error.
`catalog`, `pseudomonoid` (and through it `diagrams`), `paracyclic`,
`gammaset` and `acceptance` are imported where a command reads them, so
a process that never does never loads them: `check` on a document with
no paracyclic or gamma block loads none of them.
"""

from __future__ import annotations

import argparse
import sys
import time

from .documents import (
    DocumentError,
    StructureDocument,
    dumps_document,
    load_document,
)
from .reporting import CheckResult, Report
from .simplicial import (
    GluingError,
    check_2segal,
    check_simplicial_identities,
    check_subdivision_criterion,
    check_unitality,
)
from .spans import StructuralError


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(text: str, output) -> int:
    """Write a document's text to the file `output`, or to stdout when no
    file is given; a file that cannot be written is bad input."""
    if not output:
        sys.stdout.write(text)
        return 0
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(str(exc))
    return 0


def cmd_check(args) -> int:
    try:
        doc = load_document(args.path)
    except (DocumentError, OSError) as exc:
        return _fail(str(exc))
    X = doc.simplicial
    report = Report()
    t0 = time.perf_counter()
    identities = check_simplicial_identities(X)
    report.extend(identities)

    explicit = args.segal2 or args.unitality or args.subdivisions or args.paracyclic or args.gamma
    run_segal = args.segal2 or not explicit
    run_unital = args.unitality or not explicit

    if not identities.ok:
        # downstream checkers presuppose a simplicial set
        report.add(CheckResult.skip("2-Segal maps", "simplicial identities fail"))
    else:
        if run_segal:
            report.extend(check_2segal(X))
        if run_unital:
            report.extend(check_unitality(X))
        if args.subdivisions:
            report.extend(check_subdivision_criterion(X))
    if args.paracyclic or (not explicit and doc.paracyclic is not None):
        if doc.paracyclic is None:
            report.add(CheckResult.skip("paracyclic relations", "no paracyclic block"))
        else:
            from .paracyclic import check_cyclic, check_paracyclic

            report.extend(check_paracyclic(doc.paracyclic))
            res = check_cyclic(doc.paracyclic)
            report.add(CheckResult(f"cyclicity verdict: {res.verdict}"))
            report.add(CheckResult("cyclicity criteria agree", res.disagreement))
    if args.gamma or ((args.full_hexagon or not explicit) and doc.gamma is not None):
        if doc.gamma is None:
            report.add(CheckResult.skip("transposition relations", "no gamma block"))
        else:
            from .gammaset import check_gamma, span_level_commutativity

            report.extend(check_gamma(doc.gamma))
            if args.full_hexagon:
                from .pseudomonoid import ConstructionError

                if not identities.ok:
                    report.add(CheckResult.skip("span-level equations", "simplicial identities fail"))
                else:
                    try:
                        report.extend(span_level_commutativity(X, doc.gamma.theta(2, 1)))
                    except (StructuralError, ConstructionError) as exc:
                        report.add(CheckResult("span-level equations", str(exc)))
    for line in report.lines():
        print(line)
    print(f"checked in {time.perf_counter() - t0:.2f}s: "
          f"{sum(1 for r in report.results if r.passed) } passed, "
          f"{len(report.failures)} failed, "
          f"{sum(1 for r in report.results if r.passed is None)} skipped")
    return 0 if report.ok else 1


def cmd_derive(args) -> int:
    from .gammaset import (
        NotCommutativeError,
        commutative_from_gamma,
        gamma_cell,
        gamma_from_commutative,
    )
    from .paracyclic import NotFrobeniusError, frobenius_from_paracyclic, paracyclic_from_frobenius
    from .pseudomonoid import ConstructionError

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
    return _emit(dumps_document(out), args.output)


def cmd_search_lift(args) -> int:
    from .pseudomonoid import search_associator_lift, two_truncation

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


def cmd_example(args) -> int:
    from . import catalog

    if args.name not in catalog.EXAMPLES:
        return _fail(f"unknown example {args.name}; know {', '.join(sorted(catalog.EXAMPLES))}")
    try:
        doc = catalog.example(args.name, args.n_levels, args.k, args.L, args.a_size)
    except StructuralError as exc:
        return _fail(str(exc))
    return _emit(dumps_document(doc), args.output)


def cmd_acceptance(args) -> int:
    from .acceptance import run_all

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
    p.add_argument("--n-levels", type=int, default=4, help="truncation level (default 4)")
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

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


def _fail(message: str) -> int:
    """Report bad input: the message on stderr, exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


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
                elif X.N < 3:
                    report.add(CheckResult.skip("span-level equations", "truncation below 3"))
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
        braided_mult,
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
        else:  # commutative-to-gamma; the parser refuses any other direction
            if doc.commutative is None:
                return _fail("document has no commutative block")
            braided = braided_mult(X)
            G = gamma_from_commutative(X, gamma_cell(X, doc.commutative, braided), braided)
            out = StructureDocument(X, gamma=G)
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
    from .pseudomonoid import search_associator_lift

    if args.budget < 1:
        return _fail(f"--budget must be at least 1, got {args.budget}")
    try:
        doc = load_document(args.path)
    except (DocumentError, OSError) as exc:
        return _fail(str(exc))
    try:
        res = search_associator_lift(doc.simplicial, budget=args.budget)
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


def _commands() -> dict:
    """Each command's help line, function and arguments, in the order
    `finspan -h` lists them.  Built per call, so that each function is the
    module attribute of the moment, a wrapped or patched one included."""
    return {
        "check": ("run checkers on a structure document", cmd_check, [
            (("path",), {}),
            (("--2segal",), {"dest": "segal2", "action": "store_true"}),
            (("--unitality",), {"action": "store_true"}),
            (("--subdivisions",), {"action": "store_true"}),
            (("--paracyclic",), {"action": "store_true"}),
            (("--gamma",), {"action": "store_true"}),
            (("--full-hexagon",), {"action": "store_true"}),
        ]),
        "derive": ("derive one structure from another", cmd_derive, [
            (("path",), {}),
            (("--direction",), {"required": True, "choices": [
                "frobenius-to-paracyclic", "paracyclic-to-frobenius",
                "gamma-to-commutative", "commutative-to-gamma"]}),
            (("-o", "--output"), {}),
        ]),
        "search-lift": ("pruned exhaustive associator lift search", cmd_search_lift, [
            (("path",), {}),
            (("--budget",), {"type": int, "default": 1_000_000,
                             "help": "most search nodes (taco pairs assigned) to explore"}),
            (("-v", "--verbose"), {"action": "store_true"}),
        ]),
        "example": ("emit a catalog example as a document", cmd_example, [
            (("name",), {}),
            (("--n-levels",), {"type": int, "default": 4, "help": "truncation level (default 4)"}),
            (("--k",), {"type": int, "default": 2}),
            (("--L",), {"type": int, "default": 2}),
            (("--a-size",), {"type": int, "default": 1}),
            (("-o", "--output"), {}),
        ]),
        "acceptance": ("run the full acceptance suite", cmd_acceptance, [
            (("--seed",), {"type": int, "default": 0}),
            (("-v", "--verbose"), {"action": "store_true"}),
        ]),
    }


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The `finspan` parser.  When `argv` starts with a command, only that
    command's sub-parser is built, and the usage line still lists every
    command, so help, errors and exit codes read as with all of them."""
    parser = argparse.ArgumentParser(
        prog="finspan",
        description="span-bicategory structure checks on finite simplicial data",
    )
    commands = _commands()
    names = [argv[0]] if argv and argv[0] in commands else list(commands)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(commands) + "}" if len(names) == 1 else None)
    for name in names:
        summary, fn, arguments = commands[name]
        p = sub.add_parser(name, help=summary)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

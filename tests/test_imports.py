"""Every imported name in the package, the tests and the demos is used,
every module-level definition in the package is referenced, and every
method of the package is read.  The package namespace keeps its names
while loading each submodule only when something reads it.

A name counts as used when its module references it, or when another
scanned module reads it as an attribute of this module (`cli` reads
`catalog.example`).  The package's `__init__.py` only
re-exports, so its imports are exempt.  A definition counts as
referenced when code outside its own body names it, in the package, the
tests, the demos or the benchmark; the `__init__.py` re-export does not
count.  A method or an annotated class field counts as read when its name
is read anywhere in those files, as a name, an attribute or a dotted part
of a string constant; an `InitVar` field, which only `__post_init__`
receives, is exempt.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import finspan

ROOT = Path(__file__).resolve().parent.parent
SCANNED = [ROOT / "src" / "finspan", ROOT / "tests", ROOT / "demos"]
PACKAGE = ROOT / "src" / "finspan"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _attributes_read(tree: ast.Module) -> set[tuple[str, str]]:
    """Each `module.name` read, as (module, name)."""
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }


def unused_imports() -> list[str]:
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for folder in SCANNED
        for path in sorted(folder.glob("*.py"))
    }
    read_elsewhere = {pair for tree in trees.values() for pair in _attributes_read(tree)}
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        used = _referenced(tree)
        for name, line in _imported(tree).items():
            if name not in used and (path.stem, name) not in read_elsewhere:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    return unused


def test_every_imported_name_is_used():
    assert unused_imports() == []


def _module_level_names(tree: ast.Module) -> set[str]:
    """The names a module's top-level statements define or assign."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def stale_exports() -> list[str]:
    """Each name of the package's export table that its submodule does not
    define at module level."""
    return [
        f"{module}.{name}"
        for module, names in finspan._EXPORTS.items()
        for name in sorted(set(names) - _module_level_names(
            ast.parse((PACKAGE / f"{module}.py").read_text())
        ))
    ]


def test_every_export_is_defined_where_the_table_says():
    assert stale_exports() == []


def test_the_scan_sees_module_level_names():
    tree = ast.parse("import os\nX = 1\nY: int = 2\ndef f():\n    Z = 3\nclass C:\n    pass\n")
    assert _module_level_names(tree) == {"X", "Y", "f", "C"}


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(pi)\n"
    tree = ast.parse(source)
    assert sorted(set(_imported(tree)) - _referenced(tree)) == ["os", "tau"]


def _names(node: ast.AST) -> set[str]:
    """Each name `node` mentions, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _reads(trees) -> list[tuple[ast.stmt, set[str]]]:
    """Each top-level statement with the names it reads, so that a
    definition's own body can be left out when counting its references."""
    return [(stmt, _names(stmt)) for tree in trees for stmt in tree.body]


def _unreferenced(tree: ast.Module, reads) -> list[ast.stmt]:
    """The module-level defs and classes of `tree` that no other statement reads."""
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(node.name in names for stmt, names in reads if stmt is not node)
    ]


def unreferenced_definitions() -> list[str]:
    paths = [
        path
        for folder in SCANNED + [ROOT / "perfbench"]
        for path in sorted(folder.glob("*.py"))
        if path.name != "__init__.py"
    ]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    reads = _reads(trees.values())
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in _unreferenced(tree, reads)
    ]


def test_every_package_definition_is_referenced():
    assert unreferenced_definitions() == []


def test_the_scan_sees_an_unreferenced_definition():
    tree = ast.parse("def used():\n    pass\n\ndef dead():\n    dead()\n\nused()\n")
    assert [node.name for node in _unreferenced(tree, _reads([tree]))] == ["dead"]


def _read_names(trees) -> set[str]:
    """Each name read in `trees`: bare, as an attribute, or as a dotted part
    of a string constant that is a dotted name, since the benchmark's tracer
    names the functions it wraps by string."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if all(part.isidentifier() for part in node.value.split(".")):
                    out.update(node.value.split("."))
    return out


def _definitions(tree: ast.Module) -> list[tuple[str, str, int]]:
    """Each module-level def and class of `tree`, and each method and
    annotated field of its classes but the `InitVar` fields, as (qualified
    name, name, line); dunders, which the interpreter calls, are left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            found.append((node.name, node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, functions):
                    name = sub.name
                elif (isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
                      and "InitVar" not in ast.unparse(sub.annotation)):
                    name = sub.target.id
                else:
                    continue
                found.append((f"{node.name}.{name}", name, sub.lineno))
    return [d for d in found if not re.fullmatch("__.*__", d[1])]


def _unread(tree: ast.Module, read: set[str]) -> list[tuple[str, int]]:
    """Each definition of `tree` whose name is not in `read`, as (qualified
    name, line)."""
    return [(qualified, line) for qualified, name, line in _definitions(tree) if name not in read]


def unread_definitions() -> list[str]:
    """The package's definitions, methods and class fields whose name
    nothing reads in the package, the tests, the demos or the benchmark."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for folder in SCANNED + [ROOT / "perfbench"]
        for path in sorted(folder.glob("*.py"))
    }
    read = _read_names(trees.values())
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name, line in _unread(tree, read)
    ]


def test_every_package_definition_and_method_is_read():
    assert unread_definitions() == []


def test_the_scan_sees_an_unread_method():
    tree = ast.parse(
        "class C:\n    def __init__(self):\n        self.used()\n"
        "    def used(self):\n        pass\n    def named(self):\n        pass\n"
        "    def dead(self):\n        pass\n\nTRACED = ['C.named']\n"
    )
    assert [name for name, _ in _unread(tree, _read_names([tree]))] == ["C.dead"]


def test_the_scan_sees_a_dead_field():
    tree = ast.parse(
        "from dataclasses import InitVar, dataclass\n\n@dataclass\nclass C:\n"
        "    used: int\n    dead: int\n    given: InitVar[int]\n    RATE = 2\n\n"
        "    def __post_init__(self, given):\n        print(self.used)\n\nC(1, 2, 3)\n"
    )
    assert [name for name, _ in _unread(tree, _read_names([tree]))] == ["C.dead"]


def _item_maps(tree: ast.Module) -> list[int]:
    """The line of each `tuple(map(<expr>.__getitem__, …))` in `tree`: a
    table composed one slot call at a time, where `spans.gather` makes one
    `itemgetter` call."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "tuple"
        and len(node.args) == 1 and isinstance(inner := node.args[0], ast.Call)
        and isinstance(inner.func, ast.Name) and inner.func.id == "map" and inner.args
        and isinstance(inner.args[0], ast.Attribute) and inner.args[0].attr == "__getitem__"
    ]


def test_every_table_composition_goes_through_gather():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _item_maps(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_scan_sees_a_table_composed_by_map():
    tree = ast.parse(
        "a = tuple(map(t.__getitem__, idx))\n"
        "b = tuple(map(f(x).table.__getitem__, idx))\n"
        "c = list(map(d.__getitem__, zip(p, q)))\n"
        "e = tuple(map(str, idx))\n"
    )
    assert _item_maps(tree) == [1, 2]


def _is_first_failure_name(node: ast.expr) -> bool:
    """Whether `node` reads `<expr>.failures[0].name`."""
    return (
        isinstance(node, ast.Attribute) and node.attr == "name"
        and isinstance(sub := node.value, ast.Subscript)
        and isinstance(sub.slice, ast.Constant) and sub.slice.value == 0
        and isinstance(sub.value, ast.Attribute) and sub.value.attr == "failures"
    )


def _first_failure_raises(tree: ast.Module) -> list[int]:
    """The line of each `raise E(<literal prefix> + <report>.failures[0].name)`
    in `tree`, as an f-string or a sum: a requirement written out by hand,
    where `Report.require` states it once."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and len(node.exc.args) == 1):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.JoinedStr) and len(message.values) == 2:
            prefix, value = message.values[0], message.values[1].value
        elif isinstance(message, ast.BinOp) and isinstance(message.op, ast.Add):
            prefix, value = message.left, message.right
        else:
            continue
        if isinstance(prefix, ast.Constant) and isinstance(prefix.value, str) and _is_first_failure_name(value):
            found.append(node.lineno)
    return found


def test_every_requirement_goes_through_require():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "reporting.py"
        for line in _first_failure_raises(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_scan_sees_a_hand_written_requirement():
    tree = ast.parse(
        "if not rep.ok:\n    raise E(f'base fails: {rep.failures[0].name}')\n"
        "if not rep.ok:\n    raise E('base fails: ' + check(X).failures[0].name)\n"
        "if not rep.ok:\n    raise E(f'{rep.failures[0].name}, diagnostic {rep.failures[0].witness}')\n"
        "if not rep.ok:\n    raise E(f'base fails: {rep.failures[0].witness}')\n"
        "rep.require(E, 'base fails: ')\n"
    )
    assert _first_failure_raises(tree) == [2, 4]


def _memo_uses(tree: ast.Module) -> list[int]:
    """The line of each read or write of a `.memo` attribute in `tree`, by
    attribute syntax or by `getattr`/`setattr`/`delattr` with the name
    spelled out."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "memo"
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "setattr", "delattr") and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant) and node.args[1].value == "memo"
    )


def test_only_simplicial_touches_a_memo():
    # a structure's memo has one owner, which decides what it keeps
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "simplicial.py"
        for line in _memo_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_scan_sees_a_memo_use():
    tree = ast.parse(
        "X.memo[key] = 1\n"
        "value = X.memo.get(key)\n"
        "X.memo = {}\n"
        "table = getattr(X, 'memo')\n"
        "memo = {}\n"
        "other = getattr(X, 'memos')\n"
    )
    assert _memo_uses(tree) == [1, 2, 3, 4]


def _product_codes(tree: ast.Module) -> list[tuple[int, str]]:
    """The line and kind of each product code written out by hand in
    `tree`: an `a * b + c`, a `//`, or a call to `encode_tuple` or
    `decode_tuple`, where `spans.encode_columns` and
    `spans.decode_columns` code whole columns."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and (
                isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)):
            found.append((node.lineno, "product"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.FloorDiv):
            found.append((node.lineno, "floor division"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
                "encode_tuple", "decode_tuple"):
            found.append((node.lineno, "scalar code"))
    return sorted(found)


def test_only_spans_codes_a_product():
    found = [
        f"{path.relative_to(ROOT)}:{line} {kind}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "spans.py"
        for line, kind in _product_codes(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_scan_sees_a_hand_written_product_code():
    tree = ast.parse(
        "code = a * size + b\n"
        "first = p // size\n"
        "stride //= size\n"
        "index = encode_tuple(values, sizes)\n"
        "parts = spans.decode_tuple(index, sizes)\n"
        "fine = b + a * size\n"
        "also = (a + b) * size\n"
        "q, r = divmod(p, size)\n"
        "codes = encode_columns(columns, sizes, count)\n"
    )
    assert _product_codes(tree) == [
        (1, "product"), (2, "floor division"), (3, "floor division"), (4, "scalar code"), (5, "scalar code"),
    ]


# ---------------------------------------------------------------------------
# the package namespace

# `finspan.__all__` as it was when `__init__.py` imported every name eagerly
EXPORTED = (
    "CommutativityCell", "ConstructionError", "CounitData", "FinMap", "FinSet", "GammaData",
    "GluingError", "LambdaMor", "NotCommutativeError", "NotFrobeniusError", "ParacyclicData",
    "PhiStarMor", "ProductShape", "PseudomonoidData", "Span", "SpanCell", "StructuralError",
    "Subdivision", "Triangulation", "TruncSimplicialSet", "TwoTruncatedData", "UNIT",
    "braiding_cell", "braiding_span", "build_pseudomonoid", "check_2segal", "check_cyclic",
    "check_gamma", "check_lambda_relations", "check_paracyclic", "check_simplicial_identities",
    "check_subdivision_criterion", "check_unitality", "coherence_cell",
    "commutative_from_gamma", "compose_spans", "cut", "degen_via_polygon", "diagrams",
    "edge_map", "enumerate_subdivisions", "enumerate_triangulations", "evaluate",
    "evaluate_gamma", "face_via_polygon", "frobenius_from_paracyclic", "frobenius_witnesses",
    "gamma_from_commutative", "gammaset", "glue", "glue_columns", "hexagonator_cell",
    "horizontal_compose", "identity_cell", "identity_map", "identity_span", "lambda_compose",
    "lambda_factorize", "make_simplicial", "n_fold_multiplication", "paracyclic",
    "paracyclic_from_frobenius", "phistar_compose", "phistar_factorize", "product_span",
    "pseudomonoid", "pullback", "reporting", "search_associator_lift", "simplicial", "spans",
    "spans_isomorphic", "syllepsis_cell", "taco_spaces", "tensorator_cell", "two_truncation",
    "unglue", "verify_pentagon", "verify_triangle", "vertical_compose", "whisker",
)


def test_the_package_exports_the_same_names():
    assert len(EXPORTED) == 81
    assert finspan.__all__ == list(EXPORTED)


def test_each_export_is_its_submodule_attribute():
    for module, names in finspan._EXPORTS.items():
        owner = importlib.import_module(f"finspan.{module}")
        assert getattr(finspan, module) is owner
        for name in names:
            assert getattr(finspan, name) is getattr(owner, name), name


def test_star_import_and_dir_see_every_export():
    namespace = {}
    exec("from finspan import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert set(EXPORTED) <= set(dir(finspan))


def test_an_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError) as error:
        finspan.no_such_name
    with pytest.raises(AttributeError) as standard:
        types.ModuleType("finspan").no_such_name
    assert str(error.value) == str(standard.value)


# Run in a fresh interpreter, since this session has loaded every module.
LOAD_GUARD = """
import contextlib, io, json, sys
import finspan
from finspan import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    lazy = ("catalog", "pseudomonoid", "diagrams", "paracyclic", "gammaset", "acceptance")
    return code, [m for m in lazy if f"finspan.{m}" in sys.modules]

print(json.dumps([
    run("check", "fixtures/chain_poset_nerve.json"),
    run("search-lift", "fixtures/nolift_a2.json"),
    run("check", "fixtures/nerve_z3.json"),
    run("check", "fixtures/interval_l3.json"),
]))
"""


def test_commands_load_only_the_modules_they_read():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LOAD_GUARD], cwd=ROOT, capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [0, []],
        [1, ["pseudomonoid", "diagrams"]],
        [0, ["pseudomonoid", "diagrams", "paracyclic"]],
        [0, ["pseudomonoid", "diagrams", "paracyclic", "gammaset"]],
    ]

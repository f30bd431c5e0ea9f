"""Every imported name in the package, the tests and the demos is used,
and every module-level definition in the package is referenced.

A name counts as used when its module references it, or when another
scanned module reads it as an attribute of this module (`cli` reads
`catalog.two_truncated_simplicial`).  The package's `__init__.py` only
re-exports, so its imports are exempt.  A definition counts as
referenced when code outside its own body names it, in the package, the
tests, the demos or the benchmark; the `__init__.py` re-export does not
count.
"""

from __future__ import annotations

import ast
from pathlib import Path

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

"""The named examples of `catalog.EXAMPLES`: `finspan example` writes
exactly their documents and loads only the modules an example needs, and
labels on a document's levels change no verdict."""

import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from finspan import catalog
from finspan.cli import main
from finspan.documents import StructureDocument, dumps_document, load_document
from finspan.spans import FinMap
from test_documents_cli import labelled

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))


@pytest.mark.parametrize("name", sorted(catalog.EXAMPLES))
def test_example_writes_the_catalog_document(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(["example", name, "-o", str(out)]) == 0
    assert out.read_text() == dumps_document(catalog.example(name))


@pytest.mark.parametrize("name", ["nerve-zk", "groupoid-zk", "twisted-zk-id"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_a_cyclic_example_refuses_an_empty_group(name, k, capsys):
    assert main(["example", name, "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cyclic group needs order k >= 1, got k={k}\n"


@pytest.mark.parametrize("L", ["-1", "-5"])
def test_the_interval_example_refuses_a_negative_length(L, capsys):
    assert main(["example", "interval", "--L", L]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: interval monoid needs L >= 0, got L={L}\n"


@pytest.mark.parametrize("n", ["2", "1", "0"])
def test_the_interval_example_refuses_a_low_truncation_before_building(n, capsys, monkeypatch):
    def refused(L):
        raise AssertionError(f"interval monoid built for L={L}")

    monkeypatch.setattr(catalog, "interval_monoid", refused)
    assert main(["example", "interval", "--L", "100000", "--n-levels", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: correspondence checks need N >= 3\n"


def test_the_two_hand_built_inputs():
    C = catalog.pair_groupoid(2)
    swap = catalog.groupoid_cyclic(C, 4, bisection=FinMap(C.objects, C.morphisms, (1, 2)))
    assert [t.table for t in catalog.swap_bisection_cyclic(4).tau] == [t.table for t in swap.tau]
    G3 = catalog.cyclic_group_category(3)
    inversion = catalog.Endofunctor(
        FinMap(G3.objects, G3.objects, (0,)),
        FinMap(G3.morphisms, G3.morphisms, (0, 2, 1)),
    )
    assert catalog.inversion_twist(3) == inversion
    assert dumps_document(catalog.example("twisted-z3-inversion")) == dumps_document(
        StructureDocument(catalog.twisted_cyclic_nerve(G3, inversion, 4),
                          paracyclic=catalog.twisted_cyclic_paracyclic(G3, inversion, 4))
    )


# Run in a fresh interpreter, since this session has loaded every module.
LOAD_GUARD = """
import contextlib, io, json, sys
from finspan import cli

name = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["example", name])
print(json.dumps([code] + [m for m in ("catalog", "paracyclic", "gammaset")
                           if f"finspan.{m}" in sys.modules]))
"""


@pytest.mark.parametrize("name, loaded", [
    ("nerve-z2", ["catalog"]),
    ("interval", ["catalog", "paracyclic", "gammaset"]),
])
def test_an_example_loads_only_the_modules_it_builds_with(name, loaded):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LOAD_GUARD, name], cwd=ROOT, capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] + loaded


DIRECTIONS = ("paracyclic-to-frobenius", "frobenius-to-paracyclic",
              "gamma-to-commutative", "commutative-to-gamma")


def _runs(path: pathlib.Path, tmp_path: pathlib.Path, capsys) -> list:
    """Exit code, check lines and derive and search-lift stderr of the
    commands on the document at `path`; the time is replaced by `T`."""
    out = []
    code = main(["check", str(path), "--full-hexagon", "--subdivisions"])
    lines = capsys.readouterr().out
    out.append((code, re.sub(r"checked in [0-9.]+s", "checked in Ts", lines)))
    for direction in DIRECTIONS:
        code = main(["derive", str(path), "--direction", direction, "-o", str(tmp_path / "out.json")])
        out.append((code, capsys.readouterr().err))
    code = main(["search-lift", str(path), "--budget", "5000"])
    captured = capsys.readouterr()
    out.append((code, captured.out, captured.err))
    return out


@pytest.mark.parametrize("fixture", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_labels_on_every_level_change_no_verdict(fixture, tmp_path, capsys):
    path = tmp_path / fixture.name
    path.write_text(dumps_document(labelled(load_document(fixture), random.Random(fixture.stem))))
    assert _runs(path, tmp_path, capsys) == _runs(fixture, tmp_path, capsys)

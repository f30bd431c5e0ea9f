"""Golden output of the checkers: every check name, status and witness.

Each case runs one command and compares its exit code and output with
`golden/cli_output.json`:

* `finspan check --subdivisions --full-hexagon` and `finspan check
  --full-hexagon` on every shipped fixture;
* the same commands on seeded mutations of four fixtures: single entries
  of the face, degeneracy, `tau` and `theta` tables, and swaps of two
  `tau` or `theta` entries, which keep the table a bijection;
* the stderr of `derive paracyclic-to-frobenius` and
  `derive gamma-to-commutative` on those mutations;
* the report lines of the checkers that `check` skips once the
  simplicial identities fail (unitality, extra degeneracies, reduced
  commutativity), run on each mutation directly.

The time in the `checked in` line is replaced by `T`.  Run this module as
a script to record the golden file again:

    PYTHONPATH=src python3 tests/test_golden_output.py
"""

import contextlib
import io
import json
import pathlib
import random
import re
import sys
import tempfile

import pytest

from finspan.cli import main
from finspan.documents import load_document
from finspan.gammaset import check_gamma, reduced_commutativity
from finspan.paracyclic import check_extra_degeneracy_relations, check_paracyclic
from finspan.simplicial import check_unitality

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_output.json"
EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

MUTATED = ("nerve_z2", "interval_l2", "interval_l3", "pair_groupoid2")
MUTATIONS_PER_KIND = 6
CHECKS = (
    ("check", "--subdivisions", "--full-hexagon"),
    ("check", "--full-hexagon"),
)
DERIVES = (
    ("derive", "--direction", "paracyclic-to-frobenius"),
    ("derive", "--direction", "gamma-to-commutative"),
)


def _tables(data: dict) -> dict:
    """Every table of a document by kind, as (table, codomain size)."""
    sizes = [lv if isinstance(lv, int) else lv["size"] for lv in data["levels"]]
    N = data["truncation"]
    kinds = {
        "face": [(t, sizes[n - 1]) for n in range(1, N + 1) for t in data["face"][n - 1]],
        "degen": [(t, sizes[n + 1]) for n in range(N) for t in data["degen"][n]],
    }
    if "paracyclic" in data:
        kinds["tau"] = [(t, sizes[n]) for n, t in enumerate(data["paracyclic"]["tau"])]
    if "gamma" in data:
        kinds["theta"] = [(t, sizes[n + 2]) for n, row in enumerate(data["gamma"]["theta"]) for t in row]
    return {k: [(t, c) for t, c in v if c > 1] for k, v in kinds.items()}


def _mutate(rng: random.Random, tables: list, swap: bool) -> str:
    ti = rng.randrange(len(tables))
    table, cod = tables[ti]
    if swap:
        e, f = rng.sample(range(len(table)), 2)
        table[e], table[f] = table[f], table[e]
        return f"table {ti}, entries {e} and {f} swapped"
    e = rng.randrange(len(table))
    old = table[e]
    table[e] = rng.choice([v for v in range(cod) if v != old])
    return f"table {ti}, entry {e}, {old} -> {table[e]}"


def mutations() -> list[tuple[str, str]]:
    """(case name, document text) for each seeded mutation."""
    out = []
    for name in MUTATED:
        text = (FIXTURES / f"{name}.json").read_text()
        kinds = list(_tables(json.loads(text)))
        kinds += [f"{k} swap" for k in kinds if k in ("tau", "theta")]
        for kind in kinds:
            rng = random.Random(f"{name}/{kind}")
            for k in range(MUTATIONS_PER_KIND):
                data = json.loads(text)
                what = _mutate(rng, _tables(data)[kind.split()[0]], kind.endswith("swap"))
                out.append((f"{name} {kind} {k}: {what}", json.dumps(data)))
    return out


def run_cli(argv, streams) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    out = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    out["stdout"] = re.sub(r"^checked in [0-9.]+s:", "checked in Ts:", out["stdout"], flags=re.M)
    return {"exit": code, **{s: out[s] for s in streams}}


def run_checkers(path) -> dict:
    doc = load_document(path)
    X = doc.simplicial
    runs = [lambda: check_unitality(X)]
    if doc.paracyclic is not None:
        runs += [lambda: check_paracyclic(doc.paracyclic),
                 lambda: check_extra_degeneracy_relations(doc.paracyclic)]
    if doc.gamma is not None:
        runs += [lambda: check_gamma(doc.gamma), lambda: reduced_commutativity(X, doc.gamma)]
    lines = []
    for checker in runs:
        try:
            lines += checker().lines()
        except ValueError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return {"lines": lines}


def cases(workdir: pathlib.Path) -> dict:
    """Case name -> a callable returning its outcome."""
    out = {}

    def add(name, path, derives):
        for argv in CHECKS:
            out[f"{' '.join(argv)} {name}"] = (
                lambda argv=argv: run_cli((argv[0], str(path)) + argv[1:], ("stdout",)))
        for argv in derives:
            out[f"{' '.join(argv)} {name}"] = (
                lambda argv=argv: run_cli((argv[0], str(path)) + argv[1:], ("stderr",)))
        if derives:
            out[f"checkers {name}"] = lambda: run_checkers(path)

    for path in sorted(FIXTURES.glob("*.json")):
        add(path.stem, path, ())
    for i, (name, text) in enumerate(mutations()):
        path = workdir / f"mutation{i}.json"
        path.write_text(text)
        add(name, path, DERIVES)
    return out


@pytest.fixture(scope="module")
def golden_cases(tmp_path_factory):
    return cases(tmp_path_factory.mktemp("mutations"))


def test_golden_covers_every_case(golden_cases):
    assert sorted(EXPECTED) == sorted(golden_cases)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_golden_output(name, golden_cases):
    assert golden_cases[name]() == EXPECTED[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: case() for name, case in cases(pathlib.Path(tmp)).items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)

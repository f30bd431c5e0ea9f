"""Workload inputs, seeded relabelling and the verdict oracle.

Every workload is a fixed list of inputs built from `finspan.catalog`.
The seed picks one permutation of each level's elements per input and
applies it to every table of the generated document, so the structure
is the same up to isomorphism and the expected verdicts, candidate
counts and round trips do not depend on the seed.  Seed 0 keeps catalog
order.

Each workload is a function `(inputs, workdir, recorder) -> None` that
makes its calls in a fixed order and reports every operation, checked
against its expected outcome, through the recorder.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

# Workload calls go through module attributes, so the tracer's bindings
# are the ones called.
from finspan import catalog, cli, documents, pseudomonoid
from finspan.documents import StructureDocument, document_from_dict, document_to_dict


# ---------------------------------------------------------------------------
# inputs


def _nerve_zk(k: int, n: int):
    return lambda: StructureDocument(catalog.nerve(catalog.cyclic_group_category(k), n))


def _nerve_pair(k: int, n: int):
    return lambda: StructureDocument(catalog.nerve(catalog.pair_groupoid(k), n))


def _pair_groupoid_cyclic(k: int, n: int):
    def build():
        P = catalog.groupoid_cyclic(catalog.pair_groupoid(k), n)
        return StructureDocument(P.base, paracyclic=P)
    return build


def _interval(L: int, n: int):
    def build():
        P = catalog.interval_cyclic(L, n)
        G = catalog.commutative_monoid_gamma(catalog.interval_monoid(L), n)
        return StructureDocument(P.base, paracyclic=P, gamma=G)
    return build


def _no_lift(a: int):
    return lambda: StructureDocument(
        catalog.two_truncated_simplicial(catalog.no_lift_family(a))
    )


# Each input: (name, build, expected).  For `check` inputs the expected
# value is the (passed, failed, skipped) count of its summary line; for
# lift inputs it is the candidate total, all of which must be tried.
INPUTS = {
    "segal-scaling": {
        "full": [
            ("z5_at4", _nerve_zk(5, 4), (11, 0, 0)),
            ("z3_at5", _nerve_zk(3, 5), (25, 0, 0)),
            ("z2_at6", _nerve_zk(2, 6), (67, 0, 0)),
        ],
        "small": [("z2_at4", _nerve_zk(2, 4), (11, 0, 0))],
    },
    "coherence": {
        "full": [
            ("pair4_at3", _nerve_pair(4, 3), None),
            ("z8_at3", _nerve_zk(8, 3), None),
        ],
        "small": [
            ("pair2_at3", _nerve_pair(2, 3), None),
            ("z2_at3", _nerve_zk(2, 3), None),
        ],
    },
    "lift-search": {
        "full": [("nolift_a2", _no_lift(2), 16), ("nolift_a3", _no_lift(3), 1296)],
        "small": [("nolift_a2", _no_lift(2), 16)],
    },
    "roundtrip-session": {
        "full": [
            ("pair3_at4", _pair_groupoid_cyclic(3, 4), None),
            ("interval7_at4", _interval(7, 4), (99, 0, 0)),
        ],
        "small": [
            ("pair2_at4", _pair_groupoid_cyclic(2, 4), None),
            ("interval3_at4", _interval(3, 4), (99, 0, 0)),
        ],
    },
}


def relabel(data: dict, rng: random.Random | None) -> dict:
    """Apply one permutation per level to every table of a document dict:
    labels, faces, degeneracies, `tau` and `theta` (the blocks generated
    inputs carry).

    `perm[n][e]` is the new index of old element `e` of level n.  With
    `rng` None the document is returned in catalog order.
    """
    N = data["truncation"]
    sizes = [l if isinstance(l, int) else l["size"] for l in data["levels"]]
    perm = [list(range(s)) for s in sizes]
    if rng is not None:
        for p in perm:
            rng.shuffle(p)

    def move(table, dom, cod):
        out = [0] * len(table)
        for e, v in enumerate(table):
            out[dom[e]] = cod[v]
        return out

    out = dict(data)
    levels = []
    for n, l in enumerate(data["levels"]):
        if isinstance(l, dict) and l.get("labels") is not None:
            labels = [None] * l["size"]
            for e, lab in enumerate(l["labels"]):
                labels[perm[n][e]] = lab
            l = {"size": l["size"], "labels": labels}
        levels.append(l)
    out["levels"] = levels
    out["face"] = [[move(t, perm[n], perm[n - 1]) for t in data["face"][n - 1]]
                   for n in range(1, N + 1)]
    out["degen"] = [[move(t, perm[n], perm[n + 1]) for t in data["degen"][n]]
                    for n in range(N)]
    if "paracyclic" in data:
        out["paracyclic"] = {"tau": [move(t, perm[n], perm[n])
                                     for n, t in enumerate(data["paracyclic"]["tau"])]}
    if "gamma" in data:
        out["gamma"] = {"theta": [[move(t, perm[n], perm[n]) for t in row]
                                  for n, row in enumerate(data["gamma"]["theta"], start=2)]}
    return out


@dataclass
class Input:
    name: str
    path: Path
    text: str
    sizes: tuple[int, ...]
    expected: object


# Later commands of a session re-read value-equal structures and reuse
# whatever the earlier ones computed, so they share one process.
SESSIONS = {"roundtrip-session"}


def groups(workload: str, size: str) -> list[list[int]]:
    """Input indices per process.  A session workload runs all its inputs
    in one process, in order; the others run each input in its own, as a
    command-line user pays for it."""
    count = len(INPUTS[workload][size])
    if workload in SESSIONS:
        return [list(range(count))]
    return [[i] for i in range(count)]


def prepare(workload: str, size: str, group: int, seed: int, workdir: Path) -> list[Input]:
    """Generate, relabel and write the documents of one process group.

    Each document is parsed back and must serialise to the same bytes, so
    a relabelling that breaks the document format fails here.
    """
    out = []
    table = INPUTS[workload][size]
    for name, build, expected in (table[i] for i in groups(workload, size)[group]):
        rng = random.Random(f"{seed}:{workload}:{name}") if seed else None
        data = relabel(document_to_dict(build()), rng)
        doc = document_from_dict(data)
        text = documents.dumps_document(doc)
        if text != json.dumps(data, indent=2, sort_keys=True) + "\n":
            raise RuntimeError(f"relabelled {name} does not round-trip through the parser")
        path = workdir / f"{name}.json"
        path.write_text(text)
        sizes = tuple(l.size for l in doc.simplicial.levels)
        out.append(Input(name, path, text, sizes, expected))
    return out


# ---------------------------------------------------------------------------
# workloads


class Recorder:
    """Counts operations and mismatches, and times each input."""

    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []
        self.per_input: list[dict] = []

    def op(self, what: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(f"{what}: {detail}" if detail else what)

    @contextlib.contextmanager
    def timed(self, inp: Input):
        """Time one input's calls; the yielded record takes extra fields."""
        entry = {"input": inp.name, "sizes": list(inp.sizes), "bytes": len(inp.text.encode())}
        start = time.perf_counter()
        yield entry
        entry["seconds"] = time.perf_counter() - start
        self.per_input.append(entry)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_summary(stdout: str) -> tuple[int, int, int] | None:
    """(passed, failed, skipped) from the last line of `finspan check`."""
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    try:
        tail = last.split(": ", 1)[1]
        passed, failed, skipped = (int(part.split()[0]) for part in tail.split(", "))
    except (IndexError, ValueError):
        return None
    return passed, failed, skipped


def _expect_check(rec: Recorder, what: str, argv: list[str], expected) -> None:
    code, stdout, stderr = _cli(argv)
    summary = _check_summary(stdout)
    rec.op(what, code == 0 and summary == expected, f"exit {code}, summary {summary}, stderr {stderr.strip()!r}")


def segal_scaling(inputs: list[Input], workdir: Path, rec: Recorder) -> None:
    for inp in inputs:
        with rec.timed(inp):
            _expect_check(rec, f"check {inp.name}", ["check", str(inp.path)], inp.expected)


def coherence(inputs: list[Input], workdir: Path, rec: Recorder) -> None:
    for inp in inputs:
        with rec.timed(inp):
            doc = documents.load_document(inp.path)
            rec.op(f"load {inp.name}", doc.simplicial.N == len(inp.sizes) - 1)
            P = pseudomonoid.build_pseudomonoid(doc.simplicial)
            rec.op(f"build {inp.name}", P.mult.apex.size == inp.sizes[2])
            pent = pseudomonoid.verify_pentagon(P)
            rec.op(f"pentagon {inp.name}", pent.ok, f"{len(pent.discrepancy)} discrepant")
            tri = pseudomonoid.verify_triangle(P)
            rec.op(f"triangle {inp.name}", tri.ok, f"{len(tri.discrepancy)} discrepant")


def lift_search(inputs: list[Input], workdir: Path, rec: Recorder) -> None:
    for inp in inputs:
        with rec.timed(inp) as entry:
            code, stdout, _ = _cli(["search-lift", str(inp.path)])
        counts = re.search(r"^candidates: (\d+) tried of (\d+)$", stdout, re.M)
        if counts:
            entry["candidates_tried"], entry["candidates_total"] = map(int, counts.groups())
        want = f"verdict: no lift\ncandidates: {inp.expected} tried of {inp.expected}\n"
        rec.op(f"search-lift {inp.name}", code == 1 and stdout == want,
               f"exit {code}, output {stdout!r}")


def _block(path: Path, key: str):
    return json.loads(path.read_text()).get(key)


def roundtrip_session(inputs: list[Input], workdir: Path, rec: Recorder) -> None:
    pair, interval = inputs
    forward, back = workdir / f"{pair.name}.frobenius.json", workdir / f"{pair.name}.back.json"
    with rec.timed(pair):
        code, _, err = _cli(["derive", str(pair.path), "--direction", "paracyclic-to-frobenius",
                             "-o", str(forward)])
        rec.op(f"derive {pair.name} paracyclic-to-frobenius", code == 0, err.strip())
        code, _, err = _cli(["derive", str(forward), "--direction", "frobenius-to-paracyclic",
                             "-o", str(back)])
        rec.op(f"derive {pair.name} frobenius-to-paracyclic", code == 0
               and back.read_text() == pair.text, f"exit {code}, document differs or {err.strip()!r}")

    forward, back = workdir / f"{interval.name}.commutative.json", workdir / f"{interval.name}.back.json"
    with rec.timed(interval):
        code, _, err = _cli(["derive", str(interval.path), "--direction", "gamma-to-commutative",
                             "-o", str(forward)])
        rec.op(f"derive {interval.name} gamma-to-commutative", code == 0, err.strip())
        code, _, err = _cli(["derive", str(forward), "--direction", "commutative-to-gamma",
                             "-o", str(back)])
        rec.op(f"derive {interval.name} commutative-to-gamma", code == 0
               and _block(back, "gamma") == _block(interval.path, "gamma"),
               f"exit {code}, gamma block differs or {err.strip()!r}")
        _expect_check(rec, f"check --full-hexagon {interval.name}",
                      ["check", str(interval.path), "--full-hexagon"], interval.expected)


WORKLOADS = {
    "segal-scaling": segal_scaling,
    "coherence": coherence,
    "lift-search": lift_search,
    "roundtrip-session": roundtrip_session,
}


def planned_ops(workload: str, inputs: list[Input]) -> int:
    """Operations a process checks, so a crash counts every unchecked one as failed."""
    if workload in SESSIONS:
        return 5
    return {"segal-scaling": 1, "coherence": 4, "lift-search": 1}[workload] * len(inputs)

"""JSON documents and the command-line interface."""

import contextlib
import importlib.util
import io
import json
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finspan import catalog, cli
from finspan.cli import build_parser, main
from finspan.documents import (
    DocumentError,
    StructureDocument,
    document_from_dict,
    document_to_dict,
    dumps_document,
    loads_document,
)
from finspan.reporting import CheckResult, Report
from finspan.simplicial import PolygonStack, SegalWitness
from finspan.spans import UNIT, FinMap, FinSet, Span, constant_map
from test_catalog import _catalog_documents
from test_simplicial import empty_structure, random_complex_nerve

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


class TestDocuments:
    def test_round_trip_identity(self, nerve_z2):
        doc = StructureDocument(nerve_z2)
        text = dumps_document(doc)
        again = dumps_document(loads_document(text))
        assert text == again

    def test_round_trip_with_blocks(self):
        P = catalog.interval_cyclic(2, 4)
        G = catalog.commutative_monoid_gamma(catalog.interval_monoid(2), 4)
        doc = StructureDocument(P.base, paracyclic=P, gamma=G)
        text = dumps_document(doc)
        back = loads_document(text)
        assert back.paracyclic is not None and back.gamma is not None
        assert dumps_document(back) == text

    def test_bad_version_rejected(self):
        with pytest.raises(DocumentError):
            document_from_dict({"schema_version": 99})

    def test_out_of_range_index_rejected(self, nerve_z2):
        data = document_to_dict(StructureDocument(nerve_z2))
        data["face"][0][0][0] = 77
        with pytest.raises(DocumentError):
            document_from_dict(data)

    @pytest.mark.parametrize("entry", [-1, 1], ids=["negative", "out-of-range"])
    def test_table_entry_outside_the_codomain_is_named(self, nerve_z2, entry):
        data = document_to_dict(StructureDocument(nerve_z2))
        data["face"][0][0][0] = entry
        with pytest.raises(DocumentError) as raised:
            document_from_dict(data)
        assert str(raised.value) == "face d_0^1: entry not an integer index below 1"

    def test_truncation_mismatch_rejected(self, nerve_z2):
        data = document_to_dict(StructureDocument(nerve_z2))
        data["truncation"] = 5
        with pytest.raises(DocumentError):
            document_from_dict(data)

    def test_shipped_fixtures_load_and_match_regeneration(self):
        for path in sorted(FIXTURES.glob("*.json")):
            text = path.read_text()
            doc = loads_document(text)
            assert dumps_document(doc) == text


def json_dumps_document(doc):
    """The canonical text as the standard encoder writes it."""
    return json.dumps(document_to_dict(doc), indent=2, sort_keys=True) + "\n"


# label characters JSON escapes: quotes, backslashes, control characters,
# and non-ASCII in and beyond the basic plane
LABEL_CHARACTERS = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2603", "\U0001f600", "a", " "]


def labelled(doc, rng):
    """`doc` with seeded labels on every level, made distinct by their
    index."""
    data = document_to_dict(doc)
    data["levels"] = [
        {"size": size, "labels": ["".join(rng.choices(LABEL_CHARACTERS, k=rng.randint(0, 4))) + str(e)
                                  for e in range(size)]}
        for size in (l if isinstance(l, int) else l["size"] for l in data["levels"])
    ]
    return document_from_dict(data)


def empty_document():
    """Every level of size 0, so every table is empty, with every block."""
    X = empty_structure(3)
    apex = FinSet(0)
    counit = Span(X.levels[1], UNIT, apex, FinMap(apex, X.levels[1], ()), constant_map(apex, UNIT))
    return StructureDocument(X, counit=counit, commutative=FinMap(X.levels[2], X.levels[2], ()))


class TestCanonicalText:
    def test_fixtures_match_the_standard_encoder(self):
        for path in sorted(FIXTURES.glob("*.json")):
            doc = loads_document(path.read_text())
            assert dumps_document(doc) == json_dumps_document(doc)

    def test_catalog_documents_match_the_standard_encoder(self):
        docs = list(_catalog_documents())
        assert len(docs) == 78
        for name, doc in docs:
            assert dumps_document(doc) == json_dumps_document(doc), name

    def test_edge_cases_match_the_standard_encoder(self):
        rng = random.Random(7)
        docs = [empty_document(), labelled(empty_document(), rng)]
        docs += [labelled(StructureDocument(random_complex_nerve(random.Random(seed), 3)), rng)
                 for seed in range(20)]
        for doc in docs:
            text = dumps_document(doc)
            assert text == json_dumps_document(doc)
            assert dumps_document(loads_document(text)) == text
        texts = "".join(dumps_document(doc) for doc in docs)
        assert all(json.dumps(c)[1:-1] in texts for c in LABEL_CHARACTERS)
        assert '"face": [\n    [\n      [],\n      []\n    ],' in dumps_document(docs[0])

    @pytest.mark.parametrize("value", [True, 1.0, -1, 2, "0", [0], None],
                             ids=["true", "float", "negative", "size", "string", "nested", "null"])
    def test_table_entries_are_indices_below_the_size(self, nerve_z2, value):
        data = document_to_dict(StructureDocument(nerve_z2))
        data["face"][1][1][1] = value
        with pytest.raises(DocumentError, match=r"^face d_1\^2: entry not an integer index below 2$"):
            document_from_dict(data)


class TestCli:
    def test_check_passes_on_fixture(self, capsys):
        assert main(["check", str(FIXTURES / "interval_l2.json")]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out and "[FAIL]" not in out

    def test_check_fails_on_corrupted_document(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "interval_l2.json").read_text())
        data["face"][0][0][0] = (data["face"][0][0][0] + 0) * 0  # keep in range
        data["degen"][0][0][0] = (data["degen"][0][0][0] + 1) % data["levels"][1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out

    def test_check_rejects_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        bad.write_text("{")
        assert main(["check", str(bad)]) == 2

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["paracyclic"].update(tau=[0] * len(d["levels"])), ""),
        (lambda d: d.update(paracyclic=3), ""),
        (lambda d: d.update(counit={"left": [0, 0, 0], "right": "point"}), ""),
        (lambda d: d.update(counit={"apex_size": -1, "left": [], "right": "point"}), ""),
        (lambda d: d.update(counit={"apex_size": True, "left": [0], "right": "point"}), ""),
        (lambda d: d["face"][1][0].__setitem__(0, True), ""),
        (lambda d: d["levels"].__setitem__(0, {"size": 1, "labels": "a"}), ""),
        (lambda d: d["face"][1].pop(), "need 3 face maps at level 2"),
        (lambda d: d["degen"][1].pop(), "need 2 degeneracy maps at level 1"),
        (lambda d: d["gamma"]["theta"][1].pop(), "need 2 transpositions at level 3"),
        (lambda d: d.update(counit={"apex_size": 1, "left": [0], "right": "line"}),
         "counit right leg must be the point"),
        (lambda d: d["face"].append([[0], [0]]), "need 4 face rows at truncation 4, not 5"),
        (lambda d: d["degen"].append([[0, 1]]), "need 4 degeneracy rows at truncation 4, not 5"),
    ], ids=["tau-entries-ints", "paracyclic-not-object", "counit-without-apex-size",
            "negative-apex-size", "boolean-apex-size", "boolean-face-index",
            "string-labels", "missing-face", "missing-degeneracy", "missing-theta",
            "counit-right-leg-not-point", "extra-face-row", "extra-degeneracy-row"])
    def test_check_rejects_malformed_blocks(self, tmp_path, capsys, mutate, message):
        data = json.loads((FIXTURES / "interval_l2.json").read_text())
        mutate(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: " + message)
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(paracyclic=3), "paracyclic block must be a JSON object, not int"),
        (lambda d: d.update(gamma=[[0]]), "gamma block must be a JSON object, not list"),
        (lambda d: d.update(counit="point"), "counit block must be a JSON object, not str"),
        (lambda d: d.update(commutative=None), "commutative block must be a JSON object, not NoneType"),
        (lambda d: d.update(counit={"left": [0, 0, 0], "right": "point"}), "counit block needs apex_size"),
        (lambda d: d.update(commutative={"theta": [0]}), "commutative block needs theta2"),
    ], ids=["paracyclic-int", "gamma-list", "counit-string", "commutative-null",
            "counit-without-apex-size", "commutative-without-theta2"])
    def test_check_names_the_malformed_block(self, tmp_path, capsys, mutate, message):
        data = json.loads((FIXTURES / "interval_l2.json").read_text())
        mutate(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["check"], ["derive", "--direction", "commutative-to-gamma"], ["search-lift"],
    ], ids=["check", "derive", "search-lift"])
    def test_non_utf8_document_is_bad_input(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main(argv[:1] + [str(bad)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: document is not UTF-8 text: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["derive", str(FIXTURES / "interval_l2.json"), "--direction", "gamma-to-commutative"],
        ["example", "nerve-z2"],
    ], ids=["derive", "example"])
    def test_unwritable_output_is_bad_input(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x.json"
        assert main(argv + ["-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize("block", ["gamma", "paracyclic"])
    def test_check_skips_absent_blocks(self, capsys, block):
        assert main(["check", str(FIXTURES / "chain_poset_nerve.json"), f"--{block}"]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out and f"no {block} block" in out

    def test_frobenius_to_paracyclic_below_truncation_3_is_bad_input(self, tmp_path, capsys):
        assert main(["example", "nolift", "-o", str(tmp_path / "nolift.json")]) == 0
        data = json.loads((tmp_path / "nolift.json").read_text())
        data["counit"] = {"apex_size": 1, "left": [0], "right": "point"}
        doc = tmp_path / "counit.json"
        doc.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["derive", str(doc), "--direction", "frobenius-to-paracyclic"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need truncation level at least 3\n"

    def test_derive_round_trip_bytes(self, tmp_path, capsys):
        src = FIXTURES / "interval_l3.json"
        frob = tmp_path / "frob.json"
        back = tmp_path / "back.json"
        assert main(["derive", str(src), "--direction", "paracyclic-to-frobenius",
                     "-o", str(frob)]) == 0
        assert main(["derive", str(frob), "--direction", "frobenius-to-paracyclic",
                     "-o", str(back)]) == 0
        a = json.loads(src.read_text())
        b = json.loads(back.read_text())
        assert a["paracyclic"] == b["paracyclic"]
        assert a["face"] == b["face"]

    def test_derive_gamma_round_trip_bytes(self, tmp_path):
        src = FIXTURES / "interval_l2.json"
        comm = tmp_path / "comm.json"
        back = tmp_path / "back.json"
        assert main(["derive", str(src), "--direction", "gamma-to-commutative",
                     "-o", str(comm)]) == 0
        assert main(["derive", str(comm), "--direction", "commutative-to-gamma",
                     "-o", str(back)]) == 0
        a = json.loads(src.read_text())
        b = json.loads(back.read_text())
        assert a["gamma"] == b["gamma"]

    def test_derive_keeps_no_stack(self, tmp_path, monkeypatch, capsys):
        """Every derive direction, on each shipped fixture with its block,
        leaves no Segal witness or stack in the memo of what it read."""
        loaded = []
        load = cli.load_document

        def recording_load(path):
            loaded.append(load(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_document", recording_load)
        directions = {"paracyclic": ("paracyclic-to-frobenius", "frobenius-to-paracyclic"),
                      "gamma": ("gamma-to-commutative", "commutative-to-gamma")}
        derived = set()
        for path in sorted(FIXTURES.glob("*.json")):
            blocks = json.loads(path.read_text())
            for block, (there, back) in directions.items():
                out = tmp_path / f"{path.stem}-{block}.json"
                if block in blocks and main(["derive", str(path), "--direction", there, "-o", str(out)]) == 0:
                    derived.add(there)
                    if main(["derive", str(out), "--direction", back]) == 0:
                        derived.add(back)
        assert derived == {d for pair in directions.values() for d in pair}
        memos = [doc.simplicial.memo.values() for doc in loaded]
        assert not [v for memo in memos for v in memo if isinstance(v, (SegalWitness, PolygonStack))]
        # the backward directions glued, through component tables
        assert any(isinstance(v, dict) for memo in memos for v in memo)

    def test_derive_missing_block(self, capsys):
        assert main(["derive", str(FIXTURES / "chain_poset_nerve.json"),
                     "--direction", "paracyclic-to-frobenius"]) == 2

    def test_derive_not_frobenius_verdict(self, tmp_path, capsys):
        # the interval with the identity-picking counit is not Frobenius
        doc = json.loads((FIXTURES / "interval_l2.json").read_text())
        doc.pop("paracyclic")
        doc.pop("gamma")
        doc["counit"] = {"apex_size": 1, "left": [0], "right": "point"}
        path = tmp_path / "weird.json"
        path.write_text(json.dumps(doc))
        assert main(["derive", str(path), "--direction", "frobenius-to-paracyclic"]) == 1
        err = capsys.readouterr().err
        assert "not Frobenius" in err

    @pytest.mark.parametrize("fixture,level,direction", [
        ("twisted_z3_inversion.json", 1, "paracyclic-to-frobenius"),
        ("interval_l3.json", 2, "gamma-to-commutative"),
    ])
    def test_derive_reports_failed_identities(self, tmp_path, capsys, fixture, level, direction):
        data = json.loads((FIXTURES / fixture).read_text())
        data["face"][level][0][0] = 1  # in range, but the identities fail
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 1
        capsys.readouterr()
        assert main(["derive", str(bad), "--direction", direction]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err

    def test_search_lift_exit_codes(self):
        assert main(["search-lift", str(FIXTURES / "nolift_a1.json")]) == 0
        assert main(["search-lift", str(FIXTURES / "nolift_a2.json")]) == 1

    def test_search_lift_budget(self, capsys):
        assert main(["search-lift", str(FIXTURES / "nolift_a3.json"), "--budget", "10"]) == 1
        out = capsys.readouterr().out
        assert "budget exceeded" in out

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_search_lift_rejects_budget_below_one(self, capsys, budget):
        assert main(["search-lift", str(FIXTURES / "nolift_a3.json"), "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_search_lift_output(self, capsys):
        path = str(FIXTURES / "nolift_a3.json")
        assert main(["search-lift", path]) == 1
        assert capsys.readouterr().out == "verdict: no lift\ncandidates: 1296 tried of 1296\n"
        assert main(["search-lift", path, "-v"]) == 1
        assert capsys.readouterr().out == (
            "verdict: no lift\ncandidates: 1296 tried of 1296\nnodes: 43\n"
        )

    def test_example_emission(self, tmp_path):
        out = tmp_path / "z2.json"
        assert main(["example", "nerve-z2", "-o", str(out)]) == 0
        assert main(["check", str(out)]) == 0

    def test_environment_does_not_reach_the_parser(self, monkeypatch):
        monkeypatch.setenv("FINSPAN_LEVELS", "abc")
        assert main(["check", str(FIXTURES / "nerve_z2.json")]) == 0

    def test_example_unknown_name(self):
        assert main(["example", "does-not-exist"]) == 2

    def test_example_interval_below_zero(self, capsys):
        assert main(["example", "interval", "--L", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    def test_example_nolift_below_zero(self, capsys):
        assert main(["example", "nolift", "--a-size", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no-lift family needs a label set of size a >= 0, got a=-1\n"

    def test_full_hexagon_flag(self, capsys):
        assert main(["check", str(FIXTURES / "interval_l2.json"),
                     "--gamma", "--full-hexagon"]) == 0
        out = capsys.readouterr().out
        assert "span-level hexagon equation" in out

    def test_full_hexagon_flag_next_to_another_check(self, capsys):
        assert main(["check", str(FIXTURES / "interval_l3.json"),
                     "--subdivisions", "--full-hexagon"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:-1] == ["[pass] span-level symmetry equation",
                                "[pass] span-level hexagon equation"]
        assert re.sub(r"in [0-9.]+s:", "in Ts:", lines[-1]) == (
            "checked in Ts: 68 passed, 0 failed, 0 skipped"
        )

    def test_not_commutative_verdict_names_the_equation_once(self, tmp_path, capsys, monkeypatch):
        from finspan import gammaset

        comm = tmp_path / "comm.json"
        assert main(["derive", str(FIXTURES / "interval_l3.json"), "--direction", "gamma-to-commutative",
                     "-o", str(comm)]) == 0
        failing = Report([CheckResult("span-level symmetry equation", ((0,), (1,)))])
        monkeypatch.setattr(gammaset, "span_level_commutativity", lambda *args: failing)
        assert main(["derive", str(comm), "--direction", "commutative-to-gamma"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "not commutative: span-level symmetry equation, diagnostic ((0,), (1,))\n"


def cut_document(data: dict, N: int) -> dict:
    """The document dict `data` cut to truncation N: its levels, faces and
    degeneracies up to level N, and its blocks' tables up to level N."""
    out = dict(data, truncation=N, levels=data["levels"][:N + 1], face=data["face"][:N], degen=data["degen"][:N])
    if "paracyclic" in data:
        out["paracyclic"] = {"tau": data["paracyclic"]["tau"][:N + 1]}
    if "gamma" in data:
        out["gamma"] = {"theta": data["gamma"]["theta"][:N - 1]}
    return out


class TestCutFixtures:
    """Every shipped fixture cut to truncations 2 and 3: a check skips each
    stage that needs a higher level, and the lift search reads levels 0..2
    only."""

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
    def test_checks_pass_or_skip(self, path, tmp_path, capsys):
        data = json.loads(path.read_text())
        for N in range(2, min(3, data["truncation"]) + 1):
            cut = tmp_path / f"cut{N}.json"
            cut.write_text(json.dumps(cut_document(data, N)))
            for flags in ([], ["--subdivisions", "--full-hexagon"]):
                assert main(["check", str(cut), *flags]) == 0, (N, flags)
                out = capsys.readouterr().out
                assert "[FAIL]" not in out
                if flags and N == 2 and "gamma" in data:
                    assert "[skipped] span-level equations (truncation below 3)" in out.splitlines()

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
    def test_search_lift_reads_only_the_2_truncation(self, path, tmp_path, capsys):
        cut = tmp_path / "cut2.json"
        cut.write_text(json.dumps(cut_document(json.loads(path.read_text()), 2)))
        for flags in ([], ["-v"]):
            runs = []
            for doc in (path, cut):
                runs.append((main(["search-lift", str(doc), *flags]), capsys.readouterr().out))
            assert runs[0] == runs[1]


# per command: argv that parse, then argv that miss a required argument
# or are refused; each command also gets every PARSER_ODD case after its
# positional arguments
PARSER_CASES = {
    "check": [["p"], ["p", "--2segal", "--unitality", "--subdivisions", "--paracyclic",
                      "--gamma", "--full-hexagon"], [], ["p", "q"]],
    "derive": [["p", "--direction", "gamma-to-commutative", "-o", "out"], ["p"],
               ["p", "--direction"]],
    "search-lift": [["p"], ["p", "--budget", "5", "-v"], [], ["p", "--budget"]],
    "example": [["nolift", "--a-size", "2", "--k", "3", "--L", "4", "--n-levels", "5"],
                [], ["nolift", "--k", "x"]],
    "acceptance": [[], ["--seed", "3", "-v"], ["--seed", "q"], ["extra"]],
}
PARSER_POSITIONAL = {"check": ["p"], "derive": ["p"], "search-lift": ["p"], "example": ["nolift"],
                     "acceptance": []}
PARSER_ODD = [["--direction", "sideways"], ["--budget", "x"], ["--bogus"], ["-h"]]


class TestParser:
    """A parser built for one command reads its argv as the parser of all
    five does: the same namespace, or the same exit code and output."""

    @staticmethod
    def parse(parser, argv):
        """The namespace as a dict, or the exit code; and stdout and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = vars(parser.parse_args(argv))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", [
        [command] + rest for command, cases in PARSER_CASES.items()
        for rest in cases + [PARSER_POSITIONAL[command] + odd for odd in PARSER_ODD]
    ], ids=" ".join)
    def test_one_command_parser_reads_as_the_full_parser(self, argv):
        full = self.parse(build_parser(), argv)
        assert self.parse(build_parser(argv), argv) == full
        assert isinstance(full[0], dict) or full[0] in (0, 2)

    def test_every_command_has_cases_that_parse_and_cases_that_fail(self):
        assert list(PARSER_CASES) == list(PARSER_POSITIONAL) == list(cli._commands())
        for command, cases in PARSER_CASES.items():
            results = [self.parse(build_parser(), [command] + rest)[0] for rest in cases]
            assert isinstance(results[0], dict) and results[-1] == 2, command

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"]], ids=["none", "help", "unknown"])
    def test_without_a_command_every_command_is_listed(self, capsys, argv, monkeypatch):
        monkeypatch.setattr("sys.argv", ["finspan"] + argv)
        with pytest.raises(SystemExit) as raised:
            main()
        captured = capsys.readouterr()
        assert raised.value.code == (0 if argv == ["-h"] else 2)
        listing = "{" + ",".join(PARSER_CASES) + "}"
        assert listing in captured.out + captured.err
        if argv == ["-h"]:
            assert all(f"\n    {c} " in captured.out for c in PARSER_CASES)

    def test_main_runs_the_module_attribute(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cmd_search_lift", lambda args: calls.append(args.path) or 7)
        assert main(["search-lift", "p"]) == 7
        assert calls == ["p"]


def test_make_fixtures_regenerates_the_shipped_fixtures(tmp_path, monkeypatch):
    path = FIXTURES.parent / "demos" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "OUT", tmp_path)
    assert make_fixtures.main() == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


# ---------------------------------------------------------------------------
# exit-code contract under mutated fixtures

KEYS = ("schema_version", "truncation", "levels", "face", "degen", "paracyclic", "tau",
        "gamma", "theta", "counit", "apex_size", "left", "right", "commutative", "theta2",
        "size", "labels", "x")
FUZZ_COMMANDS = [
    ["check"],
    ["check", "--subdivisions", "--full-hexagon"],
    ["search-lift", "--budget", "2000"],
    *(["derive", "--direction", d] for d in (
        "frobenius-to-paracyclic", "paracyclic-to-frobenius",
        "gamma-to-commutative", "commutative-to-gamma",
    )),
]


def _positions(value, path=(), top=None):
    """Each (path, value, top) inside a JSON value.  A path lists the keys
    and indices from the root; `top` bounds an in-range nudge of an
    integer: the largest entry of the table it sits in, if it does."""
    yield path, value, top
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _positions(sub, path + (key,))
    elif isinstance(value, list):
        table_top = max(value) if value and set(map(type, value)) == {int} else None
        for i, sub in enumerate(value):
            yield from _positions(sub, path + (i,), table_top)


def _nudges(value, top) -> list[int]:
    """The +-1 nudges of an integer that stay at least 0 and at most `top`."""
    top = value + 1 if top is None else top
    return [v for v in (value - 1, value + 1) if 0 <= v <= top]


def _replace(data, path, new):
    if not path:
        return new
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return data


@st.composite
def mutated_fixtures(draw):
    """A shipped fixture with one mutation: a value replaced by one of
    another type, a key renamed, or an integer nudged by one."""
    data = json.loads(draw(st.sampled_from(sorted(FIXTURES.glob("*.json")))).read_text())
    kind = draw(st.sampled_from(["type", "key", "nudge"]))
    positions = list(_positions(data))
    if kind == "key":
        block = draw(st.sampled_from([v for _, v, _ in positions if isinstance(v, dict)]))
        old = draw(st.sampled_from(sorted(block)))
        new = draw(st.sampled_from([k for k in KEYS if k not in block]))
        block[new] = block.pop(old)
        return data
    if kind == "nudge":
        path, value, top = draw(st.sampled_from(
            [(p, v, t) for p, v, t in positions if type(v) is int and _nudges(v, t)]
        ))
        return _replace(data, path, draw(st.sampled_from(_nudges(value, top))))
    path, value, _ = draw(st.sampled_from(positions))
    new = draw(st.sampled_from([v for v in ("x", None, 1.5, True, 7, [], {})
                                if type(v) is not type(value)]))
    return _replace(data, path, new)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


# what each command prints with exit 1, given its stdout and stderr lines:
# a failed check, a verdict other than a lift, or a refused derivation
FAILURE_SHOWN = {
    "check": lambda out, err: any(l.startswith("[FAIL]") for l in out),
    "search-lift": lambda out, err: any(
        l.startswith("verdict: ") and l != "verdict: lift exists" for l in out),
    "derive": lambda out, err: any(
        l.startswith(("not Frobenius:", "not commutative:", "cannot derive:", "[FAIL]")) for l in err),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(document=mutated_fixtures())
def test_mutated_fixtures_keep_the_exit_code_contract(fuzz_path, document):
    """No command lets an exception escape on a mutated fixture; it exits
    0, 1 or 2, exit 1 always comes with the failure it reports, and exit 2
    always comes with an `error: ` line."""
    fuzz_path.write_text(json.dumps(document))
    for command in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(fuzz_path), *command[1:]])
        assert code in (0, 1, 2), command
        if code == 1:
            assert FAILURE_SHOWN[command[0]](out.getvalue().splitlines(), err.getvalue().splitlines()), command
        if code == 2:
            assert any(l.startswith("error: ") for l in err.getvalue().splitlines()), command

"""JSON documents and the command-line interface."""

import importlib.util
import json
import pathlib
import re

import pytest

from finspan import catalog
from finspan.cli import main
from finspan.documents import (
    DocumentError,
    StructureDocument,
    document_from_dict,
    document_to_dict,
    dumps_document,
    loads_document,
)

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

    @pytest.mark.parametrize("mutate", [
        lambda d: d["paracyclic"].update(tau=[0] * len(d["levels"])),
        lambda d: d.update(paracyclic=3),
        lambda d: d.update(counit={"left": [0, 0, 0], "right": "point"}),
        lambda d: d.update(counit={"apex_size": -1, "left": [], "right": "point"}),
        lambda d: d.update(counit={"apex_size": True, "left": [0], "right": "point"}),
        lambda d: d["face"][1][0].__setitem__(0, True),
        lambda d: d["levels"].__setitem__(0, {"size": 1, "labels": "a"}),
    ], ids=["tau-entries-ints", "paracyclic-not-object", "counit-without-apex-size",
            "negative-apex-size", "boolean-apex-size", "boolean-face-index",
            "string-labels"])
    def test_check_rejects_malformed_blocks(self, tmp_path, capsys, mutate):
        data = json.loads((FIXTURES / "interval_l2.json").read_text())
        mutate(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err + captured.out

    def test_check_skips_absent_blocks(self, capsys):
        assert main(["check", str(FIXTURES / "chain_poset_nerve.json"), "--gamma"]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out and "no gamma block" in out

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
            "verdict: no lift\ncandidates: 1296 tried of 1296\nnodes: 24\n"
        )

    def test_example_emission(self, tmp_path):
        out = tmp_path / "z2.json"
        assert main(["example", "nerve-z2", "-o", str(out)]) == 0
        assert main(["check", str(out)]) == 0

    def test_example_unknown_name(self):
        assert main(["example", "does-not-exist"]) == 2

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

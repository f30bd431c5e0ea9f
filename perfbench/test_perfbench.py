"""The benchmark on each workload's smallest input.

    python3 -m pytest perfbench
"""

import json
import random
import sys
from pathlib import Path

import pytest

import refclock
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from finspan import pseudomonoid, spans  # noqa: E402
from finspan.documents import document_from_dict, document_to_dict  # noqa: E402


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_reports_every_metric(workload, trace):
    result, detail = run.measure(ROOT, workload, seed=7, seconds=0, trace=trace, size="small")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert detail["failed_share"] == 0 and detail["ops"] >= 1
    for entry in detail["inputs"]:
        assert entry["sizes"] and entry["bytes"] > 0 and entry["seconds"] > 0
    if workload == "lift-search":
        assert [(e["candidates_tried"], e["candidates_total"]) for e in detail["inputs"]] == [(16, 16)]
        if trace:
            assert result["metrics"]["pseudomonoid.search.candidates_tried"]["value"] == 16


def test_tracer_wraps_every_binding_and_restores_it():
    witness, validate = pseudomonoid.segal_witness, spans.FinMap.__post_init__
    t = tracer.Tracer()
    t.install()
    try:
        assert pseudomonoid.segal_witness is not witness
        assert spans.FinMap.__post_init__ is not validate
    finally:
        t.uninstall()
    assert pseudomonoid.segal_witness is witness
    assert spans.FinMap.__post_init__ is validate


def test_tracer_refuses_a_missing_function(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + [("spans", "no_such", "no_such")])
    t = tracer.Tracer()
    with pytest.raises(LookupError, match="finspan.spans.no_such"):
        t.install()
    assert t._restore == []


def test_refclock_rescales_by_the_probes_around_each_stretch():
    clock = refclock.RefClock()
    ref = refclock.REFERENCE_S
    # probes at 0 s and 1 s, the second twice as slow as the reference,
    # the third as fast as it
    clock.probes = [(0.0, ref), (1.0, 1.0 + 2 * ref), (2.0, 2.0 + ref)]
    raw, scaled = clock.measure(0.5, 1.5)
    assert raw == pytest.approx(1.0 - 2 * ref)
    assert scaled == pytest.approx((0.5 + 0.5 - 2 * ref) * 2 / 3)
    assert clock.measure(-1.0, 0.0) == (0.0, 0.0)


def test_relabel_keeps_seed_zero_and_permutes_otherwise():
    for _, build, _ in workloads.INPUTS["roundtrip-session"]["small"]:
        data = document_to_dict(build())
        assert workloads.relabel(data, None) == data
        moved = workloads.relabel(data, random.Random(1))
        assert moved["face"] != data["face"]
        doc = document_from_dict(moved)
        assert [l.size for l in doc.simplicial.levels] == [
            l if isinstance(l, int) else l["size"] for l in data["levels"]
        ]


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "coherence", "--seed", "0", "--seconds", "1"]) == 2

"""The acceptance gate: one test per criterion, each printing its verdict
lines.  All tolerances are exact (bijections and table equalities); the
two timed criteria carry their stated wall-clock budgets."""

import time

from finspan import acceptance


def _run(criterion, *args):
    report = criterion(*args)
    for line in report.lines():
        print(line)
    assert report.ok, "\n".join(r.line() for r in report.failures)
    return report


def test_criterion_1_two_segal_suite():
    t0 = time.time()
    _run(acceptance.criterion_1_two_segal_suite)
    assert time.time() - t0 < 60


def test_criterion_2_pentagon_triangle():
    _run(acceptance.criterion_2_pentagon_triangle)


def test_criterion_3_no_lift():
    t0 = time.time()
    _run(acceptance.criterion_3_no_lift)
    assert time.time() - t0 < 300


def test_criterion_4_frobenius_roundtrip():
    _run(acceptance.criterion_4_frobenius_roundtrip)


def test_criterion_5_cyclicity():
    _run(acceptance.criterion_5_cyclicity)


def test_criterion_6_gamma_roundtrip():
    _run(acceptance.criterion_6_gamma_roundtrip)


def test_criterion_7_morphism_calculi():
    _run(acceptance.criterion_7_morphism_calculi, 0)


def test_criterion_8_oracles():
    _run(acceptance.criterion_8_oracles, 0)


def test_criterion_9_mutation_sensitivity():
    _run(acceptance.criterion_9_mutation_sensitivity)


def test_full_suite_summary():
    report, lines = acceptance.run_all(seed=0)
    for line in lines:
        print(line)
    assert report.ok


# the lines that decide on something other than a checker's report, forced
# to fail: each names what went wrong


class _Clock:
    """`time` for the acceptance module, reading the given seconds in turn."""

    def __init__(self, *readings):
        self.perf_counter = iter(readings).__next__


def test_the_two_segal_time_budget_is_witnessed_by_the_elapsed_seconds(monkeypatch):
    monkeypatch.setattr(acceptance, "segal_fixtures", dict)
    monkeypatch.setattr(acceptance, "time", _Clock(0.0, 61.25))
    [line] = acceptance.criterion_1_two_segal_suite().results
    assert line.line() == "[FAIL] 2-Segal suite under 60 s (61.2s) witness=61.25"


def test_the_no_lift_time_budget_is_witnessed_by_the_elapsed_seconds(monkeypatch):
    monkeypatch.setattr(acceptance, "time", _Clock(0.0, 300.0))
    report = acceptance.criterion_3_no_lift()
    assert report.failures == [report.results[-1]]
    assert report.results[-1].line() == "[FAIL] no-lift suite under 5 min (300.0s) witness=300.0"


def test_a_rebuilt_transposition_is_witnessed_by_its_first_difference(monkeypatch):
    rebuild = acceptance.gamma_from_commutative

    def swapped(X, gamma):
        G = rebuild(X, gamma)
        tables = [list(row) for row in G.theta_tables]
        tables[3][1] = acceptance._swap_entries(tables[3][1], 2, 5)
        return acceptance.GammaData(G.base, tuple(tuple(row) for row in tables))

    monkeypatch.setattr(acceptance, "gamma_from_commutative", swapped)
    report = acceptance.criterion_6_gamma_roundtrip()
    # theta is a bijection, so entries 2 and 5 differ and 2 comes first
    assert [r.line() for r in report.failures] == [
        f"[FAIL] {name}: rebuilt transpositions equal the originals witness=(3, 1, 2)"
        for name in acceptance.gamma_fixtures()
    ]


def test_an_interstice_is_witnessed_by_the_first_generator_it_misses(monkeypatch):
    generator = acceptance.phistar_s
    monkeypatch.setattr(acceptance, "phistar_s",
                        lambda n, i: None if (n, i) in ((2, 1), (4, 0)) else generator(n, i))
    report = acceptance.criterion_7_morphism_calculi(0)
    [line] = report.failures
    assert line.name == "interstices of cofaces and codegeneracies are the generators"
    assert line.witness == acceptance.lambda_sigma(2, 1)


def test_a_missed_mutation_is_reported(monkeypatch):
    monkeypatch.setattr(acceptance, "check_2segal", lambda X: acceptance.Report())
    report = acceptance.criterion_9_mutation_sensitivity()
    assert [r.line() for r in report.failures] == [
        "[FAIL] 2-Segal checker detects the doubled-simplex fixture witness='mutation passed silently'"
    ]

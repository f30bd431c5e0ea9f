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

"""The check primitive: a line's verdict is its witness."""

import pytest

from finspan.reporting import CheckResult, Report


def test_a_witness_of_zero_fails():
    r = CheckResult("x", 0)
    assert r.passed is False and r.status == "FAIL"
    assert r.line() == "[FAIL] x witness=0"
    assert Report([r]).failures == [r] and not Report([r]).ok


def test_no_witness_passes():
    r = CheckResult("x", detail="why")
    assert r.passed is True and r.witness is None
    assert r.line() == "[pass] x (why)"
    assert Report([r]).ok


def test_the_skip_constructor_is_undecided():
    r = CheckResult.skip("x", "truncation below 3")
    assert r.passed is None and r.witness is None
    assert r.line() == "[skipped] x (truncation below 3)"
    assert Report([r]).ok and Report([r]).failures == []
    assert r != CheckResult("x", detail="truncation below 3")


def test_a_pass_fail_flag_is_refused():
    for flag in (True, False):
        with pytest.raises(TypeError, match="not a pass/fail flag"):
            CheckResult("x", flag)


def test_the_verdict_is_read_only():
    r = CheckResult("x", 0)
    with pytest.raises(AttributeError):
        r.passed = True
    with pytest.raises(TypeError):
        CheckResult("x", skipped=True)


def test_require_returns_a_passing_report():
    report = Report([CheckResult("x"), CheckResult.skip("y", "why")])
    assert report.require(ValueError, "fails: ") is report


def test_require_names_the_first_failing_line():
    report = Report([CheckResult("x"), CheckResult("y", 0), CheckResult("z", 1)])
    with pytest.raises(KeyError) as error:
        report.require(KeyError, "fails: ")
    assert error.value.args == ("fails: y",)

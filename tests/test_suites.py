from fractions import Fraction

from qsh_lab import curvature as curv
from qsh_lab import forms
from qsh_lab.matrices import QArray
from qsh_lab.suites import (SuiteContext, _curvature_checks_at, _exact, _verdict,
                            run_fiber_suite)


def _report(equal, residual, witness=None):
    return forms.EqualityReport(equal, residual, False, witness)


def test_verdict_passes_with_worst_residual_and_detail():
    reports = [(_report(True, 1e-15), "first"), (_report(True, 3e-14), "second"),
               (_report(True, 0.0), "third")]
    assert _verdict(iter(reports), "all held") == (True, 3e-14, None, "all held")
    assert _verdict(iter([])) == (True, 0.0, None, "")


def test_verdict_fails_on_first_unequal_report():
    reports = [(_report(True, 5.0), "a = 1"),
               (_report(False, 0.25, (1.0, 0.0, 0.0, 0.5)), "a = 2"),
               (_report(False, 9.0, (0.5, 0.5, 0.5, 0.5)), "a = 3")]
    assert _verdict(iter(reports), "pass detail") == \
        (False, 0.25, (1.0, 0.0, 0.0, 0.5), "a = 2")


def test_verdict_stops_pulling_after_a_failure():
    def reports():
        yield _report(True, 1e-16), "first"
        yield _report(False, 1.0, (0.5, 0.0, 0.0, 0.0)), "second"
        raise AssertionError("pulled a report after the failing one")
    assert _verdict(reports()) == (False, 1.0, (0.5, 0.0, 0.0, 0.0), "second")


def test_structure_equations_record_carries_the_failing_report(monkeypatch):
    # the first forms.equal call against a nonzero form in the fiber suite
    # is structure-equations at a = 1, the second at a = 2
    real_equal = forms.equal
    calls = []
    failing = _report(False, 0.125, (0.5, -1.0, 0.25, 1.0))

    def equal(u, v, *args, **kwargs):
        if not v.is_structurally_zero():
            calls.append(v)
            if len(calls) == 2:
                return failing
        return real_equal(u, v, *args, **kwargs)
    monkeypatch.setattr(forms, "equal", equal)
    records = {r.name: r for r in run_fiber_suite(SuiteContext(seed=1, trials=5))}
    record = records["structure-equations"]
    assert not record.passed
    assert (record.residual, record.witness, record.detail) == \
        (0.125, (0.5, -1.0, 0.25, 1.0), "a = 2")


def test_exact_passes_an_empty_stream():
    assert _exact(iter([])) == (True, 0.0, None, "")


def test_exact_passes_zero_fractions_and_arrays():
    diffs = [Fraction(0), QArray.of([[0, 0], [0, 0]]), QArray.of([Fraction(0, 3)])]
    assert _exact(iter(diffs), "all zero") == (True, 0.0, None, "all zero")


def test_exact_fails_with_the_largest_item():
    diffs = [QArray.of([Fraction(-1, 3), Fraction(0)]), Fraction(0), Fraction(-2),
             QArray.of([[Fraction(1, 2)]])]
    assert _exact(iter(diffs), "pass detail") == (False, 2.0, None, "pass detail")


def test_ricci_closed_form_record_fails_on_a_doubled_closed_form(monkeypatch):
    real_closed_form = curv.ricci_closed_form
    monkeypatch.setattr(curv, "ricci_closed_form",
                        lambda *args: real_closed_form(*args) * 2)
    records = {r.name: r for r in _curvature_checks_at(SuiteContext(seed=1), 2)}
    record = records["ricci-closed-form[n=2]"]
    assert not record.passed
    assert record.residual > 0

"""Mutation tests: a check is shown to fail on a wrong model or form.

A mutation wraps one function of `suites` and changes its value; the
check it is listed under, run through `suites._run` at n = 2, must pass
without it and fail with it.  The table covers the model checks."""

import functools
from dataclasses import replace

import pytest

from qsh_lab import suites
from qsh_lab.matrices import QArray
from qsh_lab.suites import CHECKS, SuiteContext, _run


def _model_record(check):
    """The record of the model check `check` at n = 2."""
    ctx = SuiteContext(seed=1, ns=(2,))
    (name, anchor, fn), = [c for c in CHECKS["model"] if c[0] == check + "[n={n}]"]
    return _run("model", name.format(n=2), anchor, functools.partial(fn, ctx, 2))


def _with(a: QArray, index, value) -> QArray:
    """A copy of the integer array `a` with a[index] = value."""
    values = a.values.copy()
    values[index] = value
    return QArray(values)


# for each model check: the function of suites to wrap, and a mutation of
# its value that the check must catch
_MODEL_MUTATIONS = {
    # omega[0, 2] = -1 negated: omega is neither skew nor J_a-invariant
    "omega-skew-nondegenerate":
        ("build_flat_model", lambda m: replace(m, omega=_with(m.omega, (0, 2), 1))),
    "omega-hermitian":
        ("build_flat_model", lambda m: replace(m, omega=_with(m.omega, (0, 2), 1))),
    # g_1[0, 3] = 1 negated: g_1 is not symmetric
    "metric-compatibility":
        ("build_flat_model", lambda m: replace(m, g=_with(m.g, (0, 0, 3), -1))),
    # g_1 = Id, symmetric but of signature (4n, 0)
    "metric-signature":
        ("build_flat_model",
         lambda m: replace(m, g=_with(m.g, 0, QArray.eye(m.dim).values))),
    # g_1 = g_2, which J_2 preserves
    "non-hermitian-witness":
        ("build_flat_model", lambda m: replace(m, g=_with(m.g, 0, m.g.values[1]))),
    # the scalar part of h shifted by 1, in the suites' binding only (a
    # shift in linmodel too reaches both sides of qsh-reconstruction)
    "qsh-reconstruction": ("qsh_form", lambda h: (h[0] + 1, h[1])),
    "qsh-special-values": ("qsh_form", lambda h: (h[0] + 1, h[1])),
    # J_2[0, 2] = 1 negated: rotated frames are no longer quaternionic
    "frame-rotation-covariance":
        ("build_flat_model", lambda m: replace(m, J=_with(m.J, (1, 0, 2), -1))),
}


@pytest.mark.parametrize("check", _MODEL_MUTATIONS)
def test_a_mutation_fails_its_model_check(monkeypatch, check):
    assert _model_record(check).passed
    target, mutate = _MODEL_MUTATIONS[check]
    real = getattr(suites, target)
    monkeypatch.setattr(suites, target, lambda *args: mutate(real(*args)))
    assert not _model_record(check).passed

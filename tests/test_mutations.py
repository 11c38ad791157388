"""Mutation tests: a check is shown to fail on a wrong model or form.

A mutation replaces one function or constant of the library; the check
it is listed under, run through `suites._run` at n = 2, must pass
without it and fail with it.  The tables cover the model checks, the
sampled checks that decide through `forms.vanishes`, exact checks of
the fiber and symspace suites, and the flat and symspace checks that
decide on folded trees, a classification or sampled mechanics.  A
mutation must fail its check on evidence, not by crashing it."""

import functools
import pathlib
from fractions import Fraction

import pytest

from qsh_lab import curvature as curv
from qsh_lab import forms, liealg
from qsh_lab import matrices as mat
from qsh_lab import scalarfield as sf
from qsh_lab import suites, swann
from qsh_lab.cli import RunConfig
from qsh_lab.linmodel import FlatModel
from qsh_lab.matrices import QArray
from qsh_lab.suites import CHECKS, SuiteContext, _run


def _record(suite, check, **options):
    """The record of the check `check` of `suite` at n = 2."""
    ctx = SuiteContext(RunConfig(seed=1, ns=(2,), **options))
    (name, anchor, fn), = [c for c in CHECKS[suite] if c[0] in (check, check + "[n={n}]")]
    n = 2 if "{n}" in name else None
    return _run(suite, name.format(n=n), anchor, functools.partial(fn, ctx, n))


def _with(a: QArray, index, value) -> QArray:
    """A copy of the integer array `a` with a[index] = value."""
    values = a.values.copy()
    values[index] = value
    return QArray(values)


def _rebuilt(m: FlatModel, **fields) -> FlatModel:
    """The model `m` with `fields` replaced, built through its constructor."""
    return FlatModel(**{"n": m.n, "J": m.J, "omega": m.omega, "g": m.g, **fields})


def _failed_on_evidence(record) -> bool:
    return not record.passed and not record.detail.startswith("exception:")


# for each model check: the function of suites to wrap, and a mutation of
# its value that the check must catch
_MODEL_MUTATIONS = {
    # omega[0, 2] = -1 negated: omega is neither skew nor J_a-invariant
    "omega-skew-nondegenerate":
        ("build_flat_model", lambda m: _rebuilt(m, omega=_with(m.omega, (0, 2), 1))),
    "omega-hermitian":
        ("build_flat_model", lambda m: _rebuilt(m, omega=_with(m.omega, (0, 2), 1))),
    # g_1[0, 3] = 1 negated: g_1 is not symmetric
    "metric-compatibility":
        ("build_flat_model", lambda m: _rebuilt(m, g=_with(m.g, (0, 0, 3), -1))),
    # g_1 = Id, symmetric but of signature (4n, 0)
    "metric-signature":
        ("build_flat_model",
         lambda m: _rebuilt(m, g=_with(m.g, 0, QArray.eye(m.dim).values))),
    # g_1 = g_2, which J_2 preserves
    "non-hermitian-witness":
        ("build_flat_model", lambda m: _rebuilt(m, g=_with(m.g, 0, m.g.values[1]))),
    # omega[0, 2] = -1 negated: h(x, y) no longer acts as conj(q) on the right
    "qsh-reconstruction":
        ("build_flat_model", lambda m: _rebuilt(m, omega=_with(m.omega, (0, 2), 1))),
    # J_2[0, 2] = 1 negated: J_2^2 is no longer -Id
    "quaternionic-identity":
        ("build_flat_model", lambda m: _rebuilt(m, J=_with(m.J, (1, 0, 2), -1))),
    # the scalar part of h shifted by 1
    "qsh-special-values": ("qsh_form", lambda h: (h[0] + 1, h[1])),
    # J_2[0, 2] = 1 negated: rotated frames are no longer quaternionic
    "frame-rotation-covariance":
        ("build_flat_model", lambda m: _rebuilt(m, J=_with(m.J, (1, 0, 2), -1))),
}


@pytest.mark.parametrize("check", _MODEL_MUTATIONS)
def test_a_mutation_fails_its_model_check(monkeypatch, check):
    assert _record("model", check).passed
    target, mutate = _MODEL_MUTATIONS[check]
    real = getattr(suites, target)
    monkeypatch.setattr(suites, target, lambda *args: mutate(real(*args)))
    record = _record("model", check)
    assert _failed_on_evidence(record), record.detail


def _wrapped(mutate):
    """A mutation of a function: its value changed by `mutate`."""
    return lambda real: lambda *args: mutate(real(*args))


def _negated(form, key):
    """`form` with the coefficient of `key` negated."""
    return forms.VerticalForm(form.coframe, form.degree,
                              {**form.terms, key: sf.neg(form.terms[key])})


def _with_entry(rows, i, j, value):
    """A copy of the rows `rows` with rows[i][j] = value."""
    rows = [list(row) for row in rows]
    rows[i][j] = value
    return rows


# for each sampled check: the module (or class) and attribute to replace,
# and the replacement as a function of the real value
_SAMPLED_MUTATIONS = {
    # a0 = t^-3 (h0 dh0 - h1 dh1 + ...) is no longer closed
    "dalpha0-zero": ("fiber", forms, "ALPHA_IN_DH",
                     lambda real: (_negated(real[0], (1,)), *real[1:])),
    # to_dh off by a factor t^2: d(t^2 beta_a) = 2t dt ^ beta_a, and only
    # the coordinate path expands in DH
    "dbeta-trivial-fiber-two-paths": ("fiber", forms, "to_dh",
                                      _wrapped(lambda u: forms.scale(forms.T2, u))),
    # M[1][2] = h3 negated: det M is no longer t^4
    "top-form-determinant": ("fiber", forms, "COFRAME_MATRIX",
                             lambda real: _with_entry(real, 1, 2, sf.neg(real[1][2]))),
    # the product rule without its a db term
    "exterior-algebra-laws": ("fiber", sf.Mul, "_d",
                              lambda real: lambda self, var, d: sf.mul(d(self.a), self.b)),
    # beta_a = a0 ^ a_a - a_b ^ a_c, not closed: both sides are built from
    # it, and d(sum f_a beta_a) keeps sum f_a d beta_a
    "dbeta-general-coefficients": ("fiber", swann, "beta_basis_form",
                                   _wrapped(lambda u: _negated(u, max(u.terms)))),
    # residual 1 sums + dF3/dh2 instead of - dF3/dh2
    "pde-dbeta-equivalence": ("flat", swann, "PDE_TERMS",
                              lambda real: ((real[0][0], (3, 2, 1), real[0][2]),
                                            *real[1:])),
    # the dh1^dh3 coefficient of beta is +F2, so d beta = 2 dh1^dh2^dh3
    "pde-hand-solution": ("flat", swann, "beta_of_F",
                          _wrapped(lambda u: _negated(u, (1, 3)))),
    # f3 negated in the change of presentation
    "family-cross-representation": ("flat", swann, "f_from_F",
                                    _wrapped(lambda f: (f[0], f[1], sf.neg(f[2])))),
    # exp(f) replaced by h0 + 3
    "primitive-df-equals-tau": ("symspace", swann, "symspace_exp_f",
                                lambda real: lambda params: sf.add(sf.H0, sf.const(3))),
}


@pytest.mark.parametrize("check", _SAMPLED_MUTATIONS)
def test_a_mutation_fails_its_sampled_check(monkeypatch, check):
    suite, holder, attribute, mutate = _SAMPLED_MUTATIONS[check]
    assert _record(suite, check, trials=5).passed
    monkeypatch.setattr(holder, attribute, mutate(getattr(holder, attribute)))
    record = _record(suite, check, trials=5)
    assert not record.passed and record.residual, record.detail


# a0 -> -a_a: the pullback no longer squares to -Id on a0 and moves beta_a
_a0_sign_flipped = _wrapped(lambda m: {**m, 0: (m[0][0], -m[0][1])})

# for each exact check of the fiber and symspace suites: as above
_EXACT_MUTATIONS = {
    # the dh1 coefficient of theta_0 negated
    "maurer-cartan-oracle": ("fiber", forms, "THETA_IN_DH",
                             lambda real: (_negated(real[0], (1,)), *real[1:])),
    # r1 of the quaternion oracle negated
    "r-formula-oracle": ("symspace", swann, "symspace_r_oracle",
                         _wrapped(lambda r: (-r[0], *r[1:]))),
    # exp(f) replaced by h0 + 3
    "expf-plugin-evaluation": ("symspace", swann, "symspace_exp_f",
                               lambda real: lambda params: sf.add(sf.H0, sf.const(3))),
    "beta-pullback-invariance":
        ("fiber", forms, "_pullback_index_map", _a0_sign_flipped),
    "pullback-involution": ("fiber", forms, "_pullback_index_map", _a0_sign_flipped),
}


@pytest.mark.parametrize("check", _EXACT_MUTATIONS)
def test_a_mutation_fails_its_exact_check(monkeypatch, check):
    suite, holder, attribute, mutate = _EXACT_MUTATIONS[check]
    assert _record(suite, check, trials=5).passed
    monkeypatch.setattr(holder, attribute, mutate(getattr(holder, attribute)))
    record = _record(suite, check, trials=5)
    assert _failed_on_evidence(record), record.detail


def _mul_keeping_zeros(real):
    """`scalarfield.mul` without its rule that a zero factor folds to 0."""
    def mul(a, b):
        if sf.is_zero(a) or sf.is_zero(b):
            return sf.Mul(a, b)
        return real(a, b)
    return mul


def _r_values_zeroed(real):
    """`forms.sample` with the values of the second half of the fields
    (the r fields of `swann.general_obstruction_check`) read as 0."""
    def sample(fields, trials, rng):
        half = len(fields) // 2
        for point, values in real(fields, trials, rng):
            yield point, [*values[:half], *[0.0] * (len(values) - half)]
    return sample


# for the flat and symspace checks that decide on folded trees, on a
# classification or on sampled mechanics: as above
_DECISION_MUTATIONS = {
    # residual 1 leads with dF1/dh1 instead of dF1/dh0, so (h0, 0, 0)
    # no longer fails the first equation
    "pde-violating-solution": ("flat", swann, "PDE_TERMS",
                               lambda real: (((1, 1, 1), *real[0][1:]), *real[1:])),
    # zero constants no longer fold away, so the family keeps its exp/sin
    # trees and does not collapse to constants
    "family-degenerate-limit": ("flat", sf, "mul", _mul_keeping_zeros),
    # every residual reads 0, so the non-closed (h0, 0, 0) is classified
    "torsion-classification": ("flat", swann, "pde_residuals",
                               _wrapped(lambda residuals: (sf.ZERO,) * len(residuals))),
    # the r fields read 0, so the direct contradiction has no witness
    "obstruction-mechanics": ("symspace", forms, "sample", _r_values_zeroed),
}


@pytest.mark.parametrize("check", _DECISION_MUTATIONS)
def test_a_mutation_fails_its_decision_check(monkeypatch, check):
    suite, holder, attribute, mutate = _DECISION_MUTATIONS[check]
    assert _record(suite, check, trials=5).passed
    monkeypatch.setattr(holder, attribute, mutate(getattr(holder, attribute)))
    record = _record(suite, check, trials=5)
    assert _failed_on_evidence(record), record.detail


def _on_model(change):
    """A mutation of a projection: it reads the model changed by `change`."""
    return lambda real: lambda m, x, y: real(change(m), x, y)


def _first_element_shifted(basis):
    """`basis` with the identity added to its first so*(2n) element, which
    then commutes with every J_a but is neither omega0-skew nor traceless."""
    first, *rest = basis.so_basis
    shifted = first + QArray.eye(basis.model.dim)
    return liealg.LieBasis(basis.model, (shifted, *rest), basis.sp_basis)


# for each liealg check, run at n = 2: as above.  Enumeration raises when
# its count or an element is wrong, so the basis is changed after it
_LIEALG_MUTATIONS = {
    # the last so*(2n) element dropped
    "so-star-dimension": (liealg, "enumerate_so_star_basis",
                          _wrapped(lambda b: liealg.LieBasis(b.model, b.so_basis[:-1],
                                                             b.sp_basis))),
    "basis-defining-equations": (liealg, "enumerate_so_star_basis",
                                 _wrapped(_first_element_shifted)),
    # the sp(1) coefficients reported as (c3, c2, c1)
    "decompose-roundtrip": (liealg, "decompose",
                            _wrapped(lambda split: (split[0], split[1][::-1]))),
    # + sum_a g_a(x, z) J_a y: no longer in the centralizer
    "projection-targets": (liealg, "project_ZQ", _on_model(
        lambda m: FlatModel(m.n, m.J, m.omega, -m.g))),
    # the sum over J_1 and J_2 only, which a rotation of the frame moves
    "projection-frame-independence": (liealg, "project_ZQ", _on_model(
        lambda m: FlatModel(m.n, m.J[:2], m.omega, m.g[:2]))),
    # c_a = -Tr(J_a M) / 2n, twice the trace pairing
    "projection-idempotence": (liealg, "sp1_trace_coefficients",
                               _wrapped(lambda c: tuple(2 * v for v in c))),
    # 1/8 in place of 1/4
    "projection-oracle": (liealg, "project_ZQ", _wrapped(lambda p: p * Fraction(1, 2))),
    # -(1/n) in place of -(1/2n)
    "circle-map": (liealg, "circle_sp1", _wrapped(lambda p: p * 2)),
    # sum_a c_a J_a without its J_3 term, which J_1 and J_3 do not preserve
    "circle-equivariance": (liealg, "_span",
                            lambda real: lambda coeffs, J: real(coeffs[:2], J[:2])),
}


@pytest.mark.parametrize("check", _LIEALG_MUTATIONS)
def test_a_mutation_fails_its_liealg_check(monkeypatch, check):
    holder, attribute, mutate = _LIEALG_MUTATIONS[check]
    assert _record("liealg", check).passed
    monkeypatch.setattr(holder, attribute, mutate(getattr(holder, attribute)))
    record = _record("liealg", check)
    assert _failed_on_evidence(record), record.detail


def _plus_first_component(real):
    """`liealg.circle_map` as C + P C P, P the projection onto the first
    quaternionic component: still symmetric, and equivariant under every
    element that preserves the components, as J_a does."""
    def circle_map(m, x, y, kappa):
        first = QArray.eye(m.dim)[:4]  # the coordinates of the first component
        p = first.T @ first
        c = real(m, x, y, kappa)
        return c + p @ c @ p
    return circle_map


def test_circle_equivariance_sees_elements_mixing_components(monkeypatch):
    assert _record("liealg", "circle-equivariance").passed
    monkeypatch.setattr(liealg, "circle_map", _plus_first_component(liealg.circle_map))
    record = _record("liealg", "circle-equivariance")
    assert _failed_on_evidence(record), record.detail


def _kappa_term_symmetric(real):
    """`curvature._parts` with g_1(x, y) A z, symmetric in x and y, in
    place of the kappa term w(x, y) A z; every value stays in g."""
    def parts(model, A):
        _, t1, t2 = real(model, A)
        return mat.einsum("ij,rk->ijkr", model.g[0], A), t1, t2
    return parts


def _ricci_second_slot(real):
    """`curvature.ricci_of` traced over the second slot of R(x, y) z: -Ric,
    as R is skew in x and y."""
    return lambda tensor: mat.einsum("yizi->yz", tensor)


def _pinned_c2_off_by_kappa(real):
    """`CurvParams.pinned` with c2 = (n + 1)k in place of nk."""
    return lambda kappa, n: curv.CurvParams(kappa, 2 * kappa, (n + 1) * kappa)


def _always_hermitian(real):
    """`curvature.is_Q_hermitian` reading every form as Q-Hermitian."""
    return lambda m, t: (True, None)


# for each curvature check, run at n = 2 (the [mandatory] pass at n = 3):
# as above
_CURVATURE_MUTATIONS = {
    "bianchi-pinned-zero": (curv.CurvParams, "pinned", _pinned_c2_off_by_kappa),
    # the cyclic sum reads 0, so no perturbed pair breaks it
    "bianchi-perturbed-nonzero": (curv, "bianchi_residual", _wrapped(lambda r: r * 0)),
    "tensor-wellformed": (curv, "_parts", _kappa_term_symmetric),
    "ricci-commuting-part": (curv, "ricci_of", _ricci_second_slot),
    "ricci-sp1-part": (curv, "ricci_of", _ricci_second_slot),
    # omega0(A y, z) negated in the split
    "ricci-linearity": (curv, "omega_pairing", _wrapped(lambda p: -p)),
    # the sp(1) part reads as Q-Hermitian too
    "ricci-hermitian-dichotomy": (curv, "is_Q_hermitian", _always_hermitian),
    "ricci-hermitian-dichotomy[n=3][mandatory]": (curv, "is_Q_hermitian", _always_hermitian),
}


@pytest.mark.parametrize("check", _CURVATURE_MUTATIONS)
def test_a_mutation_fails_its_curvature_check(monkeypatch, check):
    holder, attribute, mutate = _CURVATURE_MUTATIONS[check]
    assert _record("curvature", check).passed
    monkeypatch.setattr(holder, attribute, mutate(getattr(holder, attribute)))
    record = _record("curvature", check)
    assert _failed_on_evidence(record), record.detail


TESTS = pathlib.Path(__file__).resolve().parent

# checks without a row above, each with a test elsewhere that fails it
_FAILED_ELSEWHERE = {
    "phi-identity":
        "test_suites.py::test_a_generator_check_that_fails_records_its_worst_difference",
    "curvature-two-paths": "test_suites.py::test_a_sign_flipped_kernel_fails_the_two_paths",
    "ricci-closed-form":
        "test_suites.py::test_ricci_closed_form_record_fails_on_a_doubled_closed_form",
    "curvature-map-rank": "test_suites.py::test_a_tensor_given_twice_fails_the_map_rank",
    "structure-equations":
        "test_suites.py::test_structure_equations_record_carries_the_failing_report",
    "solution-family-residuals":
        "test_suites.py::test_nan_pde_residuals_fail_the_solution_family",
    "user-solution-residuals": "test_cli.py::test_run_subset_and_exit_codes",
    "ddf-zero": "test_suites.py::test_an_exact_tiny_term_in_df_fails_ddf_zero",
    # only a nan fails it: c2 E / (c1 E) - c2/c1 = 0 for every nonzero E,
    # so no finite exp(f) does (a FOUND in CHANGES.md)
    "frame-coefficient-proportionality":
        "test_suites.py::test_a_nan_exp_f_fails_frame_coefficient_proportionality",
}


def test_every_check_has_a_mutation():
    rows = {**_MODEL_MUTATIONS, **_SAMPLED_MUTATIONS, **_EXACT_MUTATIONS,
            **_DECISION_MUTATIONS, **_LIEALG_MUTATIONS, **_CURVATURE_MUTATIONS}
    names = [name.replace("[n={n}]", "") for checks in CHECKS.values()
             for name, _, _ in checks]
    assert not set(rows) & set(_FAILED_ELSEWHERE)
    assert sorted(set(rows) | set(_FAILED_ELSEWHERE)) == sorted(names)
    for test in _FAILED_ELSEWHERE.values():
        path, name = test.split("::")
        assert f"\ndef {name}(" in (TESTS / path).read_text(), test

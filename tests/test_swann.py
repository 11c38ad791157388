import random
from fractions import Fraction

import pytest

from qsh_lab import forms
from qsh_lab import scalarfield as sf
from qsh_lab import swann
from qsh_lab.quaternion import Quaternion


def _rng():
    return random.Random(77)


def _random_constants(rng):
    return swann.SolutionConstants(
        C1=Fraction(rng.randint(-2, 2)), C2=Fraction(rng.randint(-2, 2)),
        C3=Fraction(rng.randint(-2, 2)), C4=Fraction(rng.randint(-2, 2)),
        C5=Fraction(rng.randint(-2, 2)), C6=Fraction(rng.randint(-2, 2)),
        C7=Fraction(rng.randint(-2, 2)), C8=Fraction(rng.randint(-2, 2)),
        C9=Fraction(rng.randint(-2, 2)), C10=Fraction(rng.randint(-2, 2)),
        s1=Fraction(rng.randint(1, 4), 2), s2=Fraction(rng.randint(1, 4), 2),
        s3=Fraction(rng.randint(0, 4), 2), C14=Fraction(rng.randint(-2, 2)))


def _random_params(rng):
    while True:
        c1, c2, c3 = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        if (c1, c2, c3) != (0, 0, 0):
            break
    return swann.SymSpaceParams(c=Fraction(rng.randint(-4, 4) or 1),
                                n=rng.choice([2, 3]), c1=c1, c2=c2, c3=c3,
                                c4=Fraction(rng.randint(-3, 3)))


def test_beta_of_F_simple_cases():
    one = swann.FlatSolution(F=(sf.ONE, sf.ZERO, sf.ZERO))
    form = swann.beta_of_F(one)
    assert form.terms == {(0, 1): sf.ONE, (2, 3): sf.ONE}
    zero = swann.FlatSolution(F=(sf.ZERO, sf.ZERO, sf.ZERO))
    assert swann.beta_of_F(zero).is_structurally_zero()


def test_flat_solution_rejects_unknown_variables():
    with pytest.raises(ValueError):
        swann.FlatSolution(F=(sf.Var(7), sf.ZERO, sf.ZERO))


def test_beta_form_vanishes_with_zero_coefficients():
    beta = swann.BetaForm(f=(sf.ZERO, sf.ZERO, sf.ZERO))
    assert beta.form().is_structurally_zero()


def test_beta_form_constant_coefficients_invariant():
    beta = swann.BetaForm(f=(sf.const(2), sf.const(3), sf.const(-1))).form()
    for a in (1, 2, 3):
        pulled = forms.pullback_hyper(beta, a)
        assert set(pulled.terms) == set(beta.terms)
        for key in beta.terms:
            assert sf.is_zero(sf.sub(pulled.terms[key], beta.terms[key]))


def test_dbeta_equals_sum_df_wedge_beta():
    # d(sum f_a beta_a) = sum df_a ^ beta_a on the trivial fiber for
    # non-constant coefficient fields
    rng = _rng()
    f_fields = (sf.mul(sf.H0, sf.H1), sf.exp(sf.mul(sf.const(Fraction(1, 2)),
                                                    sf.H2)), sf.pow_(sf.H3, 2))
    beta = swann.BetaForm(f=f_fields).form()
    lhs = forms.d(forms.to_dh(beta))
    rhs = forms.zero_form(3, forms.DH)
    for a in (1, 2, 3):
        df = forms.d(forms.scalar_form(f_fields[a - 1]))
        rhs = forms.add(rhs, forms.wedge(df,
                                         forms.to_dh(swann.beta_basis_form(a))))
    rep = forms.equal(lhs, rhs, trials=50, tolerance=1e-10, rng=rng)
    assert rep.equal, rep.max_residual


def test_pde_residuals_hand_solution():
    solution = swann.FlatSolution(F=(sf.H1, sf.neg(sf.H2), sf.ZERO))
    assert all(sf.is_zero(r) for r in swann.pde_residuals(solution))


def test_pde_residuals_constants_vanish():
    solution = swann.FlatSolution(F=(sf.const(4), sf.const(-1), sf.const(7)))
    assert all(sf.is_zero(r) for r in swann.pde_residuals(solution))


def test_pde_residuals_violating_solution():
    solution = swann.FlatSolution(F=(sf.H0, sf.ZERO, sf.ZERO))
    residuals = swann.pde_residuals(solution)
    assert sf.constant_value(residuals[0]) == 1
    assert all(sf.is_zero(r) for r in residuals[1:])


def test_dbeta_equals_pde_table():
    rng = _rng()
    # satisfying and violating inputs both match the documented table
    for F in [(sf.H1, sf.neg(sf.H2), sf.ZERO), (sf.H0, sf.ZERO, sf.ZERO),
              (sf.mul(sf.H0, sf.H3), sf.pow_(sf.H1, 2), sf.H2)]:
        solution = swann.FlatSolution(F=F)
        rep = swann.dbeta_equals_pde(solution, trials=40, rng=rng)
        assert rep.equal
    # the violating case exposes residual 1 in the (0,2,3) coefficient
    dbeta = forms.d(swann.beta_of_F(swann.FlatSolution(
        F=(sf.H0, sf.ZERO, sf.ZERO))))
    assert sf.constant_value(dbeta.coefficient((0, 2, 3))) == 1


def test_f_from_F_cross_representation():
    rng = _rng()
    for _ in range(4):
        F = swann.FlatSolution(F=(
            sf.add(sf.mul(sf.H0, sf.H1), sf.const(Fraction(rng.randint(-2, 2)))),
            sf.pow_(sf.H2, 2),
            sf.sub(sf.H3, sf.H0)))
        frame_form = swann.BetaForm(f=swann.f_from_F(F)).form()
        rep = forms.equal(forms.to_dh(frame_form), swann.beta_of_F(F),
                          trials=40, tolerance=1e-9, rng=rng)
        assert rep.equal, rep.max_residual


def test_f_from_F_at_section_point():
    # at h = (1,0,0,0) the change of presentation is the identity
    F = swann.FlatSolution(F=(sf.const(5), sf.const(-3), sf.const(2)))
    point = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    values = [f.evaluate(point) for f in swann.f_from_F(F)]
    assert values == [5, -3, 2]


def test_explicit_family_residuals():
    rng = _rng()
    worst = 0.0
    for _ in range(20):
        sol = swann.explicit_solution_family(_random_constants(rng))
        evaluate = sf.evaluator(swann.pde_residuals(sol))
        for _ in range(100):
            point = forms.sample_point(rng)
            worst = max(worst, max(abs(float(v)) for v in evaluate(point)))
    assert worst < 1e-8, worst


def test_explicit_family_dbeta_vanishes_independently():
    # closedness checked through the forms engine rather than the
    # residual fields: d(beta_of_F) of a family member is the zero 3-form
    rng = _rng()
    for _ in range(3):
        sol = swann.explicit_solution_family(_random_constants(rng))
        rep = forms.is_zero_form(forms.d(swann.beta_of_F(sol)), trials=60,
                                 tolerance=1e-8, rng=rng)
        assert rep.equal, rep.max_residual


def test_explicit_family_degenerate_limit():
    k = swann.SolutionConstants(C9=Fraction(3), C10=Fraction(2),
                                C14=Fraction(1), s1=Fraction(1),
                                s2=Fraction(1), s3=Fraction(0))
    sol = swann.explicit_solution_family(k)
    assert [sf.constant_value(f) for f in sol.F] == [1, 2, 3]
    assert all(sf.is_zero(r) for r in swann.pde_residuals(sol))


def test_explicit_family_rejects_bad_constants():
    with pytest.raises(ValueError):
        swann.explicit_solution_family(swann.SolutionConstants(
            s1=Fraction(0), s2=Fraction(0), s3=Fraction(1)))
    with pytest.raises(ValueError):
        swann.explicit_solution_family(swann.SolutionConstants(
            s1=Fraction(-1), s2=Fraction(1)))


def test_torsion_type():
    rng = _rng()
    assert swann.torsion_type(swann.FlatSolution(
        F=(sf.const(1), sf.const(2), sf.const(3))), rng=rng).kind == "torsion-free"
    assert swann.torsion_type(swann.FlatSolution(
        F=(sf.H1, sf.neg(sf.H2), sf.ZERO)), rng=rng).kind == "X57"
    zero = swann.torsion_type(swann.FlatSolution(
        F=(sf.ZERO, sf.ZERO, sf.ZERO)), rng=rng)
    assert zero.kind == "torsion-free" and zero.degenerate
    with pytest.raises(ValueError):
        swann.torsion_type(swann.FlatSolution(F=(sf.H0, sf.ZERO, sf.ZERO)),
                           rng=rng)


def test_torsion_type_sees_through_disguised_constants():
    # exp(0*h1) + (h2 - h2) is the constant 1 after folding
    disguised = sf.add(sf.exp(sf.mul(sf.ZERO, sf.H1)), sf.sub(sf.H2, sf.H2))
    result = swann.torsion_type(swann.FlatSolution(
        F=(disguised, sf.ZERO, sf.ZERO)), rng=_rng())
    assert result.kind == "torsion-free"


def test_torsion_type_decides_a_sampled_constant():
    # sin^2 + cos^2 folds to nothing, so closedness, constancy and
    # degeneracy are each decided at sampled points
    F1 = sf.parse("sin(h1)^2 + cos(h1)^2")
    assert not sf.is_const(F1) and not sf.is_const(F1.diff(1))
    result = swann.torsion_type(swann.FlatSolution(F=(F1, sf.ZERO, sf.ZERO)),
                                rng=_rng())
    assert result == swann.TorsionClass(kind="torsion-free", degenerate=False)


def test_torsion_type_of_a_family_member():
    k = swann.SolutionConstants(
        C1=Fraction(1), C2=Fraction(2), C3=Fraction(-1), C4=Fraction(1),
        C5=Fraction(3, 2), C6=Fraction(-2), C7=Fraction(1), C8=Fraction(2),
        C9=Fraction(1), C10=Fraction(-1), s1=Fraction(1, 2), s2=Fraction(1),
        s3=Fraction(1, 2), C14=Fraction(1))
    result = swann.torsion_type(swann.explicit_solution_family(k),
                                tolerance=1e-8, rng=_rng())
    assert result == swann.TorsionClass(kind="X57", degenerate=False)


def test_symspace_r_matches_oracle():
    rng = _rng()
    for _ in range(50):
        params = _random_params(rng)
        h = Quaternion(*forms.sample_rational_point(rng))
        assert swann.symspace_r(params, h) == swann.symspace_r_oracle(params, h)


def test_symspace_r_special_points():
    params = swann.SymSpaceParams(c=Fraction(-1), n=2, c1=Fraction(1),
                                  c2=Fraction(0), c3=Fraction(0))
    assert swann.symspace_r(params, Quaternion.unit(0)) == (Fraction(1, 4), 0, 0)
    h = Quaternion.unit(2)  # h = j
    assert swann.symspace_r(params, h) == swann.symspace_r_oracle(params, h)
    with pytest.raises(ValueError):
        swann.symspace_r(params, Quaternion.of(0))


def test_symspace_r_fields_match_pointwise():
    rng = _rng()
    params = _random_params(rng)
    r_fields = swann.symspace_r_fields(params)
    for _ in range(20):
        h = Quaternion(*forms.sample_rational_point(rng))
        point = h.components()
        values = tuple(f.evaluate(point) for f in r_fields)
        assert values == swann.symspace_r(params, h)


def test_symspace_params_validation():
    with pytest.raises(ValueError):
        swann.SymSpaceParams(c=Fraction(1), n=2, c1=Fraction(0),
                             c2=Fraction(0), c3=Fraction(0))
    with pytest.raises(ValueError):
        swann.SymSpaceParams(c=Fraction(1), n=1, c1=Fraction(1),
                             c2=Fraction(0), c3=Fraction(0))


def test_primitive_df_equals_tau():
    rng = _rng()
    worst = 0.0
    for _ in range(10):
        params = _random_params(rng)
        rep = swann.symspace_primitive_check(params, trials=100,
                                             tolerance=1e-8, rng=rng)
        assert rep.equal, rep.max_residual
        worst = max(worst, rep.max_residual)
    assert worst < 1e-8


def test_primitive_ddf_zero_exact():
    rng = _rng()
    params = _random_params(rng)
    rep = swann.symspace_ddf_check(params, trials=50, rng=rng)
    assert rep.equal and rep.max_residual == 0.0


def test_exp_f_plugin_value():
    params = swann.SymSpaceParams(c=Fraction(-1), n=2, c1=Fraction(1),
                                  c2=Fraction(0), c3=Fraction(0),
                                  c4=Fraction(0))
    value = swann.symspace_exp_f(params).evaluate(
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    assert value == Fraction(-8)


def test_frame_coefficients_proportional():
    rng = _rng()
    params = swann.SymSpaceParams(c=Fraction(2), n=2, c1=Fraction(3),
                                  c2=Fraction(5), c3=Fraction(0))
    E = swann.symspace_exp_f(params)
    f1 = sf.mul(sf.const(params.c1), E)
    f2 = sf.mul(sf.const(params.c2), E)
    for _ in range(20):
        point = forms.sample_rational_point(rng)
        try:
            v1 = f1.evaluate(tuple(point))
            v2 = f2.evaluate(tuple(point))
        except ZeroDivisionError:
            continue
        if v1 != 0:
            assert v2 / v1 == Fraction(5, 3)


def test_obstruction_direct_contradiction():
    rng = _rng()
    rep = swann.general_obstruction_check((sf.ONE, sf.ZERO, sf.ZERO),
                                          (sf.ONE, sf.ZERO, sf.ZERO),
                                          trials=20, rng=rng)
    assert rep.implication_holds
    assert rep.witness is not None and "sum" in rep.witness


def test_obstruction_vacuous_flat_case():
    rng = _rng()
    rep = swann.general_obstruction_check((sf.ZERO, sf.ZERO, sf.ZERO),
                                          (sf.ONE, sf.H1, sf.ZERO),
                                          trials=20, rng=rng)
    assert rep.implication_holds and rep.witness is None


def test_obstruction_proportional_always_witnessed():
    rng = _rng()
    f_fields = (sf.add(sf.pow_(sf.H0, 2), sf.ONE), sf.H1, sf.H2)
    for _ in range(20):
        lam = sf.const(Fraction(rng.randint(1, 5)))
        r_fields = tuple(sf.mul(lam, f) for f in f_fields)
        rep = swann.general_obstruction_check(r_fields, f_fields,
                                              trials=30, rng=rng)
        assert rep.implication_holds
        assert rep.witness is not None and "sum" in rep.witness


_UNDEFINED = sf.sqrt(sf.sub(sf.const(-1), sf.pow_(sf.H0, 2)))  # nowhere real


def test_torsion_type_of_undefined_input_raises_sampling_error():
    # used to classify as torsion-free and degenerate after 0 evaluations
    with pytest.raises(forms.SamplingError) as err:
        swann.torsion_type(swann.FlatSolution(F=(_UNDEFINED, sf.ZERO, sf.ZERO)),
                           rng=_rng())
    assert err.value.evaluated == 0 and err.value.rejected == 64


def test_obstruction_with_undefined_r_fields_raises_sampling_error():
    # used to report implication_holds=True after 0 evaluations
    with pytest.raises(forms.SamplingError) as err:
        swann.general_obstruction_check((_UNDEFINED, _UNDEFINED, _UNDEFINED),
                                        (sf.ONE, sf.H1, sf.ZERO),
                                        trials=20, rng=_rng())
    assert err.value.evaluated == 0 and err.value.reasons == {"ValueError": 64}

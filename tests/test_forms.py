import itertools
import random
from fractions import Fraction

import pytest

from qsh_lab import forms
from qsh_lab import scalarfield as sf
from qsh_lab.quaternion import Quaternion
from qsh_lab.swann import beta_basis_form


def _rng():
    return random.Random(99)


def _random_field(rng, depth=0):
    r = rng.random()
    if depth > 2 or r < 0.35:
        return sf.const(Fraction(rng.randint(-3, 3)))
    if r < 0.55:
        return sf.var(rng.randrange(4))
    a = _random_field(rng, depth + 1)
    b = _random_field(rng, depth + 1)
    return rng.choice([sf.add, sf.sub, sf.mul])(a, b)


def _random_form(rng, degree, coframe=forms.DH):
    keys = list(itertools.combinations(range(4), degree))
    return forms.VerticalForm(coframe, degree,
                              {k: _random_field(rng) for k in keys})


def test_wedge_basics():
    rng = _rng()
    d0 = forms.dh(0)
    assert forms.wedge(d0, d0).is_structurally_zero()
    ab = forms.wedge(forms.dh(0), forms.dh(1))
    ba = forms.wedge(forms.dh(1), forms.dh(0))
    assert ab.terms == {(0, 1): sf.ONE}
    assert sf.constant_value(ba.terms[(0, 1)]) == -1
    top = forms.wedge_all([forms.alpha(i) for i in range(4)])
    assert top.terms == {(0, 1, 2, 3): sf.ONE}


def test_wedge_graded_anticommutative():
    rng = _rng()
    for _ in range(15):
        p = rng.randrange(0, 4)
        q = rng.randrange(0, 4 - p) if p < 4 else 0
        u = _random_form(rng, p)
        v = _random_form(rng, q)
        uv = forms.wedge(u, v)
        vu = forms.scale(sf.const((-1) ** (p * q)), forms.wedge(v, u))
        rep = forms.equal(uv, vu, trials=15, rng=rng, rational=True)
        assert rep.equal and rep.max_residual == 0.0


def test_wedge_coframe_mismatch():
    with pytest.raises(forms.CoframeError):
        forms.wedge(forms.dh(0), forms.alpha(1))


def test_d_basics():
    # d(h0 dh1) = dh0 ^ dh1
    u = forms.VerticalForm(forms.DH, 1, {(1,): sf.H0})
    du = forms.d(u)
    assert du.terms == {(0, 1): sf.ONE}
    assert forms.d(forms.dh(2)).is_structurally_zero()
    with pytest.raises(forms.CoframeError):
        forms.d(forms.alpha(0))


def test_d_squared_and_leibniz_random():
    rng = _rng()
    for _ in range(15):
        p = rng.randrange(0, 3)
        u = _random_form(rng, p)
        assert forms.is_zero_form(forms.d(forms.d(u)), trials=15, rng=rng,
                                  rational=True).equal
        q = rng.randrange(0, 4 - p)
        v = _random_form(rng, q)
        lhs = forms.d(forms.wedge(u, v))
        rhs = forms.add(forms.wedge(forms.d(u), v),
                        forms.scale(sf.const((-1) ** p),
                                    forms.wedge(u, forms.d(v))))
        assert forms.equal(lhs, rhs, trials=15, rng=rng, rational=True).equal


def test_to_dh_identity_at_section_point():
    point = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for i in range(4):
        for j in range(4):
            value = forms.ALPHA_IN_DH[i].coefficient((j,)).evaluate(point)
            assert value == (1 if i == j else 0)


def test_to_dh_rejects_dh_input():
    with pytest.raises(forms.CoframeError):
        forms.to_dh(forms.dh(0))


def test_alpha_expansions_match_stated_rows():
    # a_i = t^-3 * (M row i); check numerically at a rational point where
    # t is rational: |h| = (2, 1, 2, 4) has t = 5
    h = (Fraction(2), Fraction(1), Fraction(2), Fraction(4))
    t3 = Fraction(125)
    m_rows = [
        (h[0], h[1], h[2], h[3]),
        (-h[1], h[0], h[3], -h[2]),
        (-h[2], -h[3], h[0], h[1]),
        (-h[3], h[2], -h[1], h[0]),
    ]
    for i in range(4):
        for j in range(4):
            got = forms.ALPHA_IN_DH[i].coefficient((j,)).evaluate(h)
            assert got == Fraction(m_rows[i][j], 1) / t3


def test_maurer_cartan_oracle_exact():
    rng = _rng()
    for _ in range(50):
        h = Quaternion(*forms.sample_rational_point(rng))
        assert forms.maurer_cartan_components(h) == forms.theta_components_at(h)


def test_dalpha0_zero():
    rng = _rng()
    rep = forms.is_zero_form(forms.d(forms.ALPHA_IN_DH[0]), trials=100,
                             tolerance=1e-10, rng=rng)
    assert rep.equal


def test_structure_equations():
    rng = _rng()
    for a in (1, 2, 3):
        lhs = forms.d(forms.ALPHA_IN_DH[a])
        rhs = forms.to_dh(forms.structure_dalpha(a))
        rep = forms.equal(lhs, rhs, trials=100, tolerance=1e-10, rng=rng)
        assert rep.equal, (a, rep.max_residual)


def test_pullback_rules():
    # a = 1: a0 -> a1, a1 -> -a0, a2 -> -a3, a3 -> a2
    images = {0: (1, 1), 1: (0, -1), 2: (3, -1), 3: (2, 1)}
    for i, (j, sign) in images.items():
        out = forms.pullback_hyper(forms.alpha(i), 1)
        assert list(out.terms) == [(j,)]
        assert sf.constant_value(out.terms[(j,)]) == sign


def test_pullback_beta_invariance_exact():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            form = beta_basis_form(b)
            pulled = forms.pullback_hyper(form, a)
            assert set(pulled.terms) == set(form.terms)
            for key in form.terms:
                assert sf.is_zero(sf.sub(pulled.terms[key], form.terms[key]))


def test_pullback_squares():
    for a in (1, 2, 3):
        for i in range(4):
            twice = forms.pullback_hyper(
                forms.pullback_hyper(forms.alpha(i), a), a)
            assert sf.constant_value(twice.terms[(i,)]) == -1
        two_form = forms.wedge(forms.alpha(0), forms.alpha(a))
        twice = forms.pullback_hyper(forms.pullback_hyper(two_form, a), a)
        assert sf.constant_value(twice.terms[(0, a)]) == 1


def test_pullback_requires_alpha():
    with pytest.raises(forms.CoframeError):
        forms.pullback_hyper(forms.dh(0), 1)


def test_top_form_determinant_oracle():
    rng = _rng()
    top = forms.to_dh(forms.wedge_all([forms.alpha(i) for i in range(4)]))

    def det4(m):
        total = sf.ZERO
        for perm in itertools.permutations(range(4)):
            inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                      if perm[i] > perm[j])
            term = sf.ONE
            for r in range(4):
                term = sf.mul(term, m[r][perm[r]])
            total = sf.add(total, term if inv % 2 == 0 else sf.neg(term))
        return total

    sub_matrix = [[sf.mul(sf.pow_(forms.T, -3), forms.COFRAME_MATRIX[i][j])
                   for j in range(4)] for i in range(4)]
    want = forms.VerticalForm(forms.DH, 4, {(0, 1, 2, 3): det4(sub_matrix)})
    assert forms.equal(top, want, trials=60, rng=rng).equal
    # the substitution matrix itself has determinant t^4, so the top
    # coefficient is t^-12 * t^4 = t^-8
    detM = det4([list(row) for row in forms.COFRAME_MATRIX])
    delta = sf.sub(detM, sf.pow_(forms.T2, 2))
    for _ in range(40):
        point = forms.sample_rational_point(rng)
        assert delta.evaluate(tuple(point)) == 0


def test_d_via_structure_requires_constants():
    varying = forms.VerticalForm(forms.ALPHA, 1, {(0,): sf.H0})
    with pytest.raises(ValueError):
        forms.d_via_structure(varying)


def test_equal_detects_difference():
    u = forms.VerticalForm(forms.DH, 1, {(0,): sf.H1})
    v = forms.VerticalForm(forms.DH, 1, {(0,): sf.H2})
    rep = forms.equal(u, v, trials=20, rng=_rng())
    assert not rep.equal and rep.witness is not None


def test_equal_syntactic_fast_path():
    u = forms.VerticalForm(forms.DH, 2, {(0, 1): sf.parse("h0+h1")})
    rep = forms.equal(u, u.copy(), trials=5, rng=_rng())
    assert rep.equal and rep.syntactic


# --- the sampler -----------------------------------------------------------------

_UNDEFINED = sf.sqrt(sf.sub(sf.const(-1), sf.pow_(sf.H0, 2)))  # nowhere real


def test_sample_without_rejections_matches_sample_point_loop():
    fields = (sf.H0, sf.mul(sf.H1, sf.H3))
    got = list(forms.sample(fields, 25, random.Random(5)))
    rng = random.Random(5)
    want = [forms.sample_point(rng) for _ in range(25)]
    assert [point for point, _ in got] == want
    assert [values for _, values in got] == [[p[0], p[1] * p[3]] for p in want]


def test_sample_redraws_only_rejected_points():
    # sqrt(h0) is rejected exactly where h0 < 0
    got = list(forms.sample((sf.sqrt(sf.H0),), 40, random.Random(8)))
    rng = random.Random(8)
    want, redrawn = [], 0
    while len(want) < 40:
        point = forms.sample_point(rng)
        if point[0] >= 0:
            want.append(point)
        else:
            redrawn += 1
    assert redrawn > 0
    assert [point for point, _ in got] == want
    assert all(values == [p[0] ** 0.5] for p, values in got)


def test_sample_rational_points_are_exact_points():
    got = list(forms.sample((sf.div(sf.ONE, sf.H0),), 20, random.Random(3),
                            rational=True))
    rng, want = random.Random(3), []
    while len(want) < 20:
        point = forms.sample_rational_point(rng)
        if point[0] != 0:
            want.append(point)
    assert [point for point, _ in got] == want
    assert all(values == [float(1 / p[0])] for p, values in got)


def test_sample_error_counts_rejections_by_type():
    # h0 > 0: sqrt(-h0) raises ValueError; h0 < 0: 1/(2 h0 - (h0 + h0)),
    # which does not fold but is 0.0 at every float point, raises
    # ZeroDivisionError
    zero = sf.sub(sf.mul(sf.TWO, sf.H0), sf.add(sf.H0, sf.H0))
    fields = (sf.sqrt(sf.neg(sf.H0)), sf.div(sf.ONE, zero))
    with pytest.raises(forms.SamplingError) as err:
        list(forms.sample(fields, 5, random.Random(1)))
    exc = err.value
    assert exc.evaluated == 0 and exc.rejected == forms.MAX_DRAWS == 64
    assert set(exc.reasons) == {"ValueError", "ZeroDivisionError"}
    assert sum(exc.reasons.values()) == 64
    assert "ValueError" in str(exc) and "ZeroDivisionError" in str(exc)
    # missing evidence is not a ValueError, which callers read as bad input
    assert not isinstance(exc, ValueError)


def test_sample_does_not_reject_overflow():
    with pytest.raises(OverflowError):
        list(forms.sample((sf.exp(sf.mul(sf.const(1000), sf.H0)),), 100,
                          random.Random(2)))


def test_equal_on_undefined_form_raises_sampling_error():
    u = forms.VerticalForm(forms.DH, 1, {(0,): _UNDEFINED})
    with pytest.raises(forms.SamplingError) as err:
        forms.equal(u, forms.zero_form(1), trials=10, rng=_rng())
    assert err.value.evaluated == 0
    assert err.value.reasons == {"ValueError": 64}


@pytest.mark.parametrize("trials", [0, -1])
def test_sample_rejects_fewer_than_one_trial(trials):
    # no verdict may rest on zero points: the call itself raises, before
    # any point is drawn
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match="at least one trial"):
        forms.sample((sf.H0,), trials, rng)
    assert rng.getstate() == state


def test_equal_with_zero_trials_raises():
    # u and 2u differ, so a verdict of equal=True after zero points is wrong
    u = forms.scalar_form(sf.H1)
    with pytest.raises(ValueError, match="at least one trial"):
        forms.equal(u, forms.scale(2, u), trials=0, rng=_rng())
    assert not forms.equal(u, forms.scale(2, u), trials=1, rng=_rng()).equal

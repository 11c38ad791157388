import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsh_lab import forms
from qsh_lab import scalarfield as sf
from qsh_lab import suites
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


def test_equal_refuses_two_coframes_or_degrees():
    # the caller converts: an ALPHA form is compared after to_dh
    rng = _rng()
    state = rng.getstate()
    for u, v in ((forms.alpha(0), forms.ALPHA_IN_DH[0]), (forms.dh(0), forms.zero_form(2))):
        with pytest.raises(forms.CoframeError):
            forms.equal(u, v, trials=5, rng=rng)
    assert rng.getstate() == state
    assert forms.equal(forms.to_dh(forms.alpha(0)), forms.ALPHA_IN_DH[0], trials=5,
                       rng=rng).equal


def test_d_basics():
    # d(h0 dh1) = dh0 ^ dh1
    u = forms.VerticalForm(forms.DH, 1, {(1,): sf.H0})
    du = forms.d(u)
    assert du.terms == {(0, 1): sf.ONE}
    assert forms.d(forms.dh(2)).is_structurally_zero()
    with pytest.raises(forms.CoframeError):
        forms.d(forms.alpha(0))


def test_forms_past_degree_four_are_empty_5_forms():
    top = forms.VerticalForm(forms.DH, 4, {(0, 1, 2, 3): sf.H0})
    past = [forms.d(top), forms.wedge(top, forms.dh(1)),
            forms.wedge(forms.wedge(forms.dh(0), forms.dh(1)),
                        forms.VerticalForm(forms.DH, 3, {(1, 2, 3): sf.H2}))]
    assert [(u.degree, u.terms) for u in past] == [(5, {})] * 3


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
    theta = sf.evaluator([forms.THETA_IN_DH[i].coefficient((b,))
                          for i in range(4) for b in range(4)])
    for _ in range(50):
        point = forms.sample_rational_point(rng)
        mc = forms.maurer_cartan_components(Quaternion(*point))
        assert tuple(c for row in mc for c in row) == theta(point)


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


def test_d_differentiates_each_distinct_node_once_per_variable(monkeypatch):
    # an ALPHA 2-form in DH: its six coefficients share t, t^-3 and the
    # coframe rows, each reached by many paths
    u = forms.to_dh(forms.wedge(forms.alpha(1), forms.alpha(2)))
    calls = Counter()
    node_types = {type(node) for f in u.terms.values()
                  for node in _nodes(f)}
    for kind in node_types:
        rule = kind._d

        def counted(node, var, d, rule=rule):
            calls[id(node), var] += 1
            return rule(node, var, d)
        monkeypatch.setattr(kind, "_d", counted)
    forms.d(u)
    assert calls and max(calls.values()) == 1


def _nodes(field):
    """Every node under field, each once."""
    seen, stack = {}, [field]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, k) for k in ("a", "b") if hasattr(node, k))
    return seen.values()


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
    # differences that fold to constants are decided without drawing a point
    u = forms.VerticalForm(forms.DH, 2, {(0, 1): sf.parse("h0+h1")})
    rng = _rng()
    state = rng.getstate()
    assert forms.equal(u, forms.VerticalForm(forms.DH, 2, dict(u.terms)), trials=5,
                       rng=rng).equal
    shifted = forms.add(u, forms.VerticalForm(forms.DH, 2, {(0, 2): sf.ONE}))
    assert forms.equal(u, shifted, trials=5, rng=rng) == \
        forms.EqualityReport(False, 1.0)
    assert rng.getstate() == state


# --- the sampler -----------------------------------------------------------------

_UNDEFINED = sf.sqrt(sf.sub(sf.const(-1), sf.pow_(sf.H0, 2)))  # nowhere real


def _reference_sample_point(rng, lo=0.5, hi=2.0):
    while True:
        p = tuple(rng.uniform(-hi, hi) for _ in range(4))
        if lo <= sum(x * x for x in p) ** 0.5 <= hi:
            return p


def test_sample_point_matches_uniform_reference():
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            assert forms.sample_point(rng) == _reference_sample_point(ref)
        assert rng.getstate() == ref.getstate()


def test_sample_without_rejections_matches_sample_point_loop():
    fields = (sf.H0, sf.mul(sf.H1, sf.H3))
    got = list(forms.sample(fields, 25, random.Random(5)))
    rng = random.Random(5)
    want = [forms.sample_point(rng) for _ in range(25)]
    assert [point for point, _ in got] == want
    assert [values for _, values in got] == [[p[0], p[1] * p[3]] for p in want]


def test_vanishes_samples_constant_fields():
    # a constant field is evaluated like any other, so vanishes draws the
    # points that sample draws for the same fields, redraws included
    for fields in [(sf.ZERO,), (sf.ONE, sf.sqrt(sf.H0), sf.ZERO),
                   (sf.const(Fraction(1, 3)), sf.sqrt(sf.H1))]:
        rng, ref = random.Random(6), random.Random(6)
        forms.vanishes(fields, 15, 1e-10, rng)
        list(forms.sample(fields, 15, ref))
        assert rng.getstate() == ref.getstate()


def _reference_vanishes(fields, trials, tolerance, rng, rational):
    """vanishes as a loop over one evaluator: draw, redraw on
    ZeroDivisionError or ValueError, and keep the worst |value|, a nan
    counting as inf; at exact points the first exact nonzero value fails,
    with its own residual or ulp(0)."""
    evaluate = sf.evaluator(fields)
    draw = forms.sample_rational_point if rational else forms.sample_point
    worst, witness, failure, reasons = 0.0, None, None, Counter()
    for evaluated in range(trials):
        for _ in range(forms.MAX_DRAWS):
            point = draw(rng)
            try:
                values = evaluate(point)
                break
            except (ZeroDivisionError, ValueError) as exc:
                reasons[type(exc).__name__] += 1
        else:
            raise forms.SamplingError(evaluated, reasons)
        nonzero = any(v and type(v) is not float for v in values)
        residual = max(abs(float(v)) if v == v else math.inf for v in values)
        if rational and nonzero and failure is None:
            failure = forms.EqualityReport(False, residual or math.ulp(0.0), point)
        if residual > worst:
            worst, witness = residual, point
    if worst > tolerance:
        return forms.EqualityReport(False, worst, witness)
    return failure or forms.EqualityReport(True, worst)


def _outcome(vanishes, fields, trials, tolerance, seed, rational):
    """What vanishes returns or raises, and the rng's state after it."""
    rng = random.Random(seed)
    try:
        result = vanishes(fields, trials, tolerance, rng, rational)
        result = (result.equal, result.max_residual.hex(), result.witness)
    except forms.SamplingError as exc:
        result = ("no evidence", exc.evaluated, exc.reasons, str(exc))
    return result, rng.getstate()


@given(st.integers(0, 2 ** 32), st.integers(1, 3),
       st.sets(st.sampled_from(["sqrt", "constant", "zero", "nan"])),
       st.integers(1, 30), st.sampled_from([0.0, 1e-10, 1.0, math.inf]),
       st.booleans())
@settings(max_examples=160, deadline=None)
def test_vanishes_matches_a_reference_loop(seed, count, extras, trials, tolerance,
                                           rational):
    # fields as the sampled suites build them, with a field that forces
    # redraws (sqrt(h0)), constant fields and a nan; the worst residual
    # agrees bit for bit, with its witness and every draw, at float and
    # at exact points
    rng = random.Random(seed)
    fields = [suites._random_field(rng) for _ in range(count)]
    fields += [{"sqrt": sf.sqrt(sf.H0), "zero": sf.ZERO,
                "constant": sf.const(Fraction(rng.randint(-9, 9), 7)),
                "nan": sf.mul(sf.const(math.nan), sf.H1)}[e]
               for e in sorted(extras)]
    assert (_outcome(forms.vanishes, fields, trials, tolerance, seed, rational)
            == _outcome(_reference_vanishes, fields, trials, tolerance, seed, rational))


def test_vanishes_without_evidence_matches_the_reference_loop():
    for fields, rational in itertools.product(
            [(_UNDEFINED,), (sf.H0, _UNDEFINED),
             (sf.sqrt(sf.neg(sf.H0)), sf.div(sf.ONE, sf.sub(
                 sf.mul(sf.TWO, sf.H0), sf.add(sf.H0, sf.H0))))], (False, True)):
        got = _outcome(forms.vanishes, fields, 5, 1e-10, 4, rational)
        assert got[0][0] == "no evidence"
        assert got == _outcome(_reference_vanishes, fields, 5, 1e-10, 4, rational)


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


def test_vanishes_redraws_rejected_rational_points_in_order(monkeypatch):
    # 1/h0 is rejected exactly where h0 = 0
    real, drawn = forms.sample_rational_point, []
    monkeypatch.setattr(forms, "sample_rational_point",
                        lambda rng: drawn.append(real(rng)) or drawn[-1])
    rep = forms.vanishes((sf.div(sf.ONE, sf.H0),), 20, 0.0, random.Random(3),
                         rational=True)
    rng, want, every = random.Random(3), [], []
    while len(want) < 20:
        every.append(real(rng))
        if every[-1][0] != 0:
            want.append(every[-1])
    assert len(every) > len(want)
    assert drawn == every
    worst = max(want, key=lambda p: abs(1 / p[0]))  # the first point reaching it
    assert rep == forms.EqualityReport(False, float(abs(1 / worst[0])), worst)


def test_vanishes_fails_an_exact_nonzero_value_at_rational_points():
    # h0 h1 - h1 h0 + 10^-12 is exactly 10^-12, within the tolerance
    tiny = sf.const(Fraction(1, 10 ** 12))
    field = sf.add(sf.sub(sf.mul(sf.H0, sf.H1), sf.mul(sf.H1, sf.H0)), tiny)
    assert forms.vanishes([field], 20, 1e-10, random.Random(3)).equal
    rep = forms.vanishes([field], 20, 1e-10, random.Random(3), rational=True)
    assert not rep.equal
    assert rep.max_residual == 1e-12
    assert rep.witness == forms.sample_rational_point(random.Random(3))
    exact_zero = sf.sub(sf.mul(sf.H0, sf.H1), sf.mul(sf.H1, sf.H0))
    assert forms.vanishes([exact_zero], 20, 0.0, random.Random(3), rational=True).equal
    # an exact value that rounds to 0.0 still fails, with a positive residual
    underflow = sf.add(exact_zero, sf.const(Fraction(1, 10 ** 400)))
    rep = forms.vanishes([underflow], 20, 1e-10, random.Random(3), rational=True)
    assert not rep.equal and rep.max_residual == math.ulp(0.0)


def test_sample_error_counts_rejections_by_type():
    # h0 > 0: sqrt(-h0) raises ValueError; h0 <= 0: 1/(2 h0 - (h0 + h0)),
    # which does not fold but is 0 at every point, raises ZeroDivisionError.
    # Python's operators raise both, at float and at exact points alike
    zero = sf.sub(sf.mul(sf.TWO, sf.H0), sf.add(sf.H0, sf.H0))
    fields = (sf.sqrt(sf.neg(sf.H0)), sf.div(sf.ONE, zero))
    for scan in (lambda fields: list(forms.sample(fields, 5, random.Random(1))),
                 lambda fields: forms.vanishes(fields, 5, 0.0, random.Random(1),
                                               rational=True)):
        with pytest.raises(forms.SamplingError) as err:
            scan(fields)
        exc = err.value
        assert exc.evaluated == 0 and exc.rejected == forms.MAX_DRAWS == 64
        assert set(exc.reasons) == {"ValueError", "ZeroDivisionError"}
        assert sum(exc.reasons.values()) == 64
        assert "ValueError" in str(exc) and "ZeroDivisionError" in str(exc)
        # missing evidence is not a ValueError, which callers read as bad input
        assert not isinstance(exc, ValueError)
        # a negative power of that zero fails only by ZeroDivisionError
        with pytest.raises(forms.SamplingError) as err:
            scan((sf.pow_(zero, -2),))
        assert err.value.reasons == {"ZeroDivisionError": 64}
        # the sqrt of a negative constant that float() rounds to -0.0
        tiny = sf.sqrt(sf.const(Fraction(-1, 10 ** 400)))
        with pytest.raises(forms.SamplingError) as err:
            scan((sf.add(sf.H0, tiny),))
        assert err.value.reasons == {"ValueError": 64}


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


def test_nan_value_is_an_infinite_residual():
    # each product overflows to inf, so the difference is inf - inf = nan
    # at every float point although the field contains + h2
    X = str(10 ** 200)
    field = sf.parse(f"{X}*h0*{X}*h1 - {X}*h0*{X}*h1 + h2")
    rep = forms.is_zero_form(forms.scalar_form(field), trials=20,
                             rng=random.Random(1))
    assert not rep.equal
    assert rep.max_residual == math.inf
    assert rep.witness is not None
    # and so in vanishes, wherever the nan stands among the values, and
    # in a constant difference that equal decides without sampling
    nan = sf.mul(sf.const(math.nan), sf.H0)
    for fields in [(nan, sf.H0), (sf.H0, nan), (nan,)]:
        rep = forms.vanishes(fields, 5, 1e-10, random.Random(1))
        assert not rep.equal and rep.max_residual == math.inf
    rep = forms.is_zero_form(forms.scalar_form(sf.const(math.nan)), rng=_rng())
    assert not rep.equal and rep.max_residual == math.inf

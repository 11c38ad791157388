import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsh_lab import scalarfield as sf

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def fields(draw, depth=0):
    if depth >= 3:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 6))
    if choice == 0:
        return sf.const(draw(rationals))
    if choice == 1:
        return sf.var(draw(st.integers(0, 3)))
    a = draw(fields(depth=depth + 1))
    b = draw(fields(depth=depth + 1))
    if choice == 2:
        return sf.add(a, b)
    if choice == 3:
        return sf.sub(a, b)
    if choice == 4:
        return sf.mul(a, b)
    if choice == 5:
        return sf.pow_(a, draw(st.integers(1, 3)))
    return sf.neg(a)


@given(fields(), st.tuples(rationals, rationals, rationals, rationals))
@settings(max_examples=80, deadline=None)
def test_polynomial_evaluation_is_exact(field, point):
    value = field.evaluate(point)
    assert isinstance(value, Fraction)


@given(fields())
@settings(max_examples=80, deadline=None)
def test_print_parse_roundtrip(field):
    reparsed = sf.parse(field.to_str())
    point = (Fraction(1, 3), Fraction(-1, 2), Fraction(2), Fraction(5, 7))
    assert reparsed.evaluate(point) == field.evaluate(point)


@given(fields(), st.integers(0, 3),
       st.tuples(rationals, rationals, rationals, rationals))
@settings(max_examples=60, deadline=None)
def test_polynomial_derivative_matches_difference_quotient(field, i, point):
    # exact check: for polynomial f, f(x + e_i h) - f(x) = h * df/dx_i(x) + O(h^2),
    # so compare the symbolic derivative against the exact finite difference
    # with two step sizes via Richardson extrapolation on degree <= small trees
    h = Fraction(1, 128)
    up = list(point)
    up[i] += h
    down = list(point)
    down[i] -= h
    central = (field.evaluate(tuple(up)) - field.evaluate(tuple(down))) / (2 * h)
    sym = field.diff(i).evaluate(point)
    # central difference of a polynomial has error polynomial in h; repeat
    # with h/2 and extrapolate to cancel the quadratic term exactly for
    # degree <= 3 trees; for deeper trees allow the envelope
    h2 = h / 2
    up2, down2 = list(point), list(point)
    up2[i] += h2
    down2[i] -= h2
    central2 = (field.evaluate(tuple(up2)) - field.evaluate(tuple(down2))) / (2 * h2)
    richardson = (4 * central2 - central) / 3
    assert abs(float(richardson - sym)) < 1e-3


def test_transcendental_derivatives_finite_difference():
    rng = random.Random(5)
    field = sf.parse("exp(h0*h1)*sin(h2) + sqrt(h0^2+h3^2+1) - cos(h1)/(h3+2)")
    for _ in range(40):
        point = tuple(rng.uniform(0.3, 1.4) for _ in range(4))
        for i in range(4):
            eps = 1e-6
            up, down = list(point), list(point)
            up[i] += eps
            down[i] -= eps
            fd = (field.evaluate(tuple(up)) - field.evaluate(tuple(down))) / (2 * eps)
            sym = field.diff(i).evaluate(point)
            assert abs(fd - sym) < 1e-5 * max(1.0, abs(sym))


def test_exact_sqrt_and_special_values():
    assert sf.sqrt(sf.const(Fraction(9, 4))).value == Fraction(3, 2)
    assert isinstance(sf.sqrt(sf.const(2)), sf.Sqrt)
    assert sf.exp(sf.ZERO).value == 1
    assert sf.sin(sf.ZERO).value == 0
    assert sf.cos(sf.ZERO).value == 1
    v = sf.parse("sqrt(h0)").evaluate((Fraction(4), 0, 0, 0))
    assert v == Fraction(2) and isinstance(v, Fraction)
    v = sf.parse("sqrt(h0)").evaluate((Fraction(2), 0, 0, 0))
    assert isinstance(v, float) and abs(v - math.sqrt(2)) < 1e-15


def test_even_powers_of_sqrt_fold_rational():
    t = sf.pow_(sf.sqrt(sf.parse("h0^2+h1^2")), -4)
    value = t.evaluate((Fraction(1), Fraction(2), 0, 0))
    assert value == Fraction(1, 25)


def test_constant_folding():
    assert sf.constant_value(sf.parse("2*3 - 6")) == 0
    assert sf.constant_value(sf.parse("exp(0)*7")) == 7
    assert sf.is_zero(sf.mul(sf.ZERO, sf.parse("exp(h0)")))
    assert sf.mul(sf.ONE, sf.H1) is sf.H1
    assert sf.add(sf.ZERO, sf.H2) is sf.H2


def test_division_by_zero_raises():
    field = sf.parse("1/h0")
    with pytest.raises(ZeroDivisionError):
        field.evaluate((Fraction(0), 0, 0, 0))
    with pytest.raises(ZeroDivisionError):
        sf.parse("h1/0")


def test_negative_power_of_zero_raises():
    field = sf.parse("h0^-2")
    with pytest.raises(ZeroDivisionError):
        field.evaluate((Fraction(0), 0, 0, 0))


def test_parse_error_positions():
    with pytest.raises(sf.ParseError) as err:
        sf.parse("h0 +\n foo")
    assert err.value.line == 2 and err.value.col == 2
    with pytest.raises(sf.ParseError):
        sf.parse("h0 ^ h1")
    with pytest.raises(sf.ParseError):
        sf.parse("sin h0")
    with pytest.raises(sf.ParseError):
        sf.parse("(h0 + h1")
    with pytest.raises(sf.ParseError):
        sf.parse("h0 @ h1")
    with pytest.raises(sf.ParseError):
        sf.parse("h0 h1")


def test_parse_nesting_cap():
    cap = sf.MAX_NESTING
    # parentheses, function calls and unary minus all count
    for opening, closing in (("(", ")"), ("sqrt(", ")"), ("-", "")):
        assert sf.parse(opening * cap + "h0" + closing * cap) is not None
        with pytest.raises(sf.ParseError) as err:
            sf.parse(opening * (cap + 1) + "h0" + closing * (cap + 1))
        assert "nesting deeper than" in str(err.value)
        assert (err.value.line, err.value.col) == (1, 1 + cap * len(opening))
    mixed = "-(exp(" * (cap // 3) + "h1" + "))" * (cap // 3)
    assert sf.parse(mixed) is not None
    with pytest.raises(sf.ParseError):
        sf.parse("-(exp(" * (cap // 3 + 1) + "h1" + "))" * (cap // 3 + 1))
    with pytest.raises(sf.ParseError) as err:
        sf.parse("\n" + "(" * 5000 + "h0" + ")" * 5000)
    assert (err.value.line, err.value.col) == (2, 1 + cap)


def test_decimal_literals_parse_exactly():
    assert sf.parse("1.5").value == Fraction(3, 2)
    assert sf.parse("0.1").value == Fraction(1, 10)


def test_gradient_and_free_vars():
    field = sf.parse("h0^2*h3 + 4")
    assert field.free_vars() == {0, 3}
    grads = sf.gradient(field)
    assert sf.is_zero(grads[1]) and sf.is_zero(grads[2])
    assert grads[0].evaluate((Fraction(2), 0, 0, Fraction(5))) == 20

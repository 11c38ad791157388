import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsh_lab import scalarfield as sf

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def fields(draw, depth=0, transcendental=False):
    """Polynomial trees; with transcendental=True also div, negative
    powers, sqrt, exp, sin and cos."""
    if depth >= 3:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 11 if transcendental else 6))
    if choice == 0:
        return sf.const(draw(rationals))
    if choice == 1:
        return sf.var(draw(st.integers(0, 3)))
    a = draw(fields(depth=depth + 1, transcendental=transcendental))
    b = draw(fields(depth=depth + 1, transcendental=transcendental))
    if choice == 2:
        return sf.add(a, b)
    if choice == 3:
        return sf.sub(a, b)
    if choice == 4:
        return sf.mul(a, b)
    if choice == 5:
        k = draw(st.integers(-2 if transcendental else 1, 3))
        return sf.pow_(a, abs(k) if sf.is_zero(a) else k)
    if choice == 6:
        return sf.neg(a)
    if choice == 7:
        return a if sf.is_zero(b) else sf.div(a, b)
    return (sf.sqrt, sf.exp, sf.sin, sf.cos)[choice - 8](a)


def reference(field, point, memo):
    """The recursive interpreter the tape replaced: an id-keyed memo on
    every node but constants, variables and negations."""
    if isinstance(field, sf.Const):
        return field.value
    if isinstance(field, sf.Var):
        return point[field.index]
    if isinstance(field, sf.Neg):
        return -reference(field.a, point, memo)
    if id(field) in memo:
        return memo[id(field)]
    a = reference(field.a, point, memo)
    if isinstance(field, sf.Pow):
        if field.exponent < 0 and a == 0:
            raise ZeroDivisionError("negative power of zero")
        v = a ** field.exponent
    elif isinstance(field, sf.Sqrt):
        if a < 0:
            raise ValueError("sqrt of a negative value")
        exact = sf._exact_sqrt(a) if isinstance(a, Fraction) else None
        v = exact if exact is not None else math.sqrt(a)
    elif isinstance(field, (sf.Exp, sf.Sin, sf.Cos)):
        v = {sf.Exp: math.exp, sf.Sin: math.sin, sf.Cos: math.cos}[type(field)](a)
    else:
        b = reference(field.b, point, memo)
        if isinstance(field, sf.Add):
            v = a + b
        elif isinstance(field, sf.Sub):
            v = a - b
        elif isinstance(field, sf.Mul):
            v = a * b
        else:
            if b == 0:
                raise ZeroDivisionError("scalar field denominator vanished")
            v = a / b
    memo[id(field)] = v
    return v


def outcome(fn):
    """The value of fn(), or the type and message of what it raised."""
    try:
        return ("value", fn())
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc))


def same(x, y):
    """Equal outcomes, floats compared bit for bit (sign of zero, NaNs)."""
    if x[0] != y[0] or x[0] == "raised":
        return x == y
    if len(x[1]) != len(y[1]):
        return False
    for u, v in zip(x[1], y[1]):
        if type(u) is not type(v):
            return False
        if isinstance(u, float):
            if struct.pack("<d", u) != struct.pack("<d", v):
                return False
        elif u != v:
            return False
    return True


def assert_matches_reference(field_list, point):
    memo = {}
    want = outcome(lambda: tuple(reference(f, point, memo) for f in field_list))
    got = outcome(lambda: sf.evaluator(field_list)(point))
    assert same(got, want), (got, want)


floats = st.floats(min_value=-3, max_value=3, allow_nan=False)


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


@given(st.lists(fields(transcendental=True), min_size=1, max_size=3),
       st.tuples(floats, floats, floats, floats))
@settings(max_examples=300, deadline=None)
def test_evaluator_matches_reference_at_float_points(field_list, point):
    # shared subtrees: the sum reuses the listed trees
    field_list.append(sf.add(field_list[0], field_list[-1]))
    assert_matches_reference(field_list, point)


@given(st.lists(fields(transcendental=True), min_size=1, max_size=3),
       st.tuples(rationals, rationals, rationals, rationals))
@settings(max_examples=300, deadline=None)
def test_evaluator_matches_reference_at_rational_points(field_list, point):
    field_list.append(sf.mul(field_list[0], field_list[-1]))
    assert_matches_reference(field_list, point)


@given(fields(), st.tuples(rationals, rationals, rationals, rationals))
@settings(max_examples=80, deadline=None)
def test_evaluator_keeps_rational_values_exact(field, point):
    value, = sf.evaluator((field,))(point)
    assert isinstance(value, Fraction)
    assert value == reference(field, point, {})


def test_first_failing_field_raises():
    at = (1.0, 0.0, 0.0, 0.0)
    overflowing = sf.exp(sf.mul(sf.const(1000), sf.H0))
    zero_denominator = sf.div(sf.ONE, sf.sub(sf.H0, sf.ONE))
    with pytest.raises(OverflowError):
        sf.evaluator([overflowing, zero_denominator])(at)
    with pytest.raises(ZeroDivisionError, match="denominator vanished"):
        sf.evaluator([zero_denominator, overflowing])(at)
    # within one node, a is evaluated before b
    with pytest.raises(OverflowError):
        sf.evaluator([sf.add(overflowing, zero_denominator)])(at)
    with pytest.raises(ZeroDivisionError):
        sf.evaluator([sf.mul(zero_denominator, overflowing)])(at)
    for pair in ([overflowing, zero_denominator], [zero_denominator, overflowing]):
        assert_matches_reference(pair, at)


def test_variable_free_raising_subtree_raises_at_every_point():
    doomed = sf.sqrt(sf.const(-1))
    field = sf.add(sf.H0, sf.mul(doomed, sf.H1))
    evaluate = sf.evaluator([sf.H2, field])  # building does not raise
    for point in ((1.0, 2.0, 3.0, 4.0), (Fraction(1), 0, 0, 0), (0, 0, 0, 0)):
        with pytest.raises(ValueError, match="sqrt of a negative value"):
            evaluate(point)
        assert_matches_reference([sf.H2, field], point)


@pytest.mark.parametrize("field", [
    # float(c) overflows: the error comes from the operation, as before
    sf.mul(sf.const(10 ** 400), sf.H0),
    # float(c) rounds to 0.0 although c != 0
    sf.div(sf.H0, sf.const(Fraction(1, 10 ** 400))),
    sf.add(sf.const(Fraction(1, 3)), sf.mul(sf.H1, sf.const(Fraction(-2, 7)))),
    sf.div(sf.const(Fraction(5, 3)), sf.sqrt(sf.sub(sf.H0, sf.const(2)))),
])
def test_constants_at_float_points_match_reference(field):
    for point in ((1.5, -0.25, 0.0, -0.0), (2.0, 1e-300, 3.0, 4.0),
                  (Fraction(3, 2), Fraction(-1, 4), 0, 0)):
        assert_matches_reference([field], point)


def test_deep_chain_evaluates_without_recursion():
    field = sf.H0
    for _ in range(5000):
        field = sf.add(field, sf.H1)
    assert sf.evaluator([field])((1.0, 2.0, 0.0, 0.0)) == (10001.0,)
    assert field.evaluate((Fraction(1), Fraction(1, 2), 0, 0)) == 2501


@pytest.mark.parametrize("op", ["-", "*", "+", "/"])
def test_parse_chain_counts_toward_nesting_cap(op):
    cap = sf.MAX_NESTING
    assert sf.parse(op.join(["h1"] * (cap + 1))) is not None
    with pytest.raises(sf.ParseError) as err:
        sf.parse(op.join(["h1"] * 3000))
    assert "nesting deeper than" in str(err.value)
    # the operator that makes the tree cap + 1 levels deep
    assert (err.value.line, err.value.col) == (1, 3 * (cap + 1))


def test_parse_caps_tree_height_not_just_open_nesting():
    # a deep first operand followed by a long chain: never more than 61
    # levels open at once, but the tree is 120 deep
    text = "(" + "sqrt(" * 60 + "h0" + ")" * 60 + "+h0" * 60 + ")"
    with pytest.raises(sf.ParseError, match="nesting deeper than"):
        sf.parse(text)
    assert sf.parse("sqrt(" * 60 + "h0" + ")" * 60 + "+h0" * 40) is not None
    with pytest.raises(sf.ParseError, match="nesting deeper than"):
        sf.parse("(" * 50 + "h0" + "+h0" * 100 + ")" * 50 + "^2")


def test_parse_exponent_cap():
    cap = sf.MAX_EXPONENT
    assert sf.parse(f"h0^{cap}").exponent == cap
    assert sf.parse(f"h0^-{cap}").exponent == -cap
    assert sf.parse(f"h0^00{cap}").exponent == cap
    for text in (f"h0^{cap + 1}", f"(h0+1/3)^-{cap + 1}", "h0^2000000",
                 "h0^" + "9" * 5000):
        with pytest.raises(sf.ParseError) as err:
            sf.parse(text)
        assert "exponent larger than" in str(err.value)
        assert err.value.col == text.index("^") + 2 + text.startswith("(h0+1/3)^-")
    # constructing a power in code stays uncapped
    assert sf.pow_(sf.H0, 2000000).exponent == 2000000


def test_parse_invalid_numbers_are_parse_errors():
    with pytest.raises(sf.ParseError, match="number too long") as err:
        sf.parse("h0 + " + "7" * 5000)
    assert (err.value.line, err.value.col) == (1, 6)
    # a digit to str.isdigit but not a decimal one
    with pytest.raises(sf.ParseError):
        sf.parse("h0 * \u00b2")
    with pytest.raises(sf.ParseError, match="integer exponent"):
        sf.parse("h0^\u00b2")

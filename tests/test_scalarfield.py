import math
import random
import re
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
    every node but constants, variables and negations, and Python's own
    operators, so their errors and messages."""
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
        v = a ** field.exponent
    elif isinstance(field, sf.Sqrt):
        if a < 0 and type(a) is not float:  # math.sqrt would see -0.0
            raise ValueError("math domain error")
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


def test_polynomial_gradient():
    field = sf.parse("h0^2*h3 + 4")
    assert sf.is_zero(field.diff(1)) and sf.is_zero(field.diff(2))
    assert field.diff(0).evaluate((Fraction(2), 0, 0, Fraction(5))) == 20


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
    with pytest.raises(ZeroDivisionError):
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
        with pytest.raises(ValueError):
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
    # a 20,000-step tape compiles into one function and runs
    field = sf.H0
    for _ in range(20000):
        field = sf.add(field, sf.H1)
    assert sf.evaluator([field])((1.0, 2.0, 0.0, 0.0)) == (40001.0,)
    assert field.evaluate((Fraction(1), Fraction(1, 2), 0, 0)) == 10001


_TAPE_NAMES = {"def", "run", "point", "K", "return", "_sqrt", "_exp", "_sin",
               "_cos"}
# the fixed names of the sampling loop of scanner and of its two tails; the
# evaluator's tape has no branch
_LOOP_NAMES = {"scan", "draw", "rng", "trials", "max_draws", "fail", "reasons",
               "if", "else",
               "for", "in", "evaluated", "_range", "_", "try", "break", "except",
               "_REJECTED", "as", "exc", "name", "_type", "__name__", "get",
               "raise", "yield", "values", "_float", "worst", "witness",
               "failure", "None", "residual", "_max", "_abs", "_inf", "is",
               "not", "and", "or", "_ulp"}
# the only numbers of the templates besides slots and K[i]: the loop's
# rejection count and the worst tail's start
_LITERALS = ("reasons.get(name, 0) + 1", "= 0.0, None, None")


@pytest.mark.parametrize("c", [Fraction(1, 3), 10 ** 3999 + 7, float("nan"),
                               float("inf"), -0.0],
                         ids=["1/3", "4000 digits", "nan", "inf", "-0.0"])
def test_constants_travel_as_data(monkeypatch, c):
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)
    monkeypatch.setattr(sf, "compile", spy, raising=False)
    fields = [sf.add(sf.mul(sf.const(c), sf.H0), sf.pow_(sf.H1, -2)),
              sf.div(sf.H2, sf.sub(sf.const(c), sf.H3)),
              sf.sqrt(sf.add(sf.exp(sf.H0), sf.const(c)))]
    for point in ((1.5, -0.25, 2.0, -0.0), (0.0, 1e-300, 3.0, 4.0),
                  (Fraction(3, 2), Fraction(-1, 4), Fraction(1), 0)):
        assert_matches_reference(fields, point)
    evaluated = len(sources)
    for tail in ("values", "worst"):
        for exact in (False, True):
            sf.scanner(fields, tail, exact)
    # the generated text is slot numbers, fixed operators and fixed names;
    # a loop adds its own names, the characters of its attribute lookups,
    # dict literal and comparison, and its value names v0, v1, ...
    assert evaluated and len(sources) == evaluated + 4
    for index, source in enumerate(sources):
        loop = index >= evaluated
        slots = {f"r{i}" for i in range(100)} | {f"v{i}" for i in range(100) if loop}
        names = _TAPE_NAMES | (_LOOP_NAMES if loop else set())
        assert set(re.findall(r"[A-Za-z_]\w*", source)) <= names | slots
        extra = ".{}>" if loop else ""
        assert re.fullmatch(rf"[\sA-Za-z_0-9=+\-*/()\[\],:{extra}]*", source)
        # no number but slots, K[i] and the literals of the templates
        for literal in _LITERALS:
            source = source.replace(literal, "")
        assert re.findall(r"(?<![\w\[])\d+", source) == []


# the error and message Python raises for each doomed step
@pytest.mark.parametrize("doomed, raised", [
    (sf.sqrt(sf.const(-1)), outcome(lambda: math.sqrt(Fraction(-1)))[1:]),
    (sf.exp(sf.const(1000)), outcome(lambda: math.exp(Fraction(1000)))[1:]),
    (sf.sin(sf.const(float("inf"))), outcome(lambda: math.sin(float("inf")))[1:]),
])
def test_raise_step_mid_tape_raises_the_same_error_everywhere(doomed, raised):
    before = sf.mul(sf.add(sf.H0, sf.H1), sf.H2)
    field = sf.sub(sf.add(before, sf.mul(doomed, sf.H3)), sf.exp(sf.H1))
    evaluate = sf.evaluator([before, field, sf.cos(sf.H0)])
    for point in ((1.0, 2.0, 3.0, 4.0), (Fraction(1, 3), 0, 0, Fraction(2)),
                  (0, 0, 0, 0), (0.5, Fraction(1), 2, 3.0)):
        with pytest.raises(raised[0]) as err:
            evaluate(point)
        assert type(err.value) is raised[0] and str(err.value) == raised[1]
        assert_matches_reference([before, field, sf.cos(sf.H0)], point)


def test_variable_alone_evaluates_to_the_point_coordinate():
    point = (Fraction(1, 3), 2.5, 7, -0.0)
    for i, h in enumerate(sf._VARS):
        assert h.evaluate(point) is point[i]
    values = sf.evaluator([sf.H3, sf.H1, sf.H3])(point)
    assert values[0] is point[3] and values[1] is point[1] and values[2] is point[3]


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


def _balanced(nodes):
    """Text of exactly `nodes` nodes (h0 and + only, unary - for an even
    count), shallow enough for the nesting cap."""
    if nodes % 2 == 0:
        return "-(" + _balanced(nodes - 1) + ")"
    if nodes == 1:
        return "h0"
    leaves = (nodes + 1) // 2
    left = leaves // 2
    return "(" + _balanced(2 * left - 1) + "+" + _balanced(2 * (leaves - left) - 1) + ")"


def test_parse_node_cap():
    cap = sf.MAX_NODES
    for nodes in (cap - 1, cap):
        assert sf.parse(_balanced(nodes)) is not None
    text = "\n" + _balanced(cap + 1)
    with pytest.raises(sf.ParseError, match=f"more than {cap} nodes") as err:
        sf.parse(text)
    # at the node past the cap: every token but a parenthesis is a node
    past = [m.start() for m in re.finditer(r"h0|[-+]", text)][cap]
    assert (err.value.line, err.value.col) == (2, past)


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


# --- derivatives --------------------------------------------------------------

def reference_diff(field, var):
    """The recursive tree walk that ``derivative`` replaced, rule for rule:
    a node reached by k paths is differentiated k times."""
    if isinstance(field, sf.Const):
        return sf.ZERO
    if isinstance(field, sf.Var):
        return sf.ONE if field.index == var else sf.ZERO
    da, kind = reference_diff(field.a, var), type(field)
    if kind is sf.Neg:
        return sf.neg(da)
    if kind is sf.Pow:
        k = field.exponent
        return sf.mul(sf.mul(sf.const(k), sf.pow_(field.a, k - 1)), da)
    if kind is sf.Sqrt:
        return sf.div(da, sf.mul(sf.TWO, field))
    if kind is sf.Exp:
        return sf.mul(field, da)
    if kind is sf.Sin:
        return sf.mul(sf.cos(field.a), da)
    if kind is sf.Cos:
        return sf.mul(sf.neg(sf.sin(field.a)), da)
    db = reference_diff(field.b, var)
    if kind is sf.Add:
        return sf.add(da, db)
    if kind is sf.Sub:
        return sf.sub(da, db)
    if kind is sf.Mul:
        return sf.add(sf.mul(da, field.b), sf.mul(field.a, db))
    num = sf.sub(sf.mul(da, field.b), sf.mul(field.a, db))
    return sf.div(num, sf.mul(field.b, field.b))


def distinct_nodes(field):
    seen, stack = {}, [field]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, k) for k in ("a", "b") if hasattr(node, k))
    return len(seen)


_DAG_OPS = ("add", "sub", "mul", "div", "pow", "neg", "sqrt", "exp", "sin", "twin")


@st.composite
def dags(draw):
    """Fields whose nodes reuse earlier nodes of a pool, so subtrees are
    shared by many paths; returns the last three."""
    pool = [sf.H0, sf.H1, sf.H2, sf.const(draw(rationals)),
            sf.const(draw(st.sampled_from((0.5, -1.5, 2.0))))]
    for _ in range(draw(st.integers(1, 10))):
        # counted from the end, so recent nodes are reused most
        a, b = (pool[-1 - draw(st.integers(0, len(pool) - 1))] for _ in range(2))
        op = draw(st.sampled_from(_DAG_OPS))
        if op == "twin":  # two sums sharing a, differenced
            c = pool[-1 - draw(st.integers(0, len(pool) - 1))]
            node = sf.sub(sf.add(a, b), sf.add(a, c))
        elif op == "div":
            if sf.is_zero(b):
                continue
            node = sf.div(a, b)
        elif op == "pow":
            k = draw(st.integers(-2, 3))
            node = sf.pow_(a, abs(k) if sf.is_zero(a) else k)
        elif op in ("add", "sub", "mul"):
            node = getattr(sf, op)(a, b)
        else:
            node = getattr(sf, op)(a)
        pool.append(node)
    return pool[-3:]


@given(dags(), st.integers(0, 3), st.tuples(floats, floats, floats, floats),
       st.tuples(rationals, rationals, rationals, rationals))
@settings(max_examples=300, deadline=None)
def test_derivative_matches_tree_walk(roots, var, float_point, rational_point):
    d = sf.derivative(var)  # one pass serves every root
    got = [d(f) for f in roots]
    want = [reference_diff(f, var) for f in roots]
    assert [g.to_str() for g in got] == [w.to_str() for w in want]
    for point in (float_point, rational_point):
        assert same(outcome(lambda: sf.evaluator(got)(point)),
                    outcome(lambda: sf.evaluator(want)(point)))


def test_derivative_keeps_two_copies_apart_like_the_tree_walk():
    # both sides of the difference have derivative d(g) by h0, once per
    # pass; the tree walk makes two copies of it, which sub does not fold
    g = sf.mul(sf.H0, sf.H0)
    field = sf.sub(sf.add(g, sf.H1), sf.add(g, sf.H2))
    got, want = sf.derivative(0)(field), reference_diff(field, 0)
    assert isinstance(got, sf.Sub) and got.a is got.b
    assert got.to_str() == want.to_str() == "h0 + h0 - (h0 + h0)"
    # a node that was already there folds, in both
    e = sf.exp(sf.H0)
    field = sf.sub(sf.add(e, sf.H1), sf.add(e, sf.H2))
    assert sf.derivative(0)(field) is sf.ZERO is reference_diff(field, 0)


def test_self_product_chain_has_a_linear_derivative():
    depth, field = 12, sf.add(sf.H0, sf.H1)
    for _ in range(depth):
        field = sf.mul(field, field)
    assert distinct_nodes(field) == depth + 3
    # d(f f) = d(f) f + f d(f): three new nodes a level with sharing
    assert distinct_nodes(sf.derivative(0)(field)) <= 4 * depth + 4
    assert distinct_nodes(reference_diff(field, 0)) >= 2 ** depth


def test_separate_passes_share_nothing():
    for field in (sf.mul(sf.H0, sf.H0), sf.parse("sin(h0)*exp(h0*h1)"),
                  sf.parse("sqrt(h0^2 + h1^2)/(h0 - h2)")):
        d1, d2 = sf.derivative(0), sf.derivative(0)
        x, y = d1(field), d2(field)
        assert d1(field) is x and x is not y
        assert isinstance(sf.sub(x, y), sf.Sub)


@pytest.mark.parametrize("text", [
    "sin(" * sf.MAX_NESTING + "h0" + ")" * sf.MAX_NESTING,
    "h0*(" * (sf.MAX_NESTING - 1) + "h0 + h1" + ")" * (sf.MAX_NESTING - 1),
    "sin(" + "sqrt(1 + exp(" * 33 + "h0" + "))" * 33 + ")"],
    ids=["sin-chain", "product-chain", "sqrt-exp-chain"])
def test_field_at_the_nesting_cap_differentiates_three_times(text):
    field = sf.parse(text)
    with pytest.raises(sf.ParseError, match="nesting deeper than"):
        sf.parse("sin(" + text + ")")
    for _ in range(3):
        field = field.diff(0)
    assert not sf.is_const(field)


# Today's folding rules, written out as they stood before the exact-type
# and truth-value tests replaced them.
def _old_const(v):
    return sf.Const(v) if isinstance(v, float) else sf.Const(Fraction(v))


def _old_is_zero(f):
    return isinstance(f, sf.Const) and f.value == 0


def _old_add(a, b):
    if isinstance(a, sf.Const) and isinstance(b, sf.Const):
        return _old_const(a.value + b.value)
    if _old_is_zero(a):
        return b
    return a if _old_is_zero(b) else sf.Add(a, b)


def _old_neg(a):
    if isinstance(a, sf.Const):
        return _old_const(-a.value)
    return a.a if isinstance(a, sf.Neg) else sf.Neg(a)


def _old_sub(a, b):
    if a is b:
        return sf.ZERO
    if isinstance(a, sf.Const) and isinstance(b, sf.Const):
        return _old_const(a.value - b.value)
    if _old_is_zero(b):
        return a
    return _old_neg(b) if _old_is_zero(a) else sf.Sub(a, b)


def _old_mul(a, b):
    if _old_is_zero(a) or _old_is_zero(b):
        return sf.ZERO
    ca, cb = isinstance(a, sf.Const), isinstance(b, sf.Const)
    if ca and cb:
        return _old_const(a.value * b.value)
    for c, other in ((a, b), (b, a)):
        if isinstance(c, sf.Const) and c.value == 1:
            return other
    for c, other in ((a, b), (b, a)):
        if isinstance(c, sf.Const) and c.value == -1:
            return _old_neg(other)
    return sf.Mul(a, b)


_FOLD_VALUES = (Fraction(0), -0.0, math.nan, math.inf, Fraction(1), Fraction(-1),
                1.0, -1.0, Fraction(1, 2))


def _folded(result, operands):
    """What a constructor returned: one of its operands, the ZERO
    singleton, a constant (bit pattern of a float), or a new node."""
    for i, x in enumerate(operands):
        if result is x:
            return ("operand", i)
    if result is sf.ZERO:
        return ("ZERO",)
    if isinstance(result, sf.Const):
        v = result.value
        return ("const", type(v), struct.pack("<d", v) if isinstance(v, float) else v)
    return (type(result), result.to_str())


def test_folding_table_is_unchanged():
    operands = [sf.Const(v) for v in _FOLD_VALUES] + [sf.H0]
    for new, old in ((sf.add, _old_add), (sf.sub, _old_sub), (sf.mul, _old_mul)):
        for a in operands:
            for b in operands:
                assert _folded(new(a, b), (a, b)) == _folded(old(a, b), (a, b)), \
                    (new.__name__, a, b)
    for a in operands:
        assert _folded(sf.neg(a), (a,)) == _folded(_old_neg(a), (a,)), a
    for v in _FOLD_VALUES + (3, True):
        assert _folded(sf.const(v), ()) == _folded(_old_const(v), ())
        assert sf.is_zero(sf.Const(v)) == _old_is_zero(sf.Const(v))
    half = Fraction(1, 2)
    assert sf.const(half).value is half


def test_sqrt_step_floats_and_fractions():
    # floats take a fast path; NaN, inf, the error and exact roots hold
    assert sf._sqrt(2.25) == 1.5 and type(sf._sqrt(2.25)) is float
    assert math.isnan(sf._sqrt(float("nan")))
    assert sf._sqrt(float("inf")) == float("inf")
    for negative in (-1e-300, float("-inf"), Fraction(-1, 4), -4,
                     Fraction(-1, 10 ** 400), -10 ** 400):
        with pytest.raises(ValueError):
            sf._sqrt(negative)
    assert sf._sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert type(sf._sqrt(Fraction(9, 4))) is Fraction
    assert sf._sqrt(Fraction(2)) == math.sqrt(2)
    assert sf._sqrt(4) == 2.0


# one node of each type, built without folding, and the text it prints
_PRINTED = [
    (sf.Const(Fraction(-3)), "(-3)"),
    (sf.Const(Fraction(1, 2)), "1/2"),
    (sf.H2, "h2"),
    (sf.Add(sf.H0, sf.Mul(sf.H1, sf.H2)), "h0 + (h1) * (h2)"),
    (sf.Sub(sf.H0, sf.Add(sf.H1, sf.H2)), "h0 - (h1 + h2)"),
    (sf.Mul(sf.Add(sf.H0, sf.H1), sf.H2), "(h0 + h1) * (h2)"),
    (sf.Div(sf.H0, sf.Sub(sf.H1, sf.H3)), "(h0) / (h1 - (h3))"),
    (sf.Neg(sf.Add(sf.H0, sf.H1)), "-(h0 + h1)"),
    (sf.Pow(sf.Add(sf.H0, sf.H1), -3), "(h0 + h1)^-3"),
    (sf.Pow(sf.H3, 2), "(h3)^2"),
    (sf.Sqrt(sf.Add(sf.H0, sf.H1)), "sqrt(h0 + h1)"),
    (sf.Exp(sf.Neg(sf.H1)), "exp(-(h1))"),
    (sf.Sin(sf.H2), "sin(h2)"),
    (sf.Cos(sf.Mul(sf.H0, sf.H3)), "cos((h0) * (h3))"),
]


@pytest.mark.parametrize("node, text", _PRINTED)
def test_each_node_type_prints_its_text(node, text):
    assert node.to_str() == str(node) == text
    assert sf.parse(text).to_str() == text


def test_every_printed_node_type_is_covered():
    assert {type(node) for node, _ in _PRINTED} == {
        sf.Const, sf.Var, sf.Add, sf.Sub, sf.Mul, sf.Div, sf.Neg, sf.Pow,
        sf.Sqrt, sf.Exp, sf.Sin, sf.Cos}
    # every compound node prints from the table it compiles beside
    assert set(sf._PRINT) == set(sf._SOURCE) == \
        {type(node) for node, _ in _PRINTED} - {sf.Const, sf.Var}
    assert all("to_str" not in vars(cls) for cls in sf._PRINT)

"""Scalar fields on the fiber: expression trees in h0, h1, h2, h3.

Node set: constants, variables, +, -, *, /, integer powers, sqrt, exp,
sin, cos.  Construction goes through smart constructors that fold
constants and algebraic identities (x+0, x*1, x*0, sqrt of a perfect
square, even powers of sqrt, exp(0), ...), so rational subtrees stay
rational and many fields reduce to literal constants.

Evaluation is exact (Fraction) on rational subtrees and falls back to
float where sqrt/exp/sin/cos force it.  ``evaluator`` walks the DAG under
some fields once (fields in order, a before b, as the recursive
definition evaluates) into a flat tape of (out_slot, op, a_slot, b_slot)
steps, one per distinct operation, so shared derivative subtrees cost one
step per point and the first error raised is the same.  Subtrees without
variables are folded once; one that raises becomes a raise step.  At an
all-float point constants enter as float(c), which ``Fraction op float``
computes with anyway, so results are bit-identical; elsewhere they stay
exact.

The printable grammar (round-tripped by ``parse``):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ('-')? INTEGER)?
    atom   := NUMBER | 'h0'..'h3' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'sqrt' | 'exp' | 'sin' | 'cos'

NUMBER accepts integer and decimal literals in ASCII digits; both parse
to exact rationals.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

VAR_NAMES = ("h0", "h1", "h2", "h3")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class Field:
    """Base expression node; use the module-level smart constructors."""

    __slots__ = ()

    def diff(self, var: int) -> "Field":
        raise NotImplementedError

    def evaluate(self, point):
        """Evaluate at point = (v0, v1, v2, v3); a loop over many points
        should build one ``evaluator`` instead."""
        return evaluator((self,))(point)[0]

    def free_vars(self) -> frozenset:
        """Indices of the variables in the tree."""
        found, seen, stack = set(), set(), [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                found.add(node.index)
            elif isinstance(node, (_Unary, _Binary)) and id(node) not in seen:
                seen.add(id(node))
                stack.extend((node.a, node.b) if isinstance(node, _Binary) else (node.a,))
        return frozenset(found)

    def to_str(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_str()


@dataclass(frozen=True, eq=True)
class Const(Field):
    value: object  # Fraction or float

    def diff(self, var):
        return ZERO

    def to_str(self):
        v = self.value
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return str(v.numerator) if v >= 0 else f"({v.numerator})"
            s = f"{v.numerator}/{v.denominator}"
            return s if v >= 0 else f"({s})"
        return repr(v) if v >= 0 else f"({v!r})"


@dataclass(frozen=True, eq=True)
class Var(Field):
    index: int

    def diff(self, var):
        return ONE if var == self.index else ZERO

    def to_str(self):
        return VAR_NAMES[self.index]


class _Binary(Field):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class Add(_Binary):
    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))

    def to_str(self):
        return f"{self.a.to_str()} + {self.b.to_str()}"


class Sub(_Binary):
    def diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))

    def to_str(self):
        return f"{self.a.to_str()} - ({self.b.to_str()})"


class Mul(_Binary):
    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))

    def to_str(self):
        return f"({self.a.to_str()}) * ({self.b.to_str()})"


class Div(_Binary):
    def diff(self, var):
        num = sub(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))
        return div(num, mul(self.b, self.b))

    def to_str(self):
        return f"({self.a.to_str()}) / ({self.b.to_str()})"


class _Unary(Field):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class Neg(_Unary):
    def diff(self, var):
        return neg(self.a.diff(var))

    def to_str(self):
        return f"-({self.a.to_str()})"


class Pow(_Unary):
    __slots__ = ("exponent",)

    def __init__(self, a, exponent: int):
        self.a = a
        self.exponent = exponent

    def diff(self, var):
        k = self.exponent
        return mul(mul(const(k), pow_(self.a, k - 1)), self.a.diff(var))

    def to_str(self):
        return f"({self.a.to_str()})^{self.exponent}"


class Sqrt(_Unary):
    def diff(self, var):
        return div(self.a.diff(var), mul(TWO, self))

    def to_str(self):
        return f"sqrt({self.a.to_str()})"


class Exp(_Unary):
    def diff(self, var):
        return mul(self, self.a.diff(var))

    def to_str(self):
        return f"exp({self.a.to_str()})"


class Sin(_Unary):
    def diff(self, var):
        return mul(cos(self.a), self.a.diff(var))

    def to_str(self):
        return f"sin({self.a.to_str()})"


class Cos(_Unary):
    def diff(self, var):
        return mul(neg(sin(self.a)), self.a.diff(var))

    def to_str(self):
        return f"cos({self.a.to_str()})"


def _exact_sqrt(q: Fraction):
    """Fraction square root when the argument is a perfect square."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def const(v) -> Const:
    if isinstance(v, float):
        return Const(v)
    return Const(Fraction(v))


def var(i: int) -> Var:
    if not 0 <= i <= 3:
        raise ValueError("variables are h0..h3")
    return _VARS[i]


def is_const(f: Field) -> bool:
    return isinstance(f, Const)


def is_zero(f: Field) -> bool:
    return isinstance(f, Const) and f.value == 0


def add(a, b):
    if is_const(a) and is_const(b):
        return const(a.value + b.value)
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    return Add(a, b)


def sub(a, b):
    if a is b:
        return ZERO
    if is_const(a) and is_const(b):
        return const(a.value - b.value)
    if is_zero(b):
        return a
    if is_zero(a):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if is_zero(a) or is_zero(b):
        return ZERO
    if is_const(a) and is_const(b):
        return const(a.value * b.value)
    if is_const(a) and a.value == 1:
        return b
    if is_const(b) and b.value == 1:
        return a
    if is_const(a) and a.value == -1:
        return neg(b)
    if is_const(b) and b.value == -1:
        return neg(a)
    return Mul(a, b)


def div(a, b):
    if is_const(b):
        if b.value == 0:
            raise ZeroDivisionError("constant zero denominator")
        if b.value == 1:
            return a
        if is_const(a):
            return const(a.value / b.value)
    if is_zero(a):
        return ZERO
    return Div(a, b)


def neg(a):
    if is_const(a):
        return const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def pow_(a, k: int):
    k = int(k)
    if k == 0:
        return ONE
    if k == 1:
        return a
    if is_const(a):
        return const(a.value ** k)
    if isinstance(a, Sqrt) and k % 2 == 0:
        # (sqrt u)^(2m) = u^m keeps rational trees rational
        return pow_(a.a, k // 2)
    if isinstance(a, Pow):
        return pow_(a.a, a.exponent * k)
    return Pow(a, k)


def sqrt(a):
    if is_const(a) and isinstance(a.value, Fraction):
        exact = _exact_sqrt(a.value)
        if exact is not None:
            return const(exact)
    return Sqrt(a)


def exp(a):
    if is_const(a) and a.value == 0:
        return ONE
    return Exp(a)


def sin(a):
    if is_const(a) and a.value == 0:
        return ZERO
    return Sin(a)


def cos(a):
    if is_const(a) and a.value == 0:
        return ONE
    return Cos(a)


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
TWO = Const(Fraction(2))
_VARS = tuple(Var(i) for i in range(4))
H0, H1, H2, H3 = _VARS


def gradient(f: Field):
    return tuple(f.diff(i) for i in range(4))


def constant_value(f: Field):
    """The literal value when the tree folded to a constant, else None."""
    return f.value if isinstance(f, Const) else None


# --- evaluation -------------------------------------------------------------

def _div(x, y):
    if y == 0:
        raise ZeroDivisionError("scalar field denominator vanished")
    return x / y


def _negative_power(base, k):
    if base == 0:
        raise ZeroDivisionError("negative power of zero")
    return base ** k


def _sqrt(x):
    if x < 0:
        raise ValueError("sqrt of a negative value")
    exact = _exact_sqrt(x) if isinstance(x, Fraction) else None
    return exact if exact is not None else math.sqrt(x)


_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: _div,
        Neg: operator.neg, Sqrt: _sqrt, Exp: math.exp, Sin: math.sin,
        Cos: math.cos}


def _as_float(c):
    """The float that ``c op x`` computes with at a float x; c itself when
    that conversion overflows or rounds a nonzero c to 0, so the same
    error, or the exact zero test of a denominator, still happens."""
    try:
        f = float(c)
    except OverflowError:
        return c
    return f if f or not c else c


def _reraise(exc):
    raise type(exc)(*exc.args)


def evaluator(fields):
    """One evaluator for a sequence of fields: returns point -> tuple of
    their values at point = (v0, v1, v2, v3), as ``Field.evaluate`` would
    give them one by one, raising the first error that would raise.
    Build it once, outside the loop over sample points."""
    # registers at a non-float point: 0..3 hold h0..h3, constant slots
    # their exact value, every other slot None until a step writes it
    exact = [None] * 4
    floats = [None] * 4  # the same at an all-float point
    slots = {}           # id(node) -> slot of its value
    numbered = {}        # rational constant, exponent or (op, a, b) -> slot
    tape = []

    def slot_for(key, value=None, as_float=None):
        slot = numbered.get(key)
        if slot is None:
            slot = len(exact)
            exact.append(value)
            floats.append(as_float)
            if key is not None:
                numbered[key] = slot
        return slot

    def constant(value):
        # floats are not shared: 0.0 == -0.0 and nan != nan
        key = None if isinstance(value, float) else (type(value), value)
        return slot_for(key, value, _as_float(value))

    fields = tuple(fields)
    for root in fields:
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in slots:
                stack.pop()
                continue
            if isinstance(node, Var):
                slot = node.index
            elif isinstance(node, Const):
                slot = constant(node.value)
            else:
                kids = (node.b, node.a) if isinstance(node, _Binary) else (node.a,)
                pending = [kid for kid in kids if id(kid) not in slots]
                if pending:
                    stack.extend(pending)
                    continue
                a, b = slots[id(node.a)], None
                if isinstance(node, Pow):
                    k = node.exponent
                    op = operator.pow if k >= 0 else _negative_power
                    b = slot_for(k, k, k)
                else:
                    op = _OPS[type(node)]
                    if isinstance(node, _Binary):
                        b = slots[id(node.b)]
                if exact[a] is not None and (b is None or exact[b] is not None):
                    try:
                        slot = constant(op(exact[a]) if b is None
                                        else op(exact[a], exact[b]))
                    except Exception as exc:  # raised at every point
                        slot = slot_for(None)
                        tape.append((slot, _reraise, slot_for(None, exc, exc), None))
                else:
                    slot = numbered.get((op, a, b))
                    if slot is None:
                        slot = slot_for((op, a, b))
                        tape.append((slot, op, a, b))
            slots[id(node)] = slot
            stack.pop()
    # a constant field keeps its exact value at float points too
    outputs = [s if exact[s] is None else slot_for(None, exact[s], exact[s])
               for s in (slots[id(f)] for f in fields)]
    exact, floats = exact[4:], floats[4:]

    def evaluate(point):
        h0, h1, h2, h3 = point
        r = [h0, h1, h2, h3]
        r += floats if type(h0) is type(h1) is type(h2) is type(h3) is float else exact
        for out, op, a, b in tape:
            r[out] = op(r[a]) if b is None else op(r[a], r[b])
        return tuple([r[i] for i in outputs])
    return evaluate


# --- parser -----------------------------------------------------------------

_FUNCS = {"sqrt": sqrt, "exp": exp, "sin": sin, "cos": cos}
_INFIX = {"+": add, "-": sub, "*": mul, "/": div}

# Deepest nesting parse accepts.  It bounds both the parser's own
# recursion (parentheses, function calls, unary minus) and the height of
# the tree it builds (each operator, function and power is one level, so
# a chain h1 - h1 - ... of n terms is n - 1 levels deep); deeper input
# would exhaust the recursion of the parser and of the tree walks.
MAX_NESTING = 100

# Largest exponent magnitude parse accepts after '^'.  Huge powers are
# where float evaluation over- or underflows: (h0+1/3)^2000000 underflows
# to a residual of 0.0 and passes as a solution.  pow_ is uncapped.
MAX_EXPONENT = 100


# Numbers are ASCII digits; no other digit starts a name, so h0*\u0663 is
# an unexpected character, not 3*h0.
_TOKEN = re.compile(r"(?P<space>[ \t\r\n]+)|(?P<num>[0-9]+\.?[0-9]*|\.[0-9]+)"
                    r"|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<bad>.)", re.S)


def _tokens(text: str) -> list:
    """(kind, token, line, col) for each token, then an "end" token."""
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", line, col)
        if kind != "space":
            tokens.append((kind, tok, line, col))
        elif "\n" in tok:
            line += tok.count("\n")
            line_start = m.start() + tok.rindex("\n") + 1
    tokens.append(("end", "", line, len(text) - line_start + 1))
    return tokens


def parse(text: str) -> Field:
    """Parse the documented grammar into a field; raises ParseError, also
    when nesting goes deeper than MAX_NESTING levels or an exponent is
    larger than MAX_EXPONENT in magnitude."""
    tokens = _tokens(text)[::-1]  # next token last; "end" is taken only to fail
    take = tokens.pop
    depth = 0

    def peek():
        return tokens[-1]

    def grown(level, line, col):
        if level > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, col)
        return level

    # each rule returns (node, height of its syntax tree)
    def nested(inner, line, col):
        nonlocal depth
        depth = grown(depth + 1, line, col)
        result = inner()
        depth -= 1
        return result

    def parenthesized(line, col):
        result = nested(expr, line, col)
        kind, tok, line, col = take()
        if kind != "op" or tok != ")":
            raise ParseError("expected ')'", line, col)
        return result

    def chain(operand, ops):
        node, height = operand()
        while True:
            kind, tok, line, col = peek()
            if kind != "op" or tok not in ops:
                return node, height
            take()
            rhs, rhs_height = operand()
            height = grown(max(height, rhs_height) + 1, line, col)
            node = _INFIX[tok](node, rhs)

    def expr():
        return chain(term, "+-")

    def term():
        return chain(unary, "*/")

    def unary():
        kind, tok, line, col = peek()
        if kind == "op" and tok == "-":
            take()
            node, height = nested(unary, line, col)
            return neg(node), grown(height + 1, line, col)
        return power()

    def power():
        node, height = atom()
        kind, tok, line, col = peek()
        if kind == "op" and tok == "^":
            take()
            height = grown(height + 1, line, col)
            sign = 1
            kind, tok, line, col = peek()
            if kind == "op" and tok == "-":
                take()
                sign = -1
                kind, tok, line, col = peek()
            if kind != "num" or "." in tok:
                raise ParseError("expected an integer exponent after '^'", line, col)
            digits = tok.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", line, col)
            take()
            return pow_(node, sign * int(digits)), height
        return node, height

    def atom():
        kind, tok, line, col = take()
        if kind == "num":
            try:
                return const(Fraction(tok)), 0
            except ValueError:  # past the interpreter's integer digit limit
                raise ParseError("number too long", line, col) from None
        if kind == "name":
            if tok in VAR_NAMES:
                return var(VAR_NAMES.index(tok)), 0
            if tok in _FUNCS:
                kind2, tok2, line2, col2 = take()
                if kind2 != "op" or tok2 != "(":
                    raise ParseError(f"expected '(' after {tok}", line2, col2)
                inner, height = parenthesized(line, col)
                return _FUNCS[tok](inner), grown(height + 1, line, col)
            raise ParseError(f"unknown name {tok!r} (variables are h0..h3)", line, col)
        if kind == "op" and tok == "(":
            return parenthesized(line, col)
        raise ParseError(f"unexpected token {tok!r}", line, col)

    node, _ = expr()
    kind, tok, line, col = peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok!r}", line, col)
    return node

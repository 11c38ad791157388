"""Scalar fields on the fiber: expression trees in h0, h1, h2, h3.

Node set: constants, variables, +, -, *, /, integer powers, sqrt, exp,
sin, cos.  Construction goes through smart constructors that fold
constants and algebraic identities (x+0, x*1, x*0, sqrt of a perfect
square, even powers of sqrt, exp(0), ...), so rational subtrees stay
rational and many fields reduce to literal constants.

Evaluation at a point is exact (Fraction) on rational subtrees and
falls back to float where sqrt/exp/sin/cos force it.  An id-keyed memo
makes evaluation linear in the number of distinct nodes, which matters
because derivative trees share subtrees with their parents.

The printable grammar (round-tripped by ``parse``):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ('-')? INTEGER)?
    atom   := NUMBER | 'h0'..'h3' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := 'sqrt' | 'exp' | 'sin' | 'cos'

NUMBER accepts integers and decimal literals; both parse to exact
rationals.
"""

from __future__ import annotations

import math
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

    def _eval(self, point, memo):
        raise NotImplementedError

    def evaluate(self, point, memo=None):
        """Evaluate at point = (v0, v1, v2, v3)."""
        if memo is None:
            memo = {}
        return self._eval(point, memo)

    def free_vars(self) -> frozenset:
        raise NotImplementedError

    def to_str(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_str()


@dataclass(frozen=True, eq=True)
class Const(Field):
    value: object  # Fraction or float

    def diff(self, var):
        return ZERO

    def _eval(self, point, memo):
        return self.value

    def free_vars(self):
        return frozenset()

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

    def _eval(self, point, memo):
        return point[self.index]

    def free_vars(self):
        return frozenset((self.index,))

    def to_str(self):
        return VAR_NAMES[self.index]


class _Binary(Field):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def free_vars(self):
        return self.a.free_vars() | self.b.free_vars()


class Add(_Binary):
    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))

    def _eval(self, point, memo):
        key = id(self)
        if key in memo:
            return memo[key]
        v = self.a._eval(point, memo) + self.b._eval(point, memo)
        memo[key] = v
        return v

    def to_str(self):
        return f"{self.a.to_str()} + {self.b.to_str()}"


class Sub(_Binary):
    def diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))

    def _eval(self, point, memo):
        key = id(self)
        if key in memo:
            return memo[key]
        v = self.a._eval(point, memo) - self.b._eval(point, memo)
        memo[key] = v
        return v

    def to_str(self):
        return f"{self.a.to_str()} - ({self.b.to_str()})"


class Mul(_Binary):
    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))

    def _eval(self, point, memo):
        key = id(self)
        if key in memo:
            return memo[key]
        v = self.a._eval(point, memo) * self.b._eval(point, memo)
        memo[key] = v
        return v

    def to_str(self):
        return f"({self.a.to_str()}) * ({self.b.to_str()})"


class Div(_Binary):
    def diff(self, var):
        num = sub(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))
        return div(num, mul(self.b, self.b))

    def _eval(self, point, memo):
        key = id(self)
        if key in memo:
            return memo[key]
        num = self.a._eval(point, memo)
        den = self.b._eval(point, memo)
        if den == 0:
            raise ZeroDivisionError("scalar field denominator vanished")
        v = num / den
        memo[key] = v
        return v

    def to_str(self):
        return f"({self.a.to_str()}) / ({self.b.to_str()})"


class _Unary(Field):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def free_vars(self):
        return self.a.free_vars()


class Neg(_Unary):
    def diff(self, var):
        return neg(self.a.diff(var))

    def _eval(self, point, memo):
        return -self.a._eval(point, memo)

    def to_str(self):
        return f"-({self.a.to_str()})"


class Pow(Field):
    __slots__ = ("a", "exponent")

    def __init__(self, a, exponent: int):
        self.a = a
        self.exponent = exponent

    def diff(self, var):
        k = self.exponent
        return mul(mul(const(k), pow_(self.a, k - 1)), self.a.diff(var))

    def _eval(self, point, memo):
        key = id(self)
        if key in memo:
            return memo[key]
        base = self.a._eval(point, memo)
        if self.exponent < 0 and base == 0:
            raise ZeroDivisionError("negative power of zero")
        v = base ** self.exponent
        memo[key] = v
        return v

    def free_vars(self):
        return self.a.free_vars()

    def to_str(self):
        return f"({self.a.to_str()})^{self.exponent}"


class Sqrt(_Unary):
    def diff(self, var):
        return div(self.a.diff(var), mul(TWO, self))

    def _eval(self, point, memo):
        key = id(self)
        if key in memo:
            return memo[key]
        arg = self.a._eval(point, memo)
        if arg < 0:
            raise ValueError("sqrt of a negative value")
        if isinstance(arg, Fraction):
            exact = _exact_sqrt(arg)
            v = exact if exact is not None else math.sqrt(arg)
        else:
            v = math.sqrt(arg)
        memo[key] = v
        return v

    def to_str(self):
        return f"sqrt({self.a.to_str()})"


class Exp(_Unary):
    def diff(self, var):
        return mul(self, self.a.diff(var))

    def _eval(self, point, memo):
        key = id(self)
        if key in memo:
            return memo[key]
        v = math.exp(self.a._eval(point, memo))
        memo[key] = v
        return v

    def to_str(self):
        return f"exp({self.a.to_str()})"


class Sin(_Unary):
    def diff(self, var):
        return mul(cos(self.a), self.a.diff(var))

    def _eval(self, point, memo):
        key = id(self)
        if key in memo:
            return memo[key]
        v = math.sin(self.a._eval(point, memo))
        memo[key] = v
        return v

    def to_str(self):
        return f"sin({self.a.to_str()})"


class Cos(_Unary):
    def diff(self, var):
        return mul(neg(sin(self.a)), self.a.diff(var))

    def _eval(self, point, memo):
        key = id(self)
        if key in memo:
            return memo[key]
        v = math.cos(self.a._eval(point, memo))
        memo[key] = v
        return v

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
        if isinstance(a.value, Fraction):
            return const(a.value ** k)
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


# --- parser -----------------------------------------------------------------

_FUNCS = {"sqrt": sqrt, "exp": exp, "sin": sin, "cos": cos}

# Deepest nesting parse accepts, counting parentheses, function calls
# and unary minus; deeper input would exhaust the recursion of the
# parser and of the tree walks.
MAX_NESTING = 100


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens = []
        self._scan()
        self.index = 0

    def _advance(self, k: int):
        for ch in self.text[self.pos:self.pos + k]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += k

    def _scan(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            line, col = self.line, self.col
            if ch.isdigit() or (ch == "." and self.pos + 1 < len(text)
                                and text[self.pos + 1].isdigit()):
                k = self.pos
                seen_dot = False
                while k < len(text) and (text[k].isdigit() or (text[k] == "." and not seen_dot)):
                    if text[k] == ".":
                        seen_dot = True
                    k += 1
                tok = text[self.pos:k]
                self._advance(k - self.pos)
                self.tokens.append(("num", tok, line, col))
                continue
            if ch.isalpha() or ch == "_":
                k = self.pos
                while k < len(text) and (text[k].isalnum() or text[k] == "_"):
                    k += 1
                tok = text[self.pos:k]
                self._advance(k - self.pos)
                self.tokens.append(("name", tok, line, col))
                continue
            if ch in "+-*/^()":
                self._advance(1)
                self.tokens.append(("op", ch, line, col))
                continue
            raise ParseError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("end", "", self.line, self.col))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


def parse(text: str) -> Field:
    """Parse the documented grammar into a field; raises ParseError,
    also when nesting goes deeper than MAX_NESTING."""
    tz = _Tokenizer(text)
    depth = 0

    def nested(inner, line, col):
        nonlocal depth
        if depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             line, col)
        depth += 1
        node = inner()
        depth -= 1
        return node

    def expr():
        node = term()
        while True:
            kind, tok, line, col = tz.peek()
            if kind == "op" and tok in "+-":
                tz.next()
                rhs = term()
                node = add(node, rhs) if tok == "+" else sub(node, rhs)
            else:
                return node

    def term():
        node = unary()
        while True:
            kind, tok, line, col = tz.peek()
            if kind == "op" and tok in "*/":
                tz.next()
                rhs = unary()
                node = mul(node, rhs) if tok == "*" else div(node, rhs)
            else:
                return node

    def unary():
        kind, tok, line, col = tz.peek()
        if kind == "op" and tok == "-":
            tz.next()
            return neg(nested(unary, line, col))
        return power()

    def power():
        node = atom()
        kind, tok, line, col = tz.peek()
        if kind == "op" and tok == "^":
            tz.next()
            sign = 1
            kind, tok, line, col = tz.peek()
            if kind == "op" and tok == "-":
                tz.next()
                sign = -1
                kind, tok, line, col = tz.peek()
            if kind != "num" or "." in tok:
                raise ParseError("expected an integer exponent after '^'", line, col)
            tz.next()
            node = pow_(node, sign * int(tok))
        return node

    def atom():
        kind, tok, line, col = tz.next()
        if kind == "num":
            return const(Fraction(tok))
        if kind == "name":
            if tok in VAR_NAMES:
                return var(VAR_NAMES.index(tok))
            if tok in _FUNCS:
                kind2, tok2, line2, col2 = tz.next()
                if kind2 != "op" or tok2 != "(":
                    raise ParseError(f"expected '(' after {tok}", line2, col2)
                inner = nested(expr, line, col)
                kind3, tok3, line3, col3 = tz.next()
                if kind3 != "op" or tok3 != ")":
                    raise ParseError("expected ')'", line3, col3)
                return _FUNCS[tok](inner)
            raise ParseError(f"unknown name {tok!r} (variables are h0..h3)", line, col)
        if kind == "op" and tok == "(":
            inner = nested(expr, line, col)
            kind2, tok2, line2, col2 = tz.next()
            if kind2 != "op" or tok2 != ")":
                raise ParseError("expected ')'", line2, col2)
            return inner
        raise ParseError(f"unexpected token {tok!r}", line, col)

    node = expr()
    kind, tok, line, col = tz.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok!r}", line, col)
    return node

"""Scalar fields on the fiber: expression trees in h0, h1, h2, h3.

Node set: constants, variables, +, -, *, /, integer powers, sqrt, exp,
sin, cos.  Construction goes through smart constructors that fold
constants and algebraic identities (x+0, x*1, x*0, sqrt of a perfect
square, even powers of sqrt, exp(0), ...), so rational subtrees stay
rational and many fields reduce to literal constants.

``derivative(var)`` is one pass of d/dh_var whose memo (node id -> node,
derivative; the node keeps its id unique) differentiates each shared
subtree once.  It must not outlive the pass: the two sides of an identity
could become one object, fold by ``sub(a, a)`` to ZERO and let
``forms.equal`` decide without drawing points, moving every later draw.
Nor does ``Sub`` fold a derivative made once for both its sides, so a
pass builds the fields of the tree walk, printed and evaluated.

Evaluation is exact (Fraction) on rational subtrees and falls back to
float where sqrt/exp/sin/cos force it.  One walk of the DAG under some
fields (fields in order, a before b, as the recursive definition
evaluates) writes, as it goes, straight-line Python: a line per constant
and per distinct operation (``r7 = r4 * r5``), one template per node
type, so the errors are Python's own.  Shared derivative subtrees cost
one line per point, a point costs no interpreter dispatch per
operation, and the first error raised is the same.  ``evaluator``
makes those lines one function of a fixed point (``Field.evaluate``,
exact points of a formula).  ``scanner`` puts them inside one function
that is a whole sampling loop, at float or at exact points, fixed when
it is built: it draws each point, runs the lines, redraws a point they
reject and keeps what its tail asks for (the values, at float points
only, or the worst residual), so a sampled point passes through no
other Python frame than the draw's.  Building evaluates nothing: a
subtree without variables is computed, and raises, at each point like
any other.  Fixed points and exact scans use the exact constants.  In a
float scan constants enter as float(c), which ``Fraction op float``
computes with anyway, so results are bit-identical.

Generating source is safe because nothing from the fields reaches it:
the text is slot numbers, a fixed template per node type, the fixed
loop of ``scanner`` and fixed helper names.  Constants and exponents are
passed in as data.  ``parse`` caps the nodes of an input field
(MAX_NODES), which bounds the source built from it and its derivatives.

The printable grammar (round-tripped by ``parse``; a compound node
prints by its template in ``_PRINT``):

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
import re
from fractions import Fraction

from qsh_lab.record import Record

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
        """d/dh_var, as one pass of ``derivative(var)``."""
        return derivative(var)(self)

    def evaluate(self, point):
        """Evaluate at point = (v0, v1, v2, v3); a loop over many points
        should build one ``evaluator``, or a ``scanner`` when it samples
        them."""
        return evaluator((self,))(point)[0]

    def to_str(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_str()


class Const(Field, Record):
    __slots__ = ("value",)

    def __init__(self, value):  # a Fraction or a float
        self._init(value)

    def _d(self, var, d):
        return ZERO

    def to_str(self):
        v = self.value
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return str(v.numerator) if v >= 0 else f"({v.numerator})"
            s = f"{v.numerator}/{v.denominator}"
            return s if v >= 0 else f"({s})"
        return repr(v) if v >= 0 else f"({v!r})"


class Var(Field, Record):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self._init(index)

    def _d(self, var, d):
        return ONE if var == self.index else ZERO

    def to_str(self):
        return VAR_NAMES[self.index]


class _Binary(Field):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def to_str(self):
        return _PRINT[type(self)].format(a=self.a.to_str(), b=self.b.to_str())


class Add(_Binary):
    def _d(self, var, d):
        return add(d(self.a), d(self.b))


class Sub(_Binary):
    def _d(self, var, d):
        da, db = d(self.a), d(self.b)
        if da is not db or id(da) in d.memo:
            return sub(da, db)
        # one derivative for the two copies the tree walk makes: no a - a fold
        return const(da.value - db.value) if type(da) is Const else Sub(da, db)


class Mul(_Binary):
    def _d(self, var, d):
        return add(mul(d(self.a), self.b), mul(self.a, d(self.b)))


class Div(_Binary):
    def _d(self, var, d):
        num = sub(mul(d(self.a), self.b), mul(self.a, d(self.b)))
        return div(num, mul(self.b, self.b))


class _Unary(Field):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def to_str(self):
        return _PRINT[type(self)].format(a=self.a.to_str(),
                                         b=getattr(self, "exponent", None))


class Neg(_Unary):
    def _d(self, var, d):
        return neg(d(self.a))


class Pow(_Unary):
    __slots__ = ("exponent",)

    def __init__(self, a, exponent: int):
        self.a = a
        self.exponent = exponent

    def _d(self, var, d):
        k = self.exponent
        return mul(mul(const(k), pow_(self.a, k - 1)), d(self.a))


class Sqrt(_Unary):
    def _d(self, var, d):
        return div(d(self.a), mul(TWO, self))


class Exp(_Unary):
    def _d(self, var, d):
        return mul(self, d(self.a))


class Sin(_Unary):
    def _d(self, var, d):
        return mul(cos(self.a), d(self.a))


class Cos(_Unary):
    def _d(self, var, d):
        return mul(neg(sin(self.a)), d(self.a))


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
    return Const(v if isinstance(v, (Fraction, float)) else Fraction(v))


def var(i: int) -> Var:
    if not 0 <= i <= 3:
        raise ValueError("variables are h0..h3")
    return _VARS[i]


def is_const(f: Field) -> bool:
    return type(f) is Const


def is_zero(f: Field) -> bool:
    return type(f) is Const and not f.value  # as == 0, on nan and -0.0 too


def add(a, b):
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return const(a.value + b.value)
    if ca and not a.value:
        return b
    return a if cb and not b.value else Add(a, b)


def sub(a, b):
    if a is b:
        return ZERO
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return const(a.value - b.value)
    if cb and not b.value:
        return a
    return neg(b) if ca and not a.value else Sub(a, b)


def mul(a, b):
    ca, cb = type(a) is Const, type(b) is Const
    if (ca and not a.value) or (cb and not b.value):
        return ZERO
    if ca and cb:
        return const(a.value * b.value)
    c, other = (a, b) if ca else (b, a)
    if (ca or cb) and c.value in (1, -1):
        return other if c.value == 1 else neg(other)
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
    if type(a) is Const:
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


def derivative(var: int):
    """d/dh_var as a function of fields, for one pass (module docstring)."""
    memo = {}  # id(node) -> (node, its derivative)

    def d(node):
        hit = memo.get(id(node))
        if hit is None:
            hit = memo[id(node)] = (node, node._d(var, d))
        return hit[1]
    d.memo = memo
    return d


def constant_value(f: Field):
    """The literal value when the tree folded to a constant, else None."""
    return f.value if isinstance(f, Const) else None


# --- evaluation -------------------------------------------------------------

def _sqrt(x):
    if type(x) is float:  # the sampled case; math.sqrt raises for x < 0
        return math.sqrt(x)
    if x < 0:  # math.sqrt would round a tiny negative Fraction to -0.0
        raise ValueError("math domain error")
    exact = _exact_sqrt(x) if isinstance(x, Fraction) else None
    return exact if exact is not None else math.sqrt(x)


def _as_float(c):
    """The float that ``c op x`` computes with at a float x; c itself when
    that conversion overflows or rounds a nonzero c to 0, so the same
    error still happens."""
    try:
        f = float(c)
    except OverflowError:
        return c
    return f if f or not c else c


# Text of one compound node over its operands' text a and b (a Pow's b is
# its exponent), as parse reads it back.
_PRINT = {Add: "{a} + {b}", Sub: "{a} - ({b})", Mul: "({a}) * ({b})",
          Div: "({a}) / ({b})", Neg: "-({a})", Pow: "({a})^{b}", Sqrt: "sqrt({a})",
          Exp: "exp({a})", Sin: "sin({a})", Cos: "cos({a})"}

# Source of one node over its operand slots a and b, one template per node
# type; Python raises the errors, and _sqrt at an exact negative.  With the
# slot numbers, these fixed strings and the loop templates of scanner are
# all the generated text.
_SOURCE = {Add: "r{a} + r{b}", Sub: "r{a} - r{b}", Mul: "r{a} * r{b}",
           Div: "r{a} / r{b}", Neg: "-r{a}", Pow: "r{a} ** r{b}",
           Sqrt: "_sqrt(r{a})", Exp: "_exp(r{a})", Sin: "_sin(r{a})",
           Cos: "_cos(r{a})"}
_GLOBALS = {"_sqrt": _sqrt, "_exp": math.exp, "_sin": math.sin,
            "_cos": math.cos, "_abs": abs, "_float": float, "_max": max,
            "_range": range, "_type": type, "_inf": math.inf,
            "_ulp": math.ulp(0.0), "_REJECTED": (ZeroDivisionError, ValueError)}


def _program(fields):
    """The DAG walk under `fields` (module docstring): (loads, steps,
    outputs, K), K the exact constants.  A load line reads a constant
    from K (``r5 = K[0]``) and cannot raise; the steps are one line per
    distinct operation, in evaluation order; outputs are the slots of
    the fields' values.  r0..r3 hold h0..h3."""
    exact = []              # K, the constants and exponents in slot order
    slots = {}              # id(node) -> slot of its value
    numbered = {}           # rational constant, exponent or (type, a, b) -> slot
    loads, steps = [], []

    def emit(lines, text, key):
        slot = len(loads) + len(steps) + 4
        lines.append(f"r{slot} = {text}")
        if key is not None:
            numbered[key] = slot
        return slot

    def constant(value, key):
        slot = numbered.get(key)
        if slot is None:
            slot = emit(loads, f"K[{len(exact)}]", key)
            exact.append(value)
        return slot

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
                # floats are not shared: 0.0 == -0.0 and nan != nan
                v = node.value
                slot = constant(v, None if isinstance(v, float) else (type(v), v))
            else:
                kids = (node.b, node.a) if isinstance(node, _Binary) else (node.a,)
                pending = [kid for kid in kids if id(kid) not in slots]
                if pending:
                    stack.extend(pending)
                    continue
                a, b, source = slots[id(node.a)], None, _SOURCE[type(node)]
                if isinstance(node, Pow):
                    b = constant(node.exponent, node.exponent)
                elif isinstance(node, _Binary):
                    b = slots[id(node.b)]
                slot = numbered.get((type(node), a, b))
                if slot is None:
                    slot = emit(steps, source.format(a=a, b=b), (type(node), a, b))
            slots[id(node)] = slot
            stack.pop()
    return loads, steps, [slots[id(f)] for f in fields], tuple(exact)


def _define(lines, name, K):
    """The function `name` that the source `lines` define, run with only
    the helpers of _GLOBALS and the constants K in scope."""
    namespace = dict(_GLOBALS, K=K, __builtins__={})
    exec(compile("\n".join(lines), "<scalarfield evaluator>", "exec"), namespace)
    return namespace[name]


def evaluator(fields):
    """One evaluator for a sequence of fields: returns point -> tuple of
    their values at point = (v0, v1, v2, v3), as ``Field.evaluate`` would
    give them one by one, raising the first error that would raise.
    Build it once, outside the loop over fixed points (``scanner`` loops
    over sampled ones): building writes and compiles the function but
    evaluates nothing.

    The source is run(point), the lines of _program and a return of the
    outputs, over the exact constants."""
    loads, steps, outputs, K = _program(tuple(fields))
    return _define(["def run(point):",
                    " r0, r1, r2, r3 = point",
                    *(" " + line for line in loads + steps),
                    " return (" + "".join(f"r{s}, " for s in outputs) + ")"],
                   "run", K)


def scanner(fields, tail: str, exact: bool):
    """The sampling loop over `fields`, compiled into one function:
    scan(draw, rng, trials, max_draws, fail), for points of the kind
    fixed here: exact (rational) points, with K holding the exact
    constants, or float points, with K holding their floats.

    For each of `trials` points it calls draw(rng) and evaluates the
    fields there (the lines of _program; the constants are loaded once,
    before the loop).  A point where that raises ZeroDivisionError or
    ValueError is redrawn, at most `max_draws` draws a point; when they
    run out it raises fail(points evaluated, {exception type name:
    rejections}).  Any other error propagates.  The tail says what the
    loop keeps of an evaluated point:

      "values"  yields (point, values): a list of the values as floats,
                at float points only
      "worst"   returns (worst, witness, failure): the largest
                |float(value)| over all fields and points, a nan counting
                as inf, and the first point where it was reached (0.0
                and None when every value is 0); at exact points failure
                is (its residual or ulp(0), point) for the first point
                with an exact nonzero value, else None, as it always is
                at float points

    Building writes and compiles the function but evaluates nothing."""
    loads, steps, outputs, K = _program(tuple(fields))
    if tail == "worst":
        head = ["worst, witness, failure = 0.0, None, None"]
        kept = [f"v{i} = _float(r{s})" for i, s in enumerate(outputs)]
        after = ["residual = _max((" + "".join(
                     f"_abs(v{i}) if v{i} == v{i} else _inf, "
                     for i in range(len(outputs))) + "))",
                 "if residual > worst:",
                 " worst, witness = residual, point"]
        if exact:
            after += ["if failure is None and (" + " or ".join(
                          f"r{s} and _type(r{s}) is not _float" for s in outputs) + "):",
                      " failure = residual or _ulp, point"]
        end = ["return worst, witness, failure"]
    else:  # "values", at float points
        head, end, after = [], [], ["yield point, values"]
        kept = ["values = [" + "".join(f"_float(r{s}), " for s in outputs) + "]"]
    return _define([
        "def scan(draw, rng, trials, max_draws, fail):",
        *(" " + line for line in loads + head),
        " reasons = {}",
        " for evaluated in _range(trials):",
        "  for _ in _range(max_draws):",
        "   point = draw(rng)",
        "   try:",
        "    r0, r1, r2, r3 = point",
        *("    " + line for line in steps + kept),
        "    break",
        "   except _REJECTED as exc:",
        "    name = _type(exc).__name__",
        "    reasons[name] = reasons.get(name, 0) + 1",
        "  else:",
        "   raise fail(evaluated, reasons)",
        *("  " + line for line in after),
        *(" " + line for line in end)], "scan",
        K if exact else tuple(map(_as_float, K)))


# --- parser -----------------------------------------------------------------

_FUNCS = {"sqrt": sqrt, "exp": exp, "sin": sin, "cos": cos}
_INFIX = {"+": add, "-": sub, "*": mul, "/": div}

# Deepest nesting parse accepts.  It bounds both the parser's own
# recursion (parentheses, function calls, unary minus) and the height of
# the tree it builds (each operator, function and power is one level, so
# a chain h1 - h1 - ... of n terms is n - 1 levels deep); deeper input
# would exhaust the recursion of the parser and of the tree walks.
MAX_NESTING = 100

# Most nodes parse builds: each number, variable, operator, function and
# power counts one, before folding.  Compiling a field's evaluator emits
# a line per distinct node, and derivatives multiply them, so the input
# must bound its size; a closed-form solution of the flat family needs
# under 300 per field.
MAX_NODES = 5000

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
    when nesting goes deeper than MAX_NESTING levels, the field has more
    than MAX_NODES nodes or an exponent is larger than MAX_EXPONENT in
    magnitude."""
    tokens = _tokens(text)[::-1]  # next token last; "end" is taken only to fail
    take = tokens.pop
    depth = nodes = 0

    def peek():
        return tokens[-1]

    def grown(level, line, col):
        if level > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, col)
        return level

    def counted(line, col):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_NODES:
            raise ParseError(f"more than {MAX_NODES} nodes", line, col)

    def ranged(node, line, col):
        # a constant float() cannot convert fails every float sample point
        if is_const(node):
            try:
                float(node.value)
            except OverflowError:
                raise ParseError("constant beyond float range", line, col) from None
        return node

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
            counted(line, col)
            rhs, rhs_height = operand()
            height = grown(max(height, rhs_height) + 1, line, col)
            node = ranged(_INFIX[tok](node, rhs), line, col)

    def expr():
        return chain(term, "+-")

    def term():
        return chain(unary, "*/")

    def unary():
        kind, tok, line, col = peek()
        if kind == "op" and tok == "-":
            take()
            counted(line, col)
            node, height = nested(unary, line, col)
            return neg(node), grown(height + 1, line, col)
        return power()

    def power():
        node, height = atom()
        kind, tok, line, col = peek()
        if kind == "op" and tok == "^":
            take()
            counted(line, col)
            height = grown(height + 1, line, col)
            caret = line, col
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
            return ranged(pow_(node, sign * int(digits)), *caret), height
        return node, height

    def atom():
        kind, tok, line, col = take()
        if kind in ("num", "name"):
            counted(line, col)
        if kind == "num":
            try:
                value = Fraction(tok)
            except ValueError:  # past the interpreter's integer digit limit
                raise ParseError("number too long", line, col) from None
            return ranged(const(value), line, col), 0
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

"""Exterior calculus on the 4-dimensional fiber.

Forms live over one of two coframes:

  DH     dh0, dh1, dh2, dh3 (coordinate differentials; d acts here)
  ALPHA  the rescaled connection coframe a0, a1, a2, a3

with ScalarField coefficients in the fiber coordinates h0..h3.  Writing
t^2 = h0^2 + h1^2 + h2^2 + h3^2, the ALPHA coframe expands in DH as
a_i = t^-3 * (row i of M) with

    M = [[ h0,  h1,  h2,  h3],
         [-h1,  h0,  h3, -h2],
         [-h2, -h3,  h0,  h1],
         [-h3,  h2, -h1,  h0]],

i.e. a0 = t^-2 dt and t*a_1, t*a_2, t*a_3 are the connection components
of the fiber Maurer-Cartan form h^-1 dh; M M^T = t^2 Id, so the inverse
substitution is dh_j = t * sum_i M[i][j] a_i.

The hypercomplex pullbacks act on the ALPHA coframe by the substitution
a0 -> a_a, a_a -> -a0, a_b -> -a_c, a_c -> a_b (cyclic (a, b, c));
the action on a_a itself is the one forced by squaring to -Id.
Coefficients are left untouched by the pullback; the invariance facts
asserted downstream concern constant-coefficient forms.

On the trivial fiber (vanishing curvature) the coframe obeys

    d a0 = 0,      d a_a = -t a0 ^ a_a - 2 t a_b ^ a_c,

which d_via_structure applies to constant-coefficient ALPHA forms; the
general exterior derivative lives in the DH coframe.  No operation
converts a coframe on its own: add, wedge and equal take two forms in
one coframe, and a caller expands an ALPHA form with to_dh.

Form equality is decided by simplify-then-sample: coefficients that fold
to literal constants are compared exactly, the rest must `vanish` at
random points with 0.5 <= |h| <= 2 (Schwartz-Zippel style identity
testing).  `sample` (float values at float points) and `vanishes` run
one compiled loop over the fields (`scalarfield.scanner`): it draws
each point with `sample_point`, or `sample_rational_point` at the exact
points of `vanishes`, looked up at each call, so these two stay the only
point laws.  A point where a field raises ZeroDivisionError or
ValueError is redrawn, up to MAX_DRAWS draws per trial; when they run
out the loop raises SamplingError with the evaluated and rejected counts
and the rejections by exception type, so no verdict rests on zero
points.  OverflowError is not a rejection and propagates.  `vanishes` is
the one residual rule: the worst |value| over all fields and points, a
nan counting as inf, must be at most the tolerance, and at exact
rational points an exact value must be exactly 0.  One compiled loop
decides that rule at both point kinds: it keeps the worst value itself
and, at exact points, the first exact nonzero one.  The sampled checks
decide through `vanishes` (also by way of `equal` and `is_zero_form`);
only user-solution-residuals (a relative residual) and
obstruction-mechanics (a pointwise implication) judge the values of
`sample` themselves.  The two exact oracles, maurer-cartan-oracle and
r-formula-oracle, draw `sample_rational_point` themselves and compare
exact values.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from qsh_lab import scalarfield as sf
from qsh_lab.quaternion import Quaternion
from qsh_lab.record import Record

DH = "dh"
ALPHA = "alpha"

_INDICES = (0, 1, 2, 3)


class CoframeError(ValueError):
    pass


class VerticalForm(Record):
    __slots__ = ("coframe", "degree", "terms")

    def __init__(self, coframe: str, degree: int, terms: dict = None):
        # terms: sorted index tuple -> ScalarField, without zero coefficients
        self._init(coframe, degree,
                   {k: v for k, v in (terms or {}).items() if not sf.is_zero(v)})

    def coefficient(self, key) -> sf.Field:
        return self.terms.get(tuple(key), sf.ZERO)

    def is_structurally_zero(self) -> bool:
        return not self.terms


def zero_form(degree: int, coframe: str = DH) -> VerticalForm:
    return VerticalForm(coframe, degree, {})


def scalar_form(f: sf.Field, coframe: str = DH) -> VerticalForm:
    return VerticalForm(coframe, 0, {(): f})


def basis_one_form(i: int, coframe: str) -> VerticalForm:
    return VerticalForm(coframe, 1, {(i,): sf.ONE})


def dh(i: int) -> VerticalForm:
    return basis_one_form(i, DH)


def alpha(i: int) -> VerticalForm:
    return basis_one_form(i, ALPHA)


def add(u: VerticalForm, v: VerticalForm) -> VerticalForm:
    if u.coframe != v.coframe or u.degree != v.degree:
        raise CoframeError("can only add forms of equal degree in one coframe")
    terms = dict(u.terms)
    for k, f in v.terms.items():
        terms[k] = sf.add(terms.get(k, sf.ZERO), f)
    return VerticalForm(u.coframe, u.degree, terms)


def scale(f, u: VerticalForm) -> VerticalForm:
    if not isinstance(f, sf.Field):
        f = sf.const(f)
    return VerticalForm(u.coframe, u.degree,
                        {k: sf.mul(f, g) for k, g in u.terms.items()})


def _sort_sign(indices):
    """(sign of the permutation that sorts `indices`, the sorted tuple), or
    (0, None) when an index repeats."""
    if len(set(indices)) < len(indices):
        return 0, None
    inversions = sum(x > y for i, x in enumerate(indices) for y in indices[i + 1:])
    return (-1) ** inversions, tuple(sorted(indices))


def wedge(u: VerticalForm, v: VerticalForm) -> VerticalForm:
    if u.coframe != v.coframe:
        raise CoframeError("wedge requires a common coframe")
    degree = u.degree + v.degree
    terms = {}
    for s, f in u.terms.items():
        for t, g in v.terms.items():
            sign, merged = _sort_sign(s + t)
            if sign == 0:
                continue
            contrib = sf.mul(f, g)
            if sign < 0:
                contrib = sf.neg(contrib)
            terms[merged] = sf.add(terms.get(merged, sf.ZERO), contrib)
    return VerticalForm(u.coframe, degree, terms)


def wedge_all(factors) -> VerticalForm:
    out = None
    for f in factors:
        out = f if out is None else wedge(out, f)
    if out is None:
        raise ValueError("empty wedge")
    return out


def d(u: VerticalForm) -> VerticalForm:
    """Exterior derivative in the DH coframe."""
    if u.coframe != DH:
        raise CoframeError("d acts on the DH coframe; convert with to_dh first")
    terms = {}
    passes = [sf.derivative(b) for b in _INDICES]  # shared by every term
    for s, f in u.terms.items():
        for b in _INDICES:
            if b in s:
                continue
            df = passes[b](f)
            if sf.is_zero(df):
                continue
            sign, key = _sort_sign((b,) + s)
            contrib = df if sign > 0 else sf.neg(df)
            terms[key] = sf.add(terms.get(key, sf.ZERO), contrib)
    return VerticalForm(DH, u.degree + 1, terms)


# --- the ALPHA coframe in DH --------------------------------------------------

T2 = sf.add(sf.add(sf.pow_(sf.H0, 2), sf.pow_(sf.H1, 2)),
            sf.add(sf.pow_(sf.H2, 2), sf.pow_(sf.H3, 2)))
T = sf.sqrt(T2)

COFRAME_MATRIX = (
    (sf.H0, sf.H1, sf.H2, sf.H3),
    (sf.neg(sf.H1), sf.H0, sf.H3, sf.neg(sf.H2)),
    (sf.neg(sf.H2), sf.neg(sf.H3), sf.H0, sf.H1),
    (sf.neg(sf.H3), sf.H2, sf.neg(sf.H1), sf.H0),
)

_T_MINUS3 = sf.pow_(T, -3)

ALPHA_IN_DH = tuple(
    VerticalForm(DH, 1, {(j,): sf.mul(_T_MINUS3, COFRAME_MATRIX[i][j]) for j in _INDICES})
    for i in _INDICES)

# Connection components theta_a = t * a_a and theta_0 = t^-1 dt: rational
# coefficient fields t^-2 * (row of M), exact at rational points.
THETA_IN_DH = tuple(
    VerticalForm(DH, 1, {(j,): sf.div(COFRAME_MATRIX[i][j], T2) for j in _INDICES})
    for i in _INDICES)


@functools.cache
def _alpha_wedge(key) -> VerticalForm:
    if not key:
        return scalar_form(sf.ONE, DH)
    return wedge_all([ALPHA_IN_DH[i] for i in key])


def to_dh(u: VerticalForm) -> VerticalForm:
    """Expand an ALPHA form in the DH coframe."""
    if u.coframe == DH:
        raise CoframeError("form is already in the DH coframe")
    out = zero_form(u.degree, DH)
    for key, f in u.terms.items():
        out = add(out, scale(f, _alpha_wedge(key)))
    return out


# --- hypercomplex pullbacks ---------------------------------------------------

CYCLIC = {1: (2, 3), 2: (3, 1), 3: (1, 2)}  # a -> (b, c) with (a, b, c) cyclic


def _pullback_index_map(a: int):
    b, c = CYCLIC[a]
    return {0: (a, 1), a: (0, -1), b: (c, -1), c: (b, 1)}


def pullback_hyper(u: VerticalForm, a: int) -> VerticalForm:
    """Pullback along the a-th hypercomplex structure, as the coframe
    substitution a0 -> a_a, a_a -> -a0, a_b -> -a_c, a_c -> a_b.
    Degree-0 coefficients are left unchanged."""
    if u.coframe != ALPHA:
        raise CoframeError("hypercomplex pullback acts on the ALPHA coframe")
    mapping = _pullback_index_map(a)
    terms = {}
    for key, f in u.terms.items():
        sign, new_key = _sort_sign(tuple(mapping[idx][0] for idx in key))
        sign *= math.prod(mapping[idx][1] for idx in key)
        contrib = f if sign > 0 else sf.neg(f)
        terms[new_key] = sf.add(terms.get(new_key, sf.ZERO), contrib)
    return VerticalForm(ALPHA, u.degree, terms)


# --- structure equations on the trivial fiber ---------------------------------

def _structure_dalpha_over_t(a: int) -> VerticalForm:
    """(1/t) d a_a as a constant-coefficient ALPHA 2-form."""
    if a == 0:
        return zero_form(2, ALPHA)
    b, c = CYCLIC[a]
    terms = {(0, a): sf.const(-1)}
    key = tuple(sorted((b, c)))
    coeff = sf.const(-2) if (b, c) == key else sf.const(2)
    terms[key] = coeff
    return VerticalForm(ALPHA, 2, terms)


def structure_dalpha(a: int) -> VerticalForm:
    """d a_a as an ALPHA 2-form (zero curvature): -t a0^a_a - 2t a_b^a_c."""
    return scale(T, _structure_dalpha_over_t(a))


def d_via_structure(u: VerticalForm) -> VerticalForm:
    """Exterior derivative of a constant-coefficient ALPHA form computed
    purely from the coframe structure equations.

    Every Leibniz term contains exactly one d a_i factor, hence exactly
    one factor of t; pulling it out keeps the accumulation rational, so
    cancellations happen structurally (exact zero coefficient maps).
    """
    if u.coframe != ALPHA:
        raise CoframeError("structure-equation d acts on the ALPHA coframe")
    acc = zero_form(u.degree + 1, ALPHA)
    for key, f in u.terms.items():
        if not sf.is_const(f):
            raise ValueError("structure-equation d needs constant coefficients")
        for pos, idx in enumerate(key):
            sign = (-1) ** pos
            factors = [alpha(i) for i in key[:pos]]
            factors.append(_structure_dalpha_over_t(idx))
            factors.extend(alpha(i) for i in key[pos + 1:])
            piece = wedge_all(factors)
            coeff = f if sign > 0 else sf.neg(f)
            acc = add(acc, scale(coeff, piece))
    return scale(T, acc)


# --- sampling ------------------------------------------------------------------

def sample_point(rng: random.Random):
    """A float point with 0.5 <= |h| <= 2 (rejection sampling).  Each
    coordinate is rng.uniform(-2, 2), inlined as its documented formula
    a + (b - a) * random(), so the draws and values stay the same."""
    random = rng.random
    while True:
        x0, x1, x2, x3 = (-2.0 + 4.0 * random(), -2.0 + 4.0 * random(),
                          -2.0 + 4.0 * random(), -2.0 + 4.0 * random())
        # sum, not a + chain: from Python 3.12 sum compensates
        if 0.5 <= sum((x0 * x0, x1 * x1, x2 * x2, x3 * x3)) ** 0.5 <= 2.0:
            return x0, x1, x2, x3


def sample_rational_point(rng: random.Random):
    """A nonzero exact rational point with moderate entries."""
    while True:
        p = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(4))
        if any(p):
            return p


# Draws per trial before a sampled check gives up for lack of evidence.
MAX_DRAWS = 64


class SamplingError(Exception):
    """MAX_DRAWS draws in a row could not be evaluated.  Deliberately not
    a ValueError: callers that reject bad input by ValueError must not
    mistake missing evidence for a verdict."""

    def __init__(self, evaluated: int, reasons: dict):
        self.evaluated, self.reasons = evaluated, dict(reasons)
        self.rejected = sum(reasons.values())
        by_type = ", ".join(f"{n} {k}" for k, n in sorted(reasons.items()))
        super().__init__(f"{MAX_DRAWS} draws in a row rejected after {evaluated} "
                         f"evaluated points ({self.rejected} rejected: {by_type})")


def sample(fields, trials: int, rng: random.Random):
    """Yield (point, list of the fields' values as floats) at `trials`
    float points where every field evaluates.  Points raising
    ZeroDivisionError or ValueError are redrawn (at most MAX_DRAWS draws
    per trial, else SamplingError).  trials < 1 is a ValueError: no
    verdict may rest on zero points."""
    return _scan(fields, "values", trials, rng, False)


def _scan(fields, tail: str, trials: int, rng: random.Random, rational: bool):
    """The compiled loop of `fields` with `tail` (scalarfield.scanner),
    run over `trials` points of the point law of `rational`."""
    if trials < 1:
        raise ValueError(f"sampling needs at least one trial, got {trials}")
    draw = sample_rational_point if rational else sample_point
    return sf.scanner(fields, tail, rational)(draw, rng, trials, MAX_DRAWS, SamplingError)


# --- randomized equality -------------------------------------------------------

class EqualityReport(Record):
    __slots__ = ("equal", "max_residual", "witness")

    def __init__(self, equal: bool, max_residual: float, witness: tuple = None):
        self._init(equal, max_residual, witness)


def vanishes(fields, trials: int, tolerance: float, rng: random.Random,
             rational: bool = False) -> EqualityReport:
    """Whether `fields` vanish at `trials` points drawn by `sample`, by the
    rule of the module docstring, which one compiled loop decides at both
    point kinds.  A failure's witness is the worst point, else the first
    exact nonzero one, with its own residual (>= ulp(0))."""
    worst, witness, failure = _scan(fields, "worst", trials, rng, rational)
    if worst > tolerance:
        return EqualityReport(False, worst, witness)
    if failure:
        return EqualityReport(False, *failure)
    return EqualityReport(True, worst)


def equal(u: VerticalForm, v: VerticalForm, trials: int = 100,
          tolerance: float = 1e-10, *, rng: random.Random,
          rational: bool = False) -> EqualityReport:
    """Simplify-then-sample equality of two forms of one degree in one
    coframe; convert an ALPHA form with to_dh first to compare it with a
    DH one."""
    if u.coframe != v.coframe or u.degree != v.degree:
        raise CoframeError("can only compare forms of equal degree in one coframe")
    deltas = []
    for key in sorted(set(u.terms) | set(v.terms)):
        delta = sf.sub(u.terms.get(key, sf.ZERO), v.terms.get(key, sf.ZERO))
        if not sf.is_const(delta):
            deltas.append(delta)
        elif delta.value != 0:
            r = abs(float(delta.value))
            return EqualityReport(False, r if r == r else math.inf)
    if not deltas:
        return EqualityReport(True, 0.0)
    return vanishes(deltas, trials, tolerance, rng, rational)


def is_zero_form(u: VerticalForm, trials: int = 100, tolerance: float = 1e-10,
                 *, rng: random.Random, rational: bool = False) -> EqualityReport:
    return equal(u, zero_form(u.degree, u.coframe), trials=trials,
                 tolerance=tolerance, rng=rng, rational=rational)


# --- the Maurer-Cartan oracle --------------------------------------------------

def maurer_cartan_components(h: Quaternion):
    """Coefficient matrix C[i][b] of dh_b in component i of h^-1 dh,
    computed by exact quaternion arithmetic at the point h."""
    hinv = h.inverse()
    cols = [hinv * Quaternion.unit(b) for b in range(4)]
    return [[cols[b].components()[i] for b in range(4)] for i in range(4)]


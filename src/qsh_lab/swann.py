"""Fiber geometry of the bundle over the flat model: the invariant
vertical 2-forms, the closedness PDE system with its explicit solution
families, and the symmetric-space primitive.

Conventions used throughout (h0..h3 are the fiber coordinates and
t^2 = h0^2 + ... + h3^2):

* beta_a = a0 ^ a_a + a_b ^ a_c in the ALPHA coframe, cyclic (a, b, c).
* A vertical 2-form with coefficient functions F = (F1, F2, F3) in the
  coordinate presentation is

      beta = F1 (dh0^dh1 + dh2^dh3) + F2 (dh0^dh2 - dh1^dh3)
           + F3 (dh0^dh3 + dh1^dh2),

  and d(beta) = 0 iff the four first-order equations returned by
  pde_residuals vanish.

Sign/basis table for dbeta_equals_pde (PDE_TERMS holds it in code):
expanding d(beta) over the 3-form basis dh_i^dh_j^dh_k (i<j<k) gives,
with +1 signs throughout,

    coefficient of dh0^dh2^dh3  =  F1,0 + F2,3 - F3,2   (residual 1)
    coefficient of dh1^dh2^dh3  =  F1,1 + F2,2 + F3,3   (residual 2)
    coefficient of dh0^dh1^dh3  =  F1,3 - F2,0 - F3,1   (residual 3)
    coefficient of dh0^dh1^dh2  =  F1,2 - F2,1 + F3,0   (residual 4)

where F_{a,b} is the partial of F_a by h_b.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from qsh_lab import forms
from qsh_lab import scalarfield as sf
from qsh_lab.quaternion import Quaternion
from qsh_lab.record import Record


def beta_basis_form(a: int) -> forms.VerticalForm:
    """beta_a = a0 ^ a_a + a_b ^ a_c (constant coefficients, ALPHA)."""
    b, c = forms.CYCLIC[a]
    terms = {(0, a): sf.ONE}
    key = tuple(sorted((b, c)))
    terms[key] = sf.ONE if (b, c) == key else sf.const(-1)
    return forms.VerticalForm(forms.ALPHA, 2, terms)


def beta_form(f) -> forms.VerticalForm:
    """The vertical Hermitian 2-form sum_a f_a beta_a, for three
    ScalarFields f (ALPHA)."""
    out = forms.zero_form(2, forms.ALPHA)
    for a in (1, 2, 3):
        out = forms.add(out, forms.scale(f[a - 1], beta_basis_form(a)))
    return out


class FlatSolution(Record):
    """Coefficient functions (F1, F2, F3) of the coordinate presentation."""

    __slots__ = ("F",)

    def __init__(self, F: tuple):  # three ScalarFields
        self._init(F)


def beta_of_F(solution: FlatSolution) -> forms.VerticalForm:
    f1, f2, f3 = solution.F
    terms = {
        (0, 1): f1, (2, 3): f1,
        (0, 2): f2, (1, 3): sf.neg(f2),
        (0, 3): f3, (1, 2): f3,
    }
    return forms.VerticalForm(forms.DH, 2, terms)


#: The signed partials (a, b, sign) = sign * dF_a/dh_b that each of the
#: four residuals sums, in the order of the module docstring's table.
#: The first sign of each row is +1.
PDE_TERMS = (((1, 0, 1), (3, 2, -1), (2, 3, 1)),
             ((1, 1, 1), (2, 2, 1), (3, 3, 1)),
             ((1, 3, 1), (2, 0, -1), (3, 1, -1)),
             ((1, 2, 1), (2, 1, -1), (3, 0, 1)))


def pde_partials(solution: FlatSolution) -> dict:
    """dF_a/dh_b by (a, b) in the order of PDE_TERMS, one pass a variable."""
    passes = [sf.derivative(b) for b in range(4)]
    return {(a, b): passes[b](solution.F[a - 1]) for row in PDE_TERMS for a, b, _ in row}


def pde_residuals(solution: FlatSolution, partials: dict = None):
    """The four closedness equations, as ScalarFields (zero iff closed),
    summed from `partials`, pde_partials(solution) when not given."""
    d = partials or pde_partials(solution)
    out = []
    for (a, b, _), *rest in PDE_TERMS:
        acc = d[a, b]
        for a, b, sign in rest:
            acc = (sf.add if sign > 0 else sf.sub)(acc, d[a, b])
        out.append(acc)
    return tuple(out)


_RESIDUAL_KEYS = ((0, 2, 3), (1, 2, 3), (0, 1, 3), (0, 1, 2))


def dbeta_equals_pde(solution: FlatSolution, trials: int = 100,
                     tolerance: float = 1e-10, *, rng: random.Random):
    """Assert d(beta_of_F) has exactly the four PDE residuals as its
    3-form coefficients (table in the module docstring).  Returns the
    EqualityReport of the comparison."""
    dbeta = forms.d(beta_of_F(solution))
    residuals = pde_residuals(solution)
    want = forms.VerticalForm(forms.DH, 3,
                              dict(zip(_RESIDUAL_KEYS, residuals)))
    return forms.equal(dbeta, want, trials=trials, tolerance=tolerance, rng=rng)


def f_from_F(solution: FlatSolution):
    """The quadratic change of presentation from coordinate coefficients
    F_a to frame coefficients f_a with beta = sum f_a beta_a."""
    F1, F2, F3 = solution.F
    h0, h1, h2, h3 = sf.H0, sf.H1, sf.H2, sf.H3
    sq = lambda v: sf.pow_(v, 2)
    two = sf.const(2)
    t2 = forms.T2
    q_pp = sf.sub(sf.add(sq(h0), sq(h1)), sf.add(sq(h2), sq(h3)))  # h0^2+h1^2-h2^2-h3^2
    q_pm = sf.add(sf.sub(sq(h0), sq(h1)), sf.sub(sq(h2), sq(h3)))  # h0^2-h1^2+h2^2-h3^2
    q_mp = sf.add(sf.sub(sq(h0), sq(h1)), sf.sub(sq(h3), sq(h2)))  # h0^2-h1^2-h2^2+h3^2
    m03p12 = sf.add(sf.mul(h0, h3), sf.mul(h1, h2))
    m03m12 = sf.sub(sf.mul(h0, h3), sf.mul(h1, h2))
    m02p13 = sf.add(sf.mul(h0, h2), sf.mul(h1, h3))
    m02m13 = sf.sub(sf.mul(h0, h2), sf.mul(h1, h3))
    m01p23 = sf.add(sf.mul(h0, h1), sf.mul(h2, h3))
    m01m23 = sf.sub(sf.mul(h0, h1), sf.mul(h2, h3))
    f1 = sf.mul(t2, sf.add(sf.sub(sf.mul(q_pp, F1),
                                  sf.mul(sf.mul(two, m02m13), F3)),
                           sf.mul(sf.mul(two, m03p12), F2)))
    f2 = sf.mul(t2, sf.add(sf.add(sf.mul(sf.neg(sf.mul(two, m03m12)), F1),
                                  sf.mul(q_pm, F2)),
                           sf.mul(sf.mul(two, m01p23), F3)))
    f3 = sf.mul(t2, sf.add(sf.sub(sf.mul(sf.mul(two, m02p13), F1),
                                  sf.mul(sf.mul(two, m01m23), F2)),
                           sf.mul(q_mp, F3)))
    return (f1, f2, f3)


# --- explicit solution family -------------------------------------------------

class SolutionConstants(Record):
    """Constants of the closed-form solution family.

    s1, s2, s3 >= 0 are the primary parameters; the squared values play
    the role of the constants C11, C12, C13 under the square roots, so
    no branch choices enter the expression trees.  Requires
    C11 + C12 = s1^2 + s2^2 != 0.
    """

    __slots__ = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10",
                 "s1", "s2", "s3", "C14")

    def __init__(self, C1=Fraction(0), C2=Fraction(0), C3=Fraction(0),
                 C4=Fraction(0), C5=Fraction(0), C6=Fraction(0), C7=Fraction(0),
                 C8=Fraction(0), C9=Fraction(0), C10=Fraction(0), s1=Fraction(1),
                 s2=Fraction(1), s3=Fraction(0), C14=Fraction(0)):
        self._init(C1, C2, C3, C4, C5, C6, C7, C8, C9, C10, s1, s2, s3, C14)

    @property
    def C11(self) -> Fraction:
        return self.s1 ** 2

    @property
    def C12(self) -> Fraction:
        return self.s2 ** 2

    @property
    def C13(self) -> Fraction:
        return self.s3 ** 2


def explicit_solution_family(k: SolutionConstants) -> FlatSolution:
    """The printed closed-form family solving the four PDEs."""
    if any(s < 0 for s in (k.s1, k.s2, k.s3)):
        raise ValueError("s1, s2, s3 must be nonnegative")
    h0, h1, h2, h3 = sf.H0, sf.H1, sf.H2, sf.H3
    C = lambda v: sf.const(v)
    s1, s2, s3 = C(k.s1), C(k.s2), C(k.s3)
    w = sf.sqrt(C(k.C11 + k.C12 + k.C13))  # sqrt(C11+C12+C13)
    tau0 = sf.add(sf.mul(sf.exp(sf.mul(sf.mul(sf.TWO, s1), h0)), C(k.C1)), C(k.C2))
    tau1 = sf.add(sf.mul(sf.exp(sf.mul(sf.mul(sf.TWO, s2), h1)), C(k.C3)), C(k.C4))
    tau2 = sf.add(sf.mul(sf.exp(sf.mul(sf.mul(sf.TWO, s3), h2)), C(k.C5)), C(k.C6))
    damp = sf.mul(sf.mul(sf.exp(sf.neg(sf.mul(s2, h1))), sf.exp(sf.neg(sf.mul(s3, h2)))),
                  sf.exp(sf.neg(sf.mul(s1, h0))))
    eta1 = sf.mul(sf.sin(sf.mul(w, h3)), damp)
    eta2 = sf.mul(sf.cos(sf.mul(w, h3)), damp)
    mix_p = sf.add(sf.mul(C(k.C7), eta1), sf.mul(C(k.C8), eta2))  # C7 n1 + C8 n2
    mix_m = sf.sub(sf.mul(C(k.C7), eta2), sf.mul(C(k.C8), eta1))  # C7 n2 - C8 n1
    den = C(k.C11 + k.C12)
    two = sf.TWO
    F1 = sf.add(sf.mul(sf.mul(sf.mul(tau0, tau1), tau2), mix_p), C(k.C14))
    F2_first = sf.div(
        sf.neg(sf.mul(sf.mul(sf.mul(sf.mul(sf.mul(mix_m, s1), tau2), tau1),
                             sf.sub(sf.mul(two, C(k.C2)), tau0)), w)),
        den)
    F2_second = sf.div(
        sf.mul(sf.mul(sf.mul(sf.mul(sf.mul(s3, sf.sub(sf.mul(two, C(k.C4)), tau1)), s2),
                             sf.sub(sf.mul(two, C(k.C6)), tau2)), mix_p), tau0),
        den)
    F2 = sf.add(sf.add(F2_first, F2_second), C(k.C10))
    F3_first = sf.div(
        sf.neg(sf.mul(sf.mul(sf.mul(sf.mul(sf.mul(tau0, sf.sub(sf.mul(two, C(k.C4)), tau1)),
                                           mix_m), s2), w), tau2)),
        den)
    F3_second = sf.div(
        sf.neg(sf.mul(sf.mul(sf.mul(sf.mul(sf.mul(s3, mix_p), tau1),
                                    sf.sub(sf.mul(two, C(k.C6)), tau2)),
                             sf.sub(sf.mul(two, C(k.C2)), tau0)), s1)),
        den)
    F3 = sf.add(sf.add(F3_first, F3_second), C(k.C9))
    return FlatSolution(F=(F1, F2, F3))


# --- torsion classification ----------------------------------------------------

class TorsionClass(Record):
    __slots__ = ("kind", "degenerate")

    def __init__(self, kind: str, degenerate: bool = False):
        # kind is "torsion-free" or "X57"; degenerate means beta is identically zero
        self._init(kind, degenerate)


def torsion_type(solution: FlatSolution, trials: int = 100,
                 tolerance: float = 1e-10, *, rng: random.Random) -> TorsionClass:
    """Classify a closed beta: torsion-free iff every F_a is constant
    (dF_a = 0), else the closed-but-nonconstant class X57.  Each question
    is one forms.is_zero_form identity test.  Rejects non-closed input
    with ValueError; raises forms.SamplingError when the sampled points
    cannot be evaluated."""
    def zero(u: forms.VerticalForm) -> bool:
        return forms.is_zero_form(u, trials=trials, tolerance=tolerance, rng=rng).equal

    for i, res in enumerate(pde_residuals(solution)):
        if not zero(forms.scalar_form(res)):
            raise ValueError(f"input is not closed (residual {i + 1} is nonzero); "
                             "classification applies to closed forms only")
    constant = all(zero(forms.d(forms.scalar_form(f))) for f in solution.F)
    # a nonconstant field is not zero, so only a constant beta can vanish
    degenerate = constant and all(zero(forms.scalar_form(f)) for f in solution.F)
    return TorsionClass(kind="torsion-free" if constant else "X57",
                        degenerate=degenerate)


# --- symmetric-space fiber data -------------------------------------------------

class SymSpaceParams(Record):
    """Einstein constant c (sign free), the model size n, and the frame
    constants c1..c4 with (c1, c2, c3) != (0, 0, 0)."""

    __slots__ = ("c", "n", "c1", "c2", "c3", "c4")

    def __init__(self, c: Fraction, n: int, c1: Fraction, c2: Fraction,
                 c3: Fraction, c4: Fraction = Fraction(0)):
        self._init(c, n, c1, c2, c3, c4)
        if (self.c1, self.c2, self.c3) == (0, 0, 0):
            raise ValueError("(c1, c2, c3) must be nonzero")
        if self.n < 2:
            raise ValueError("n >= 2")


def symspace_r(params: SymSpaceParams, h: Quaternion):
    """The adjoint-orbit coefficients (r1, r2, r3) at a fiber point: the
    fields of symspace_r_fields evaluated there, exact at a rational h.
    One evaluator of their c/2n = 1 form serves every parameter set."""
    k = Fraction(params.c, 2 * params.n)
    return tuple(k * r for r in _r_evaluator()(h.components()))


def symspace_r_oracle(params: SymSpaceParams, h: Quaternion):
    """The same coefficients from quaternion arithmetic:
    -(c/2n) h^-1 i h, exact."""
    w = h.inverse() * Quaternion.unit(1) * h
    k = Fraction(params.c, 2 * params.n)
    return tuple(-k * comp for comp in w.imag_components())


def symspace_r_fields(params: SymSpaceParams):
    """The adjoint-orbit coefficients as ScalarFields on the fiber:

        r1 = -(c/2n)(h0^2+h1^2-h2^2-h3^2)/t^2,
        r2 =  (c/2n)*2(h0 h3 - h1 h2)/t^2,
        r3 = -(c/2n)*2(h0 h2 + h1 h3)/t^2.
    """
    k = sf.const(Fraction(params.c, 2 * params.n))
    return tuple(sf.mul(k, r) for r in _unit_r_fields())


@functools.cache
def _unit_r_fields():
    """The fields of symspace_r_fields at c/2n = 1."""
    h0, h1, h2, h3 = sf.H0, sf.H1, sf.H2, sf.H3
    sq = lambda v: sf.pow_(v, 2)
    t2 = forms.T2
    r1 = sf.neg(sf.div(sf.sub(sf.add(sq(h0), sq(h1)),
                              sf.add(sq(h2), sq(h3))), t2))
    r2 = sf.div(sf.mul(sf.TWO, sf.sub(sf.mul(h0, h3), sf.mul(h1, h2))), t2)
    r3 = sf.neg(sf.div(sf.mul(sf.TWO, sf.add(sf.mul(h0, h2), sf.mul(h1, h3))), t2))
    return (r1, r2, r3)


@functools.cache
def _r_evaluator():
    return sf.evaluator(_unit_r_fields())


def symspace_exp_f(params: SymSpaceParams) -> sf.Field:
    """The rational function E with E = exp(f):

        E = -4n t^4 / (c c1 (-h0^2-h1^2+h2^2+h3^2) + 2 c c2 (h0h3-h1h2)
                       - 2 c c3 (h0h2+h1h3) + 2 c c4 t^4).
    """
    h0, h1, h2, h3 = sf.H0, sf.H1, sf.H2, sf.H3
    sq = lambda v: sf.pow_(v, 2)
    t4 = sf.pow_(forms.T2, 2)
    cc = lambda ci: sf.const(params.c * ci)
    d1 = sf.mul(cc(params.c1),
                sf.add(sf.sub(sq(h2), sq(h0)), sf.sub(sq(h3), sq(h1))))
    d2 = sf.mul(sf.mul(sf.TWO, cc(params.c2)),
                sf.sub(sf.mul(h0, h3), sf.mul(h1, h2)))
    d3 = sf.neg(sf.mul(sf.mul(sf.TWO, cc(params.c3)),
                       sf.add(sf.mul(h0, h2), sf.mul(h1, h3))))
    d4 = sf.mul(sf.mul(sf.TWO, cc(params.c4)), t4)
    denom = sf.add(sf.add(d1, d2), sf.add(d3, d4))
    return sf.div(sf.mul(sf.const(-4 * params.n), t4), denom)


def symspace_df(params: SymSpaceParams) -> forms.VerticalForm:
    """df as a DH 1-form via the logarithmic derivative dE/E.

    The node set has no logarithm, so f itself is never materialized;
    d(log E) = dE/E is the identical 1-form wherever E != 0.
    """
    E = symspace_exp_f(params)
    terms = {(b,): sf.div(E.diff(b), E) for b in range(4)}
    return forms.VerticalForm(forms.DH, 1, terms)


def symspace_tau(params: SymSpaceParams) -> forms.VerticalForm:
    """The right-hand side 1-form

        tau = (1/t) E [ -(c1 r1 + c2 r2 + c3 r3) a0 + (c2 r3 - c3 r2) a1
                        + (c3 r1 - c1 r3) a2 + (c1 r2 - c2 r1) a3 ],

    assembled over the ALPHA coframe.
    """
    r1, r2, r3 = symspace_r_fields(params)
    c1, c2, c3 = (sf.const(params.c1), sf.const(params.c2), sf.const(params.c3))
    combo = (
        sf.neg(sf.add(sf.add(sf.mul(c1, r1), sf.mul(c2, r2)), sf.mul(c3, r3))),
        sf.sub(sf.mul(c2, r3), sf.mul(c3, r2)),
        sf.sub(sf.mul(c3, r1), sf.mul(c1, r3)),
        sf.sub(sf.mul(c1, r2), sf.mul(c2, r1)),
    )
    E_over_t = sf.div(symspace_exp_f(params), forms.T)
    out = forms.zero_form(1, forms.ALPHA)
    for i in range(4):
        out = forms.add(out, forms.scale(sf.mul(E_over_t, combo[i]),
                                         forms.alpha(i)))
    return out


def symspace_primitive_check(params: SymSpaceParams, trials: int = 100,
                             tolerance: float = 1e-8, *, rng: random.Random):
    """Compare df with tau expanded in DH; returns the EqualityReport
    (max residual over sampled fiber points)."""
    return forms.equal(symspace_df(params), forms.to_dh(symspace_tau(params)),
                       trials=trials, tolerance=tolerance, rng=rng)


def symspace_ddf_check(params: SymSpaceParams, trials: int = 100,
                       tolerance: float = 1e-10, *, rng: random.Random):
    """d(df) = 0, evaluated at exact rational points (the coefficients of
    df are rational functions, so each value must be exactly zero)."""
    ddf = forms.d(symspace_df(params))
    return forms.is_zero_form(ddf, trials=trials, tolerance=tolerance,
                              rng=rng, rational=True)


# --- obstruction mechanics -------------------------------------------------------

class ObstructionReport(Record):
    __slots__ = ("implication_holds", "witness")

    def __init__(self, implication_holds: bool, witness: dict = None):
        # witness: a sampled point where the joint conditions fail
        self._init(implication_holds, witness)


def general_obstruction_check(r_fields, f_fields, trials: int = 100, *,
                              rng: random.Random) -> ObstructionReport:
    """Pointwise contradiction mechanics for the five closedness
    conditions with Omega_a = r_a * (fixed placeholder 2-form).

    At each sampled point: whenever |f|^2 != 0 and the three cross
    conditions f_b Omega_c - f_c Omega_b = 0 hold together with
    sum_a f_a Omega_a = 0, then Omega_a = 0 is forced (the implication
    must hold; it is linear algebra in the coefficients).  The report
    also carries the first point witnessing that the conditions are
    jointly unsatisfiable, i.e. where |f|^2 != 0 and some r_a != 0.
    A value counts as nonzero when its magnitude exceeds 1e-10.
    """
    tolerance = 1e-10
    implication = True
    witness = None
    for point, values in forms.sample((*f_fields, *r_fields), trials, rng):
        fs, rs = values[:len(f_fields)], values[len(f_fields):]
        f_norm2 = sum(v * v for v in fs)
        r_norm = max(abs(v) for v in rs)
        cross = (fs[1] * rs[2] - fs[2] * rs[1],
                 -fs[0] * rs[2] + fs[2] * rs[0],
                 fs[0] * rs[1] - fs[1] * rs[0])
        total = sum(f * r for f, r in zip(fs, rs))
        antecedent = (f_norm2 > tolerance
                      and all(abs(c) <= tolerance for c in cross)
                      and abs(total) <= tolerance)
        if antecedent and r_norm > tolerance:
            implication = False
        if witness is None and f_norm2 > tolerance and r_norm > tolerance:
            # the five conditions cannot all hold here; record which fails
            failing = {}
            if any(abs(c) > tolerance for c in cross):
                failing["cross"] = cross
            if abs(total) > tolerance:
                failing["sum"] = total
            if failing:
                witness = {"point": point, "f": fs, "r": rs, **failing}
    return ObstructionReport(implication_holds=implication, witness=witness)

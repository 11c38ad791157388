"""Named verification checks, grouped into suites.

Each check verifies one identity, and its record (a CheckResult) carries
the identity text (anchor), a pass flag, the worst residual seen and, on
failure, a witness.  The CLI composes suites into reports; the
acceptance tests call the same functions with pinned parameters.

Checks derive their randomness from the run seed, the suite name and
the check name, so reports are reproducible bit-for-bit.

A check is one function `fn(ctx, n)` declared with
`@_check(suite, name, anchor)`, which appends it to `CHECKS[suite]`:

- A name that holds `{n}` runs once for each n in `ctx.ns`, with `{n}`
  filled in; any other name runs once with n = None.
- A generator's yielded differences (Fractions or QArrays) are decided
  exactly by `_exact`; the value it returns, if any, is the detail.  Any
  other check returns (passed, residual, witness, detail), for sampled
  identities through `_verdict`, or None when it does not apply.
- A check builds what it uses (`ctx.model(n)`, `ctx.basis(n)`,
  `_pinned`, `_pinned_pass`) in its own body, so an error there fails
  that check only.

Set-up is built once per context: `SuiteContext.memo` records the
outcome of each build, its value or the exception it raised, and gives
it to every later check, which fails on that exception again without
rebuilding.  The model, the basis and the per-size pinned pass are
memoized this way.  The pass (`_pinned_pass`) computes R_A at the
pinned parameters once for each basis element, derives its Bianchi
residual, its Ricci tensor and its sparse primitive row, each with an
outcome of its own, and drops the tensor; the pinned Bianchi, Ricci and
map-rank checks read them.  No check holds a tensor past its own body;
the pass keeps one sparse row per element (about 8 MB at n = 8).

`run_suites` runs the checks in lanes, a task at a time.  The selected
linear suites are one task, since their checks share that set-up; every
check of the sampled suites (fiber, flat, symspace) is a task of its
own, since each draws from its own rng and builds all it uses.  Task
numbers are single bytes, so a run holds at most 256 tasks.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import time
import types
from fractions import Fraction

from qsh_lab import curvature as curv
from qsh_lab import forms
from qsh_lab import liealg
from qsh_lab import matrices as mat
from qsh_lab import scalarfield as sf
from qsh_lab import swann
from qsh_lab.linmodel import (FlatModel, build_flat_model, fundamental_4tensor,
                              qsh_form, qsh_form_matrix, rotation_matrix,
                              sp1_conjugate_frame)
from qsh_lab.matrices import QArray
from qsh_lab.quaternion import Quaternion
from qsh_lab.report import CheckResult

SUITE_NAMES = ("model", "liealg", "curvature", "fiber", "flat", "symspace")

CHECKS = {suite: [] for suite in SUITE_NAMES}  # suite -> [(name, anchor, fn)]


def _check(suite: str, name: str, anchor: str):
    """Declare `fn(ctx, n)` as a check of `suite` (see the module docstring)."""
    def declare(fn):
        CHECKS[suite].append((name, anchor, fn))
        return fn
    return declare


class SuiteContext:
    """What every check of a run reads: the run's seed, sizes, kappa,
    trials and tolerance (from its RunConfig), the FlatSolution from
    --input, if any, and the memo of set-up outcomes."""

    def __init__(self, config, user_solution=None):
        self.seed = config.seed
        self.ns = config.ns
        self.kappa = config.kappa
        self.trials = config.trials
        self.tolerance = config.tolerance
        self.user_solution = user_solution
        self._outcomes = {}  # memo key -> outcome

    def memo(self, key, build):
        """build() once per key: its value, or the exception it raised,
        raised again at this and every later call."""
        if key not in self._outcomes:
            self._outcomes[key] = _attempt(build)
        return _result(self._outcomes[key])

    def model(self, n: int) -> FlatModel:
        return self.memo(("model", n), lambda: build_flat_model(n))

    def basis(self, n: int) -> liealg.LieBasis:
        return self.memo(("basis", n),
                         lambda: liealg.enumerate_so_star_basis(self.model(n)))

    def rng(self, suite: str, name: str) -> random.Random:
        return random.Random(f"{self.seed}:{suite}:{name}")


def _attempt(build):
    """The outcome of build(): (value, None), or (None, the exception)."""
    try:
        return build(), None
    except Exception as exc:
        return None, exc


def _result(outcome):
    """The value of an outcome of _attempt, or its exception raised."""
    value, exc = outcome
    if exc is not None:
        raise exc.with_traceback(None)  # a fresh traceback at each raise
    return value


def _run(suite: str, name: str, anchor: str, fn) -> CheckResult | None:
    """The record of `fn()`: a generator is decided by `_exact`, None means
    the check does not apply, and an exception fails the check."""
    start = time.perf_counter()
    try:
        result = fn()
        if isinstance(result, types.GeneratorType):
            result = _exact(result)
        if result is None:
            return None
        passed, residual, witness, detail = result
    except forms.SamplingError as exc:  # no evidence is a failed check
        passed, residual, detail = False, None, f"no evidence: {exc}"
        witness = {"evaluated": exc.evaluated, "rejected": exc.rejected}
    except Exception as exc:  # a crashed check is a failed check
        passed, residual, witness, detail = False, None, None, f"exception: {exc!r}"
    return CheckResult(suite=suite, name=name, anchor=anchor, passed=passed,
                       residual=residual, witness=witness, detail=detail,
                       wall_time=time.perf_counter() - start)


def _run_suite(suite: str, ctx: SuiteContext, check: str = None) -> list:
    """The records of the checks of `suite`, or of its one check
    registered as `check`."""
    records = (_run(suite, name.format(n=n), anchor, functools.partial(fn, ctx, n))
               for name, anchor, fn in CHECKS[suite] if check in (None, name)
               for n in (ctx.ns if "{n}" in name else (None,)))
    return [record for record in records if record is not None]


def _verdict(reports, detail: str = ""):
    """The check result of a run of sampled identities: the first
    (EqualityReport, failure detail) pair whose report is not equal fails
    the check with its residual, witness and detail; else the check
    passes with the worst residual and `detail`.  `reports` is lazy, so
    nothing after a failure is built or draws from the rng."""
    worst = 0.0
    for rep, failure in reports:
        if not rep.equal:
            return False, rep.max_residual, rep.witness, failure
        worst = max(worst, rep.max_residual)
    return True, worst, None, detail


def _exact(diffs, detail: str = ""):
    """The check result of a run of exact identities over Q: it passes iff
    every item of `diffs` (a Fraction or a QArray) is 0, with the largest
    |entry| as its residual.  Every item is read, so a failing check makes
    the same rng draws as a passing one and records its worst residual.
    A generator's return value, if any, replaces `detail`."""
    def items():
        nonlocal detail
        detail = (yield from diffs) or detail
    worst = max((d.max_abs() if isinstance(d, QArray) else abs(d) for d in items()),
                default=Fraction(0))
    return worst == 0, float(worst), None, detail


def _rational_vector(rng: random.Random, dim: int) -> QArray:
    return QArray.of([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(dim)])


def _quaternions(v: QArray) -> list:
    """The quaternionic components of v * v.scale, a vector of H^n with
    integer coordinates, in the coordinate convention of linmodel."""
    c = v.values.tolist()
    return [Quaternion(*c[i:i + 4]) for i in range(0, len(c), 4)]


def _unit_quaternion(rng: random.Random) -> Quaternion:
    """Exact unit quaternion: q = p^2 / |p|^2 for a random rational p."""
    while True:
        p = Quaternion(*(Fraction(rng.randint(-4, 4)) for _ in range(4)))
        if not p.is_zero():
            break
    sq = p * p
    n2 = p.norm2()
    return Quaternion(sq.h0 / n2, sq.h1 / n2, sq.h2 / n2, sq.h3 / n2)


# ---------------------------------------------------------------------------
# model suite
# ---------------------------------------------------------------------------

@_check("model", "quaternionic-identity[n={n}]",
        "J1^2 = J2^2 = J3^2 = J1 J2 J3 = -Id, exactly")
def quaternionic_identity(ctx, n):
    m = ctx.model(n)
    ident = QArray.eye(m.dim)
    yield from (Ja @ Ja + ident for Ja in m.J)
    yield m.J[0] @ m.J[1] @ m.J[2] + ident


@_check("model", "omega-skew-nondegenerate[n={n}]", "omega0 is skew with full rank 4n")
def omega_skew(ctx, n):
    m = ctx.model(n)
    skew = (m.omega + m.omega.T).max_abs()
    rk = mat.rank(m.omega)
    ok = skew == 0 and rk == m.dim
    return ok, float(skew), None if ok else {"rank": rk}, f"rank {rk}"


@_check("model", "omega-hermitian[n={n}]",
        "omega0(J_a x, J_a y) = omega0(x, y) for a = 1, 2, 3")
def omega_hermitian(ctx, n):
    m = ctx.model(n)
    yield m.J.T @ m.omega @ m.J - m.omega


@_check("model", "metric-compatibility[n={n}]",
        "g_a = omega0(., J_a .), symmetric and J_a-Hermitian")
def metric_compatibility(ctx, n):
    m = ctx.model(n)
    yield m.g - m.g.T
    yield m.g - m.omega @ m.J
    yield m.J.T @ m.g @ m.J - m.g


@_check("model", "metric-signature[n={n}]", "each g_a has signature (2n, 2n)")
def metric_signature(ctx, n):
    sigs = [mat.signature_symmetric(ga) for ga in ctx.model(n).g]
    ok = all(s == (2 * n, 2 * n, 0) for s in sigs)
    return ok, None, None if ok else {"signatures": sigs}, f"signatures {sigs}"


@_check("model", "non-hermitian-witness[n={n}]",
        "g_1(J_2 x, J_2 y) != g_1(x, y) on some basis pair")
def non_hermitian_witness(ctx, n):
    # invariance of g_1 under J_2 must fail on some basis pair
    m = ctx.model(n)
    lhs = m.J[1].T @ m.g[0] @ m.J[1]
    for i in range(m.dim):
        for j in range(m.dim):
            if lhs[i, j] != m.g[0][i, j]:
                wit = {"pair": (i, j), "g1": m.g[0][i, j],
                       "g1_J2_rotated": lhs[i, j]}
                return True, None, wit, "witness found as required"
    return False, 0.0, None, "g_1 unexpectedly invariant under J_2"


@_check("model", "qsh-reconstruction[n={n}]", "h(x,y)z = omega0(x,y) z + sum_a "
        "g_a(x,y) J_a z, rebuilt from the scalar/sp1 output")
def qsh_reconstruction(ctx, n):
    m = ctx.model(n)
    rng = ctx.rng("model", f"qsh-reconstruction{n}")
    j = Quaternion(0, 0, 1, 0)
    for _ in range(min(ctx.trials, 25)):
        x, y, z = (_rational_vector(rng, m.dim) for _ in range(3))
        # by quaternion arithmetic, on integers: h(x, y) z = z_k conj(q) in
        # each component k, for q = sum_k conj(x_k) j y_k
        q = sum((a.conj() * j * b for a, b in zip(_quaternions(x), _quaternions(y))),
                Quaternion(0, 0, 0, 0))
        recon = [c for zk in _quaternions(z) for c in (zk * q.conj()).components()]
        scale = Fraction(1, x.scale * y.scale * z.scale)
        yield qsh_form_matrix(m, x, y) @ z - QArray.of(recon) * scale


@_check("model", "qsh-special-values[n={n}]", "scalar part vanishes on the diagonal; "
        "g_1(e1, J_1 e1) = -omega0(e1, e1) = 0")
def qsh_special_values(ctx, n):
    m = ctx.model(n)
    rng = ctx.rng("model", f"qsh-special{n}")
    for _ in range(10):
        x = _rational_vector(rng, m.dim)
        scalar, _ = qsh_form(m, x, x)
        yield scalar
    e1 = m.basis_vector(0)
    j1e1 = m.J[0] @ e1
    _, sp1 = qsh_form(m, e1, j1e1)
    yield sp1[0]


@_check("model", "phi-identity[n={n}]", "Phi = sum_a g_a (x) g_a agrees with omega0(., "
        "Im(h) .) and is pair-symmetric")
def phi_identity(ctx, n):
    m = ctx.model(n)
    rng = ctx.rng("model", f"phi{n}")
    for _ in range(min(ctx.trials, 20)):
        x, y, z, w = (_rational_vector(rng, m.dim) for _ in range(4))
        phi = fundamental_4tensor(m, x, y, z, w)
        yield phi - fundamental_4tensor(m, y, x, z, w)
        yield phi - fundamental_4tensor(m, z, w, x, y)
        _, sp1_zw = qsh_form(m, z, w)
        imh_y = sum(c * (Ja @ y) for c, Ja in zip(sp1_zw, m.J))
        yield phi - x @ m.omega @ imh_y


@_check("model", "frame-rotation-covariance[n={n}]", "rotated frames stay admissible, "
        "the rotation is exactly orthogonal, and the sp1 part of h rotates covariantly")
def frame_rotation(ctx, n):
    m = ctx.model(n)
    rng = ctx.rng("model", f"frame{n}")
    for _ in range(5):
        q = _unit_quaternion(rng)
        rotated = sp1_conjugate_frame(m, q)
        prod = rotated[0] @ rotated[1] @ rotated[2]
        yield prod + QArray.eye(m.dim)
        r3 = rotation_matrix(q)
        yield r3.T @ r3 - QArray.eye(3)
        x = _rational_vector(rng, m.dim)
        y = _rational_vector(rng, m.dim)
        _, sp1 = qsh_form(m, x, y)
        for a in range(3):
            rotated_ga = x @ (m.omega @ rotated[a]) @ y
            expected = sum(r3[b, a] * sp1[b] for b in range(3))
            yield rotated_ga - expected


# ---------------------------------------------------------------------------
# liealg suite
# ---------------------------------------------------------------------------

@_check("liealg", "so-star-dimension[n={n}]",
        "dim so*(2n) = n(2n-1) by exact nullspace")
def so_star_dimension(ctx, n):
    basis = ctx.basis(n)  # enumeration self-checks the count
    expected = n * (2 * n - 1)
    ok = len(basis.so_basis) == expected
    return ok, None, None, f"{len(basis.so_basis)} elements"


@_check("liealg", "basis-defining-equations[n={n}]", "every basis element commutes "
        "with J_a, is omega0-skew, traceless, and Tr(J_a B) = 0")
def defining_equations(ctx, n):
    m = ctx.model(n)
    for B in ctx.basis(n).so_basis:
        yield liealg.commutation_defect(m, B)
        yield liealg.symplectic_defect(m, B)
        yield B.trace()
        for Ja in m.J:
            yield (Ja @ B).trace()


@_check("liealg", "decompose-roundtrip[n={n}]", "decomposition recovers coefficients "
        "exactly and rejects non-members with a residual")
def decompose_roundtrip(ctx, n):
    m = ctx.model(n)
    basis = ctx.basis(n)
    rng = ctx.rng("liealg", f"decompose{n}")
    so_part, sp_coeffs = liealg.decompose(m, m.J[1])
    if sp_coeffs != (0, 1, 0) or so_part.max_abs() != 0:
        return False, None, {"got": sp_coeffs}, "J2 decomposition"
    first = basis.so_basis[0]
    so_part, sp_coeffs = liealg.decompose(m, first)
    if sp_coeffs != (0, 0, 0) or (so_part - first).max_abs() != 0:
        return False, None, None, "so* element decomposition"
    for _ in range(5):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in basis.elements()]
        combo = sum(c * b for c, b in zip(coeffs, basis.elements()))
        _, sp_coeffs = liealg.decompose(m, combo)
        if tuple(sp_coeffs) != tuple(coeffs[-3:]):
            return False, None, {"want": coeffs[-3:], "got": sp_coeffs}, ""
    try:
        liealg.decompose(m, QArray.eye(m.dim))
        return False, None, None, "identity accepted as a member"
    except liealg.MembershipError as exc:
        detail = f"membership error residual {exc.residual}"
    return True, None, None, detail


@_check("liealg", "projection-targets[n={n}]", "project_ZQ lands in the centralizer; "
        "project_Q lands in span{J_a}")
def projection_targets(ctx, n):
    m = ctx.model(n)
    rng = ctx.rng("liealg", f"proj-targets{n}")
    for _ in range(5):
        x = _rational_vector(rng, m.dim)
        y = _rational_vector(rng, m.dim)
        p = liealg.project_ZQ(m, x, y)
        yield liealg.commutation_defect(m, p)
        q = liealg.project_Q(m, x, y)
        yield q - liealg.project_Q_operator(m, q)


@_check("liealg", "projection-frame-independence[n={n}]", "both projections are "
        "unchanged under admissible frame rotations")
def projection_frame_independence(ctx, n):
    m = ctx.model(n)
    rng = ctx.rng("liealg", f"proj-frames{n}")
    for _ in range(5):
        frame = sp1_conjugate_frame(m, _unit_quaternion(rng))
        rotated = FlatModel(m.n, frame, m.omega, m.omega @ frame)
        x = _rational_vector(rng, m.dim)
        y = _rational_vector(rng, m.dim)
        yield liealg.project_ZQ(m, x, y) - liealg.project_ZQ(rotated, x, y)
        yield liealg.project_Q(m, x, y) - liealg.project_Q(rotated, x, y)


@_check("liealg", "projection-idempotence[n={n}]", "projections fix their targets and "
        "kill each other's (centralizer meets span{J_a} trivially for n > 1)")
def projection_idempotence(ctx, n):
    m = ctx.model(n)
    zq_members = [QArray.eye(m.dim), *ctx.basis(n).so_basis[:3]]
    for t in zq_members:
        yield liealg.project_ZQ_operator(m, t) - t
        yield liealg.project_Q_operator(m, t)
    for Ja in m.J:
        yield liealg.project_Q_operator(m, Ja) - Ja
        yield liealg.project_ZQ_operator(m, Ja)


@_check("liealg", "projection-oracle[n={n}]", "project_ZQ equals the exact "
        "least-squares projection onto the nullspace-computed centralizer basis")
def projection_oracle(ctx, n):
    m = ctx.model(n)
    dim = m.dim
    rng = ctx.rng("liealg", f"proj-oracle{n}")
    zq = liealg.centralizer_basis(m).reshape(-1, dim * dim)
    gram = zq @ zq.T
    cases = [(m.basis_vector(0), m.basis_vector(0))]
    for _ in range(2):
        cases.append((_rational_vector(rng, dim), _rational_vector(rng, dim)))
    for x, y in cases:
        # omega0(x,-) (x) y, with omega0(x, z) = -(Omega x).z
        target = y[:, None] @ (-(m.omega @ x))[None, :]
        coeffs = mat.solve(gram, zq @ target.reshape(dim * dim))
        proj = (coeffs @ zq).reshape(dim, dim)
        yield proj - liealg.project_ZQ(m, x, y)
    return ("orthogonal projection oracle (unit-quaternion conjugation is "
            "orthogonal, so averaging = trace-orthogonal projection)")


@_check("liealg", "circle-map[n={n}]", "x o y is symmetric, its sp1 part is -(1/2n) "
        "sum_a g_a(x,y) J_a, and its so* part is the projection of omega0(x,-)y + "
        "omega0(y,-)x")
def circle_map_checks(ctx, n):
    m = ctx.model(n)
    rng = ctx.rng("liealg", f"circle{n}")
    for _ in range(5):
        x = _rational_vector(rng, m.dim)
        y = _rational_vector(rng, m.dim)
        yield (liealg.circle_map(m, x, y, ctx.kappa)
               - liealg.circle_map(m, y, x, ctx.kappa))
        sp = liealg.circle_sp1(m, x, y)
        expected = sum(Fraction(-1, 2 * n) * (x @ ga @ y) * Ja
                       for ga, Ja in zip(m.g, m.J))
        yield sp - expected
        # so* part is the invariant projection of f_{x (.) y}
        fxy = (y[:, None] @ (-(m.omega @ x))[None, :]
               + x[:, None] @ (-(m.omega @ y))[None, :])
        yield (liealg.circle_so_star(m, x, y)
               - liealg.project_ZQ_operator(m, fxy))


@_check("liealg", "circle-equivariance[n={n}]",
        "[B, x o y] = (Bx) o y + x o (By) for sampled basis B")
def circle_equivariance(ctx, n):
    m = ctx.model(n)
    basis = ctx.basis(n)
    rng = ctx.rng("liealg", f"equivariance{n}")
    # so_basis[0] and so_basis[-1] are block diagonal; so_basis[1] mixes
    # two quaternionic components, so a map equivariant only under block
    # diagonal elements fails on it
    sample = [basis.so_basis[0], basis.so_basis[-1], basis.sp_basis[0],
              basis.sp_basis[2], basis.so_basis[1]]
    for B in sample:
        x = _rational_vector(rng, m.dim)
        y = _rational_vector(rng, m.dim)
        circ = liealg.circle_map(m, x, y, ctx.kappa)
        lhs = B @ circ - circ @ B
        rhs = (liealg.circle_map(m, B @ x, y, ctx.kappa)
               + liealg.circle_map(m, x, B @ y, ctx.kappa))
        yield lhs - rhs


# ---------------------------------------------------------------------------
# curvature suite
# ---------------------------------------------------------------------------

def _pinned(ctx: SuiteContext, n: int):
    """The model, basis and pinned curvature coefficients of size n."""
    return ctx.model(n), ctx.basis(n), curv.CurvParams.pinned(ctx.kappa, n)


def _pinned_pass(ctx: SuiteContext, n: int) -> list:
    """For each element of basis.elements(), in order, the outcomes (see
    _attempt) of its Bianchi residual, Ricci tensor and primitive row at
    the pinned parameters, from one R_A dropped once all three are read."""
    def build():
        m, basis, params = _pinned(ctx, n)
        outcomes = []
        for el in basis.elements():
            R = _attempt(lambda: curv.curvature_of(m, basis, el, params))
            outcomes.append(tuple(_attempt(lambda: read(_result(R))) for read in (
                curv.bianchi_residual, curv.ricci_of, curv.primitive_row)))
        return outcomes
    return ctx.memo(("pinned", n), build)


@_check("curvature", "bianchi-pinned-zero[n={n}]", "cyclic sum R(x,y)z + R(y,z)x + "
        "R(z,x)y = 0 for (c1, c2) = (2k, nk) and every basis A")
def bianchi_pinned(ctx, n):
    outcomes = _pinned_pass(ctx, n)
    for bianchi, _, _ in outcomes:
        yield _result(bianchi)
    return f"all {len(outcomes)} basis elements"


@_check("curvature", "bianchi-perturbed-nonzero[n={n}]", "each off-pinning coefficient "
        "pair (2k±1, nk±1) breaks the cyclic identity for some basis A")
def bianchi_perturbed(ctx, n):
    m, basis, params = _pinned(ctx, n)
    failures = []
    grid = [(params.c1 + d1, params.c2 + d2)
            for d1 in (1, -1) for d2 in (1, -1)]
    for c1, c2 in grid:
        perturbed = curv.CurvParams(ctx.kappa, c1, c2)
        if not any(curv.bianchi_residual(curv.curvature_of(m, basis, el, perturbed))
                   for el in basis.elements()):
            failures.append((c1, c2))
    ok = not failures
    return ok, None, None if ok else {"still_flat": failures}, \
        f"grid {[(str(a), str(b)) for a, b in grid]}"


@_check("curvature", "curvature-two-paths[n={n}]", "the projection-built tensor and "
        "the expanded (1,3) formula agree on basis triples")
def two_paths(ctx, n):
    m, basis, params = _pinned(ctx, n)
    rng = ctx.rng("curvature", f"two-paths{n}")
    # The difference is bilinear in (x, y), so each of its entries is a
    # polynomial of degree 2, and no single value of an entry of
    # _rational_vector has probability above 1/13 (0 and 1 each have 1/13).
    # By Schwartz-Zippel one draw misses a nonzero difference with
    # probability at most 2/13, and five draws below 1e-4.
    for el in (basis.sp_basis[0], basis.so_basis[0]):
        tensor = curv.curvature_of(m, basis, el, params)
        for _ in range(min(ctx.trials, 5)):
            x, y = _rational_vector(rng, m.dim), _rational_vector(rng, m.dim)
            yield (curv.curvature_by_definition(m, el, params, x, y)
                   - mat.einsum("i,j,ijkr->rk", x, y, tensor))


@_check("curvature", "tensor-wellformed[n={n}]",
        "R is antisymmetric, g-valued, and vanishes for A = 0")
def tensor_wellformed(ctx, n):
    m, basis, params = _pinned(ctx, n)
    rng = ctx.rng("curvature", f"wellformed{n}")
    el = basis.so_basis[1]
    tensor = curv.curvature_of(m, basis, el, params)
    for _ in range(10):
        i, j = rng.randrange(m.dim), rng.randrange(m.dim)
        yield tensor[i, j] + tensor[j, i]
    for i, j in itertools.islice(itertools.combinations(range(m.dim), 2), 6):
        liealg.decompose(m, tensor[i, j].T)  # raises if outside g
    yield curv.curvature_of(m, basis, m.omega * 0, params)
    return "values decompose in g"


def _pinned_ricci(ctx, n):
    """The (element, Ricci outcome) pairs of the pinned pass, split into
    those of basis.so_basis and those of basis.sp_basis."""
    basis = ctx.basis(n)
    pairs = [(el, ricci)
             for el, (_, ricci, _) in zip(basis.elements(), _pinned_pass(ctx, n))]
    return pairs[:len(basis.so_basis)], pairs[len(basis.so_basis):]


def _ricci_part(ctx, n, pairs, coef):
    m = ctx.model(n)
    for el, ricci in pairs:
        yield _result(ricci) - curv.omega_pairing(m, el) * coef
    return f"coefficient {coef}"


@_check("curvature", "ricci-commuting-part[n={n}]", "Ric_A = 2(n+2) k omega0(A., .) "
        "for every commuting-part basis element")
def ricci_commuting_part(ctx, n):
    return _ricci_part(ctx, n, _pinned_ricci(ctx, n)[0],
                       Fraction(2 * (n + 2)) * ctx.kappa)


@_check("curvature", "ricci-sp1-part[n={n}]",
        "Ric_A = 4n k omega0(A., .) for A in {J1, J2, J3}")
def ricci_sp1_part(ctx, n):
    return _ricci_part(ctx, n, _pinned_ricci(ctx, n)[1], Fraction(4 * n) * ctx.kappa)


@_check("curvature", "ricci-closed-form[n={n}]", "trace Ricci equals (2n+1)k w(Ay,z) + "
        "(k/2) sum_a g_a(y,z) Tr(J_a A) - k sum_a w(J_a A J_a y, z), and is symmetric")
def ricci_closed_form(ctx, n):
    m, basis, params = _pinned(ctx, n)
    rng = ctx.rng("curvature", f"ricci-closed{n}")
    for _ in range(10):
        combo = sum(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * b
                    for b in basis.elements())
        ric = curv.ricci_of(curv.curvature_of(m, basis, combo, params))
        closed = curv.ricci_closed_form(m, combo, ctx.kappa)
        yield ric - closed
        yield ric - ric.T
    return "10 random A"


@_check("curvature", "ricci-linearity[n={n}]", "Ric_{A1+A2} = (2n+4) k omega0(A1., .) "
        "+ 4n k omega0(A2., .) for the split into commuting and sp1 parts")
def ricci_linearity(ctx, n):
    m, basis, params = _pinned(ctx, n)
    rng = ctx.rng("curvature", f"ricci-linear{n}")
    for _ in range(3):
        a1 = sum(rng.randint(-3, 3) * b for b in basis.so_basis)
        a2 = sum(rng.randint(-3, 3) * b for b in basis.sp_basis)
        ric = curv.ricci_of(curv.curvature_of(m, basis, a1 + a2, params))
        split = (curv.omega_pairing(m, a1) * (Fraction(2 * n + 4) * ctx.kappa)
                 + curv.omega_pairing(m, a2) * (Fraction(4 * n) * ctx.kappa))
        yield ric - split


_DICHOTOMY = ("Ric_A is invariant under the whole structure 2-sphere iff "
              "the sp1 part of A vanishes; violations carry a witness")


@_check("curvature", "ricci-hermitian-dichotomy[n={n}]", _DICHOTOMY)
def ricci_dichotomy(ctx, n):
    m, basis, params = _pinned(ctx, n)
    commuting, sp1 = _pinned_ricci(ctx, n)
    for _, ricci in commuting:
        ok, wit = curv.is_Q_hermitian(m, _result(ricci))
        if not ok:
            return False, None, wit, "commuting part should be Hermitian"
    for _, ricci in sp1:
        ok, witness = curv.is_Q_hermitian(m, _result(ricci))
        if ok:
            return False, None, None, "sp1 part should fail Hermiticity"
    # mixed element must fail as well (both directions of the dichotomy);
    # it is no basis element, so the pinned pass does not hold it
    mixed = basis.so_basis[0] + basis.sp_basis[0]
    tensor = curv.curvature_of(m, basis, mixed, params)
    if curv.is_Q_hermitian(m, curv.ricci_of(tensor))[0]:
        return False, None, None, "mixed element should fail Hermiticity"
    zero_ok, _ = curv.is_Q_hermitian(m, m.omega * 0)
    return zero_ok, None, witness, "witness recorded for the sp1 failure"


@_check("curvature", "ricci-hermitian-dichotomy[n=3][mandatory]", _DICHOTOMY)
def ricci_dichotomy_mandatory(ctx, n):
    # the two Ricci coefficients coincide at n = 2 (both 8k), so the
    # Hermiticity dichotomy is only conclusive at n = 3; run it anyway
    return None if 3 in ctx.ns else ricci_dichotomy(ctx, 3)


@_check("curvature", "curvature-map-rank[n={n}]", "A -> R_A is injective: rank = "
        "n(2n-1) + 3, exact rank and float SVD agree")
def map_rank(ctx, n):
    rows = [_result(row) for _, _, row in _pinned_pass(ctx, n)]
    columns = curv.minor_columns(rows)
    exact = curv.curvature_map_rank(rows, columns)
    approx = curv.curvature_map_rank_float(rows, columns)
    expected = n * (2 * n - 1) + 3
    ok = exact == expected and approx == expected
    wit = None if ok else {"exact": exact, "svd": approx, "expected": expected}
    return ok, None, wit, f"rank {'' if ok else '>= '}{exact} (exact) / {approx} (svd)"


# ---------------------------------------------------------------------------
# fiber suite (coframe calculus)
# ---------------------------------------------------------------------------

@_check("fiber", "maurer-cartan-oracle", "the coframe component formulas equal the "
        "quaternion expansion of h^-1 dh, exactly")
def mc_oracle(ctx, n):
    rng = ctx.rng("fiber", "maurer-cartan")
    theta = [forms.THETA_IN_DH[i].coefficient((b,)) for i in range(4) for b in range(4)]
    for point, values in forms.sample(theta, 50, rng, rational=True):
        mc = forms.maurer_cartan_components(Quaternion(*point))
        if tuple(c for row in mc for c in row) != values:
            return False, None, {"h": point}, ""
    return True, 0.0, None, "50 exact rational points"


@_check("fiber", "dalpha0-zero", "d a0 = 0")
def dalpha0(ctx, n):
    rng = ctx.rng("fiber", "dalpha0")
    return _verdict([(forms.is_zero_form(forms.d(forms.ALPHA_IN_DH[0]),
                                         trials=ctx.trials, tolerance=ctx.tolerance,
                                         rng=rng), "")])


@_check("fiber", "structure-equations",
        "d a_a = -t a0 ^ a_a - 2t a_b ^ a_c on the trivial fiber")
def structure_equations(ctx, n):
    rng = ctx.rng("fiber", "structure")
    return _verdict((forms.equal(forms.d(forms.ALPHA_IN_DH[a]),
                                 forms.to_dh(forms.structure_dalpha(a)),
                                 trials=ctx.trials, tolerance=ctx.tolerance, rng=rng),
                     f"a = {a}") for a in (1, 2, 3))


@_check("fiber", "beta-pullback-invariance", "each beta_b is invariant under every "
        "hypercomplex pullback, as an exact coframe substitution")
def beta_invariance(ctx, n):
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            form = swann.beta_basis_form(b)
            pulled = forms.pullback_hyper(form, a)
            if set(pulled.terms) != set(form.terms):
                return False, None, {"a": a, "b": b}, "term keys changed"
            for key in form.terms:
                delta = sf.sub(pulled.terms[key], form.terms[key])
                if not sf.is_zero(delta):
                    return False, None, {"a": a, "b": b, "key": key}, ""
    return True, 0.0, None, "exact coefficient maps"


@_check("fiber", "pullback-involution",
        "pullback squares to -Id on 1-forms and to +Id on 2-forms")
def pullback_involution(ctx, n):
    for a in (1, 2, 3):
        for i in range(4):
            twice = forms.pullback_hyper(
                forms.pullback_hyper(forms.alpha(i), a), a)
            if sf.constant_value(twice.terms.get((i,), sf.ZERO)) != -1:
                return False, None, {"a": a, "i": i}, "1-form square"
        w = forms.wedge(forms.alpha(0), forms.alpha(a))
        twice = forms.pullback_hyper(forms.pullback_hyper(w, a), a)
        if sf.constant_value(twice.terms.get((0, a), sf.ZERO)) != 1:
            return False, None, {"a": a}, "2-form square"
    return True, 0.0, None, ""


@_check("fiber", "dbeta-trivial-fiber-two-paths", "d beta_a = 0 on the trivial fiber "
        "via the structure equations and via the coordinate expansion")
def dbeta_two_paths(ctx, n):
    rng = ctx.rng("fiber", "dbeta-paths")
    betas = [swann.beta_basis_form(a) for a in (1, 2, 3)]
    for a, beta in enumerate(betas, 1):
        if not forms.d_via_structure(beta).is_structurally_zero():
            return False, None, {"a": a}, "structure path not exactly zero"
    return _verdict(((forms.is_zero_form(forms.d(forms.to_dh(beta)), trials=ctx.trials,
                                         tolerance=ctx.tolerance, rng=rng),
                      f"a = {a}") for a, beta in enumerate(betas, 1)),
                    "structure path exact, coordinate path sampled")


@_check("fiber", "top-form-determinant",
        "a0^a1^a2^a3 has DH coefficient det(substitution) = t^-8")
def top_form(ctx, n):
    tol = ctx.tolerance
    rng = ctx.rng("fiber", "top-form")
    top = forms.to_dh(forms.wedge_all([forms.alpha(i) for i in range(4)]))
    sub_matrix = [[sf.mul(sf.pow_(forms.T, -3), forms.COFRAME_MATRIX[i][j])
                   for j in range(4)] for i in range(4)]
    det = _det4(sub_matrix)
    want = forms.VerticalForm(forms.DH, 4, {(0, 1, 2, 3): det})

    def reports():
        yield forms.equal(top, want, trials=ctx.trials, tolerance=tol, rng=rng), ""
        # determinant of the unscaled matrix is t^4
        detM = _det4([[forms.COFRAME_MATRIX[i][j] for j in range(4)]
                      for i in range(4)])
        oracle = forms.scalar_form(sf.sub(detM, sf.pow_(forms.T2, 2)))
        yield (forms.is_zero_form(oracle, trials=50, tolerance=tol, rng=rng),
               "cofactor-expansion oracle")
    return _verdict(reports(), "cofactor-expansion oracle")


@_check("fiber", "exterior-algebra-laws", "d^2 = 0, the graded Leibniz rule, and "
        "graded anticommutativity on random forms")
def random_form_laws(ctx, n):
    tol = ctx.tolerance
    rng = ctx.rng("fiber", "form-laws")

    def reports():
        for _ in range(10):
            p = rng.randrange(0, 3)
            u = _random_dh_form(rng, p)
            yield (forms.is_zero_form(forms.d(forms.d(u)), trials=20,
                                      tolerance=tol, rng=rng), "d^2 != 0")
            q = rng.randrange(0, 4 - p)
            v = _random_dh_form(rng, q)
            lhs = forms.d(forms.wedge(u, v))
            rhs = forms.add(forms.wedge(forms.d(u), v),
                            forms.scale(sf.const((-1) ** p),
                                        forms.wedge(u, forms.d(v))))
            yield (forms.equal(lhs, rhs, trials=20, tolerance=tol, rng=rng),
                   "Leibniz failed")
            uv = forms.wedge(u, v)
            vu = forms.scale(sf.const((-1) ** (p * q)), forms.wedge(v, u))
            yield (forms.equal(uv, vu, trials=10, tolerance=tol, rng=rng),
                   "anticommutativity")
    return _verdict(reports())


@_check("fiber", "dbeta-general-coefficients", "d(sum f_a beta_a) = sum df_a ^ beta_a "
        "on the trivial fiber for arbitrary coefficient fields")
def dbeta_general_f(ctx, n):
    rng = ctx.rng("fiber", "dbeta-general")

    def reports():
        for _ in range(5):
            f_fields = tuple(_random_field(rng) for _ in range(3))
            beta = swann.beta_form(f_fields)
            lhs = forms.d(forms.to_dh(beta))
            rhs = forms.zero_form(3, forms.DH)
            for a in (1, 2, 3):
                df = forms.d(forms.scalar_form(f_fields[a - 1]))
                rhs = forms.add(rhs, forms.wedge(
                    df, forms.to_dh(swann.beta_basis_form(a))))
            yield forms.equal(lhs, rhs, trials=30, tolerance=ctx.tolerance, rng=rng), ""
    return _verdict(reports())


def _det4(m):
    total = sf.ZERO
    for perm in itertools.permutations(range(4)):
        term = functools.reduce(sf.mul, (m[r][perm[r]] for r in range(4)), sf.ONE)
        total = sf.add(total, term if forms._sort_sign(perm)[0] > 0 else sf.neg(term))
    return total


def _random_field(rng: random.Random, depth: int = 0) -> sf.Field:
    r = rng.random()
    if depth > 2 or r < 0.3:
        return sf.const(Fraction(rng.randint(-3, 3)))
    if r < 0.55:
        return sf.var(rng.randrange(4))
    if r < 0.62:
        return sf.exp(sf.mul(sf.const(Fraction(1, 2)), sf.var(rng.randrange(4))))
    a = _random_field(rng, depth + 1)
    b = _random_field(rng, depth + 1)
    return rng.choice([sf.add, sf.sub, sf.mul])(a, b)


def _random_dh_form(rng: random.Random, degree: int) -> forms.VerticalForm:
    keys = list(itertools.combinations(range(4), degree))
    return forms.VerticalForm(forms.DH, degree,
                              {k: _random_field(rng) for k in keys})


# ---------------------------------------------------------------------------
# flat suite (PDE system and solution families)
# ---------------------------------------------------------------------------

@_check("flat", "pde-dbeta-equivalence", "the 3-form coefficients of d beta are "
        "exactly the four first-order residuals (documented sign table)")
def pde_dbeta_equivalence(ctx, n):
    rng = ctx.rng("flat", "pde-dbeta")
    solutions = (swann.FlatSolution(F=tuple(_random_field(rng) for _ in range(3)))
                 for _ in range(10))
    reports = (swann.dbeta_equals_pde(s, trials=30, tolerance=ctx.tolerance, rng=rng)
               for s in solutions)
    return _verdict(((rep, "") for rep in reports), "10 random coefficient triples")


@_check("flat", "pde-hand-solution", "(F1, F2, F3) = (h1, -h2, 0) solves all four "
        "equations and closes beta")
def hand_solution(ctx, n):
    rng = ctx.rng("flat", "hand-solution")
    solution = swann.FlatSolution(F=(sf.H1, sf.neg(sf.H2), sf.ZERO))
    residuals = swann.pde_residuals(solution)
    if not all(sf.is_zero(r) for r in residuals):
        return False, None, None, "residuals did not fold to zero"
    return _verdict([(forms.is_zero_form(forms.d(swann.beta_of_F(solution)),
                                         trials=ctx.trials, tolerance=ctx.tolerance,
                                         rng=rng), "")])


@_check("flat", "pde-violating-solution", "(h0, 0, 0) fails exactly in the first "
        "equation, and d beta exposes it in the matching coefficient")
def violating_solution(ctx, n):
    solution = swann.FlatSolution(F=(sf.H0, sf.ZERO, sf.ZERO))
    residuals = swann.pde_residuals(solution)
    first = sf.constant_value(residuals[0])
    rest_zero = all(sf.is_zero(r) for r in residuals[1:])
    dbeta = forms.d(swann.beta_of_F(solution))
    coeff = sf.constant_value(dbeta.coefficient((0, 2, 3)))
    ok = first == 1 and rest_zero and coeff == 1
    wit = {"first_residual": first, "dbeta_023": coeff}
    return ok, None, wit, "witness: the predicted nonzero coefficient"


@_check("flat", "solution-family-residuals", "the closed-form exp/sin family solves "
        "all four equations (residual < 1e-8)")
def solution_family(ctx, n):
    rng = ctx.rng("flat", "family")

    def reports():
        for _ in range(20):
            k = _random_constants(rng)
            residuals = swann.pde_residuals(swann.explicit_solution_family(k))
            yield forms.vanishes(residuals, ctx.trials, 1e-8, rng), f"constants {k}"
    return _verdict(reports(), "20 random constant sets")


@_check("flat", "family-cross-representation", "sum_a f_a(F, h) beta_a and the "
        "coordinate presentation of beta agree as forms")
def family_cross_representation(ctx, n):
    rng = ctx.rng("flat", "family-cross")

    def reports():
        for _ in range(5):
            solution = swann.explicit_solution_family(_random_constants(rng))
            frame = swann.beta_form(swann.f_from_F(solution))
            yield forms.equal(forms.to_dh(frame), swann.beta_of_F(solution),
                              trials=40, tolerance=1e-8, rng=rng), ""
    return _verdict(reports())


@_check("flat", "family-degenerate-limit", "with only the additive constants nonzero "
        "the family collapses to constants and stays a solution")
def degenerate_family(ctx, n):
    k = swann.SolutionConstants(C9=Fraction(3), C10=Fraction(2),
                                C14=Fraction(1), s1=Fraction(1),
                                s2=Fraction(1), s3=Fraction(0))
    solution = swann.explicit_solution_family(k)
    values = [sf.constant_value(f) for f in solution.F]
    residuals = swann.pde_residuals(solution)
    ok = values == [1, 2, 3] and all(sf.is_zero(r) for r in residuals)
    return ok, None, None if ok else {"values": values}, ""


@_check("flat", "torsion-classification", "constant coefficients are torsion-free, "
        "closed nonconstant ones are class X57, non-closed are rejected")
def classification(ctx, n):
    tol = ctx.tolerance
    rng = ctx.rng("flat", "classification")
    const_sol = swann.FlatSolution(F=(sf.const(1), sf.const(2), sf.const(3)))
    t1 = swann.torsion_type(const_sol, trials=ctx.trials, tolerance=tol,
                            rng=rng)
    vary = swann.FlatSolution(F=(sf.H1, sf.neg(sf.H2), sf.ZERO))
    t2 = swann.torsion_type(vary, trials=ctx.trials, tolerance=tol, rng=rng)
    zero = swann.FlatSolution(F=(sf.ZERO, sf.ZERO, sf.ZERO))
    t3 = swann.torsion_type(zero, trials=ctx.trials, tolerance=tol, rng=rng)
    try:
        swann.torsion_type(swann.FlatSolution(F=(sf.H0, sf.ZERO, sf.ZERO)),
                           trials=ctx.trials, tolerance=tol, rng=rng)
        return False, None, None, "non-closed input was not rejected"
    except ValueError:
        pass
    ok = (t1.kind == "torsion-free" and not t1.degenerate
          and t2.kind == "X57"
          and t3.kind == "torsion-free" and t3.degenerate)
    wit = None if ok else {"got": [t1, t2, t3]}
    return ok, None, wit, "degenerate zero solution flagged"


@_check("flat", "user-solution-residuals", "the user-supplied (F1, F2, F3) satisfies "
        "the four closedness equations")
def user_input(ctx, n):
    # a point passes when each residual is at most 1e-8, both
    # absolutely and relative to the largest partial it sums; a
    # point where every residual and every partial is exactly 0.0
    # although some partial is not structurally zero has
    # underflowed and is no evidence either way
    if ctx.user_solution is None:  # runs only with --input
        return None
    rng = ctx.rng("flat", "user-input")
    partials = swann.pde_partials(ctx.user_solution)
    can_underflow = not all(map(sf.is_zero, partials.values()))
    worst = worst_relative = 0.0
    witness = None
    underflow = 0
    for point, values in forms.sample(
            (*swann.pde_residuals(ctx.user_solution, partials),
             *partials.values()),
            ctx.trials, rng):
        if can_underflow and not any(values):
            underflow += 1
            continue
        residuals = values[:4]
        worst = max(worst, *(abs(v) if v == v else math.inf for v in residuals))
        scales = [max(map(abs, values[i:i + 3])) for i in (4, 7, 10, 13)]
        relative = max(map(_relative, residuals, scales))
        if relative > worst_relative:
            worst_relative = relative
            witness = {"point": point, "residuals": residuals}
    detail = "closedness of the user-supplied coefficients"
    if underflow == ctx.trials:
        return False, None, {"evaluated": 0, "rejected": underflow}, \
            (f"no evidence: every residual and partial underflowed to "
             f"0.0 at all {underflow} points ({underflow} rejected: "
             f"{underflow} underflow)")
    if worst <= 1e-8 and worst_relative <= 1e-8:
        return True, worst, None, detail
    return False, worst, witness, \
        f"{detail}: relative residual {worst_relative:.3g}"


def _relative(residual: float, scale: float) -> float:
    """|residual| / scale: 0 for an exact 0, inf for a nonzero residual
    over a zero scale and for nan."""
    if residual == 0:
        return 0.0
    ratio = abs(residual) / scale if scale else math.inf
    return ratio if ratio == ratio else math.inf


def _random_constants(rng: random.Random) -> swann.SolutionConstants:
    return swann.SolutionConstants(
        C1=Fraction(rng.randint(-2, 2)), C2=Fraction(rng.randint(-2, 2)),
        C3=Fraction(rng.randint(-2, 2)), C4=Fraction(rng.randint(-2, 2)),
        C5=Fraction(rng.randint(-2, 2)), C6=Fraction(rng.randint(-2, 2)),
        C7=Fraction(rng.randint(-2, 2)), C8=Fraction(rng.randint(-2, 2)),
        C9=Fraction(rng.randint(-2, 2)), C10=Fraction(rng.randint(-2, 2)),
        s1=Fraction(rng.randint(1, 4), 2), s2=Fraction(rng.randint(1, 4), 2),
        s3=Fraction(rng.randint(0, 4), 2), C14=Fraction(rng.randint(-2, 2)))


# ---------------------------------------------------------------------------
# symspace suite
# ---------------------------------------------------------------------------

@_check("symspace", "r-formula-oracle", "the closed adjoint-orbit formulas equal "
        "-(c/2n) h^-1 i h, exactly")
def r_oracle(ctx, n):
    rng = ctx.rng("symspace", "r-oracle")
    for _ in range(50):
        params = _random_symspace_params(rng)
        h = Quaternion(*forms.sample_rational_point(rng))
        if swann.symspace_r(params, h) != swann.symspace_r_oracle(params, h):
            return False, None, {"h": h.components()}, ""
    params = _random_symspace_params(rng)
    at_one = swann.symspace_r(params, Quaternion.unit(0))
    expect = (Fraction(-params.c, 2 * params.n), Fraction(0), Fraction(0))
    if at_one != expect:
        return False, None, {"at_one": at_one}, ""
    return True, 0.0, None, "50 random parameter/point pairs, exact"


@_check("symspace", "primitive-df-equals-tau", "the logarithmic differential of the "
        "closed-form exp(f) equals the curvature-coefficient 1-form tau")
def primitive(ctx, n):
    rng = ctx.rng("symspace", "primitive")
    param_sets = (_random_symspace_params(rng) for _ in range(10))
    return _verdict(((swann.symspace_primitive_check(p, trials=ctx.trials,
                                                     tolerance=1e-8, rng=rng),
                      f"params {p}") for p in param_sets),
                    "10 random parameter sets")


@_check("symspace", "ddf-zero", "d(df) = 0")
def ddf_zero(ctx, n):
    rng = ctx.rng("symspace", "ddf")
    params = _random_symspace_params(rng)
    detail = "exact rational evaluation"
    return _verdict([(swann.symspace_ddf_check(params, trials=50,
                                               tolerance=ctx.tolerance,
                                               rng=rng), detail)], detail)


@_check("symspace", "expf-plugin-evaluation", "exp(f) at h = (1,0,0,0) with c1=1, "
        "c2=c3=c4=0, c=-1, n=2 evaluates to -4n/(-c c1) = -8")
def expf_plugin(ctx, n):
    params = swann.SymSpaceParams(c=Fraction(-1), n=2, c1=Fraction(1),
                                  c2=Fraction(0), c3=Fraction(0),
                                  c4=Fraction(0))
    value = swann.symspace_exp_f(params).evaluate(
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    ok = value == Fraction(-8)
    return ok, None, None if ok else {"value": value}, \
        "direct substitution at the section point"


@_check("symspace", "frame-coefficient-proportionality", "f_a = c_a exp(f), so ratios "
        "of the frame coefficients are the constant ratios c_a / c_b")
def proportionality(ctx, n):
    rng = ctx.rng("symspace", "proportionality")
    params = swann.SymSpaceParams(c=Fraction(2), n=2, c1=Fraction(3),
                                  c2=Fraction(5), c3=Fraction(0))
    E = swann.symspace_exp_f(params)
    ratio = sf.div(sf.mul(sf.const(params.c2), E), sf.mul(sf.const(params.c1), E))
    offset = sf.sub(ratio, sf.const(params.c2 / params.c1))
    return _verdict([(forms.vanishes([offset], min(ctx.trials, 30), 1e-9, rng), "")])


@_check("symspace", "obstruction-mechanics", "with nowhere-vanishing coefficients, "
        "proportional curvature coefficients make the five closedness conditions "
        "jointly unsatisfiable")
def obstruction(ctx, n):
    rng = ctx.rng("symspace", "obstruction")
    one, zero = sf.ONE, sf.ZERO
    rep = swann.general_obstruction_check((one, zero, zero),
                                          (one, zero, zero),
                                          trials=20, rng=rng)
    if not (rep.implication_holds and rep.witness is not None
            and "sum" in rep.witness):
        return False, None, rep.witness, "direct contradiction instance"
    rep = swann.general_obstruction_check((zero, zero, zero),
                                          (one, sf.H1, zero),
                                          trials=20, rng=rng)
    if not (rep.implication_holds and rep.witness is None):
        return False, None, rep.witness, "flat case should be vacuous"
    for trial in range(20):
        lam = sf.const(Fraction(rng.randint(1, 5)))
        f_fields = (sf.add(sf.pow_(sf.H0, 2), sf.ONE), sf.H1, sf.H2)
        r_fields = tuple(sf.mul(lam, f) for f in f_fields)
        rep = swann.general_obstruction_check(r_fields, f_fields,
                                              trials=30, rng=rng)
        if not rep.implication_holds or rep.witness is None:
            return False, None, {"trial": trial}, \
                "proportional curvature must force a witness"
    return True, None, None, "20 proportional trials, witness every time"


def _random_symspace_params(rng: random.Random) -> swann.SymSpaceParams:
    while True:
        c1, c2, c3 = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        if (c1, c2, c3) != (0, 0, 0):
            break
    return swann.SymSpaceParams(c=Fraction(rng.randint(-4, 4) or 1),
                                n=rng.choice([2, 3]), c1=c1, c2=c2, c3=c3,
                                c4=Fraction(rng.randint(-3, 3)))


SUITE_RUNNERS = {suite: functools.partial(_run_suite, suite) for suite in SUITE_NAMES}

LINEAR_SUITES = ("model", "liealg", "curvature")  # one task: they share ctx.model


def run_suites(ctx: SuiteContext, selected) -> list:
    """The checks of the `selected` suites, run in min(tasks, CPUs) lanes.

    A task is a list of runner calls (suite, arguments after ctx).  The
    selected linear suites are one task, claimed first, since they share
    ctx.model, the basis and the pinned pass; every check of the other
    suites is a task of its own, in registry order, which calls
    SUITE_RUNNERS[suite] for that check alone.  This process is one lane and forks the others before any
    task runs; lanes claim task numbers, one byte each, from one pipe, so
    a run holds at most 256 tasks (24 with every suite).  Each check
    draws from its own rng, so the report does not depend on the CPUs;
    the records come back in task order.  Only a single-threaded process
    forks; any other runs every task itself.  A child pickles its checks
    back through a pipe of its own and never returns; a lane that ends
    without them fails the run.  A test that observes a runner's side
    effects must select one task: a forked lane's do not reach this one."""
    import pickle
    linear = [(s, ()) for s in selected if s in LINEAR_SUITES]
    tasks = ([linear] if linear else []) + [
        [(s, (name,))] for s in selected if s not in LINEAR_SUITES
        for name, _, _ in CHECKS[s]]
    try:  # a process with another thread (BLAS) must not fork
        single = len(os.listdir("/proc/self/task")) == 1
        cpus = len(os.sched_getaffinity(0)) if single else 1
    except (AttributeError, OSError):  # not Linux: one lane
        cpus = 1
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(tasks))))
    os.close(feed)

    def lane():
        return {i: [c for s, args in tasks[i] for c in SUITE_RUNNERS[s](ctx, *args)]
                for (i,) in iter(lambda: os.read(queue, 1), b"")}
    done, children = {}, {}  # children: pid -> read end of its result pipe
    try:
        for _ in range(min(len(tasks), cpus) - 1):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    for fd in (r, *children.values()):
                        os.close(fd)
                    with open(w, "wb") as out:  # a dead parent: broken pipe
                        out.write(pickle.dumps(lane()))
                finally:
                    os._exit(0)
            os.close(w)
            children[pid] = r
        done.update(lane())
        for r in children.values():
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            done.update(pickle.loads(data) if data else {})  # {}: the lane died
    finally:
        os.close(queue)
        for pid, r in children.items():
            os.close(r)
            os.waitpid(pid, 0)
    lost = list(dict.fromkeys(s for i, task in enumerate(tasks) if i not in done
                              for s, _ in task))  # each suite once
    if lost:
        raise RuntimeError(f"a lane ended without the checks of suites {lost}")
    return [c for i in range(len(tasks)) for c in done[i]]

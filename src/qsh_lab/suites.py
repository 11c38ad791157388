"""Named verification checks, grouped into suites.

Each check verifies one identity and returns a CheckResult carrying the
identity text (anchor), a pass flag, the worst residual seen and, on
failure, a witness.  The CLI composes suites into reports; the
acceptance tests call the same functions with pinned parameters.

Checks derive their randomness from the run seed, the suite name and
the check name, so reports are reproducible bit-for-bit.

Exact identities over Q are decided by `_exact`, sampled ones by
`_verdict`.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from dataclasses import dataclass, field
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


@dataclass
class SuiteContext:
    seed: int
    ns: tuple = (2, 3)
    kappa: Fraction = Fraction(1)
    trials: int = 100
    tolerance: float = 1e-10
    user_solution: object = None  # FlatSolution from --input, if any
    _models: dict = field(default_factory=dict)
    _bases: dict = field(default_factory=dict)

    def model(self, n: int) -> FlatModel:
        if n not in self._models:
            self._models[n] = build_flat_model(n)
        return self._models[n]

    def basis(self, n: int) -> liealg.LieBasis:
        if n not in self._bases:
            self._bases[n] = liealg.enumerate_so_star_basis(self.model(n))
        return self._bases[n]

    def rng(self, suite: str, name: str) -> random.Random:
        return random.Random(f"{self.seed}:{suite}:{name}")


def _run(suite: str, name: str, anchor: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, residual, witness, detail = fn()
    except forms.SamplingError as exc:  # no evidence is a failed check
        passed, residual, detail = False, None, f"no evidence: {exc}"
        witness = {"evaluated": exc.evaluated, "rejected": exc.rejected}
    except Exception as exc:  # a crashed check is a failed check
        passed, residual, witness, detail = False, None, None, f"exception: {exc!r}"
    return CheckResult(suite=suite, name=name, anchor=anchor, passed=passed,
                       residual=residual, witness=witness, detail=detail,
                       wall_time=time.perf_counter() - start)


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
    the same rng draws as a passing one and records its worst residual."""
    worst = max((d.max_abs() if isinstance(d, QArray) else abs(d) for d in diffs),
                default=Fraction(0))
    return worst == 0, float(worst), None, detail


def _rational_vector(rng: random.Random, dim: int) -> QArray:
    return QArray.of([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(dim)])


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

def run_model_suite(ctx: SuiteContext):
    out = []
    for n in ctx.ns:
        m = ctx.model(n)
        dim = m.dim
        ident = QArray.eye(dim)

        def quaternionic_identity():
            yield from (Ja @ Ja + ident for Ja in m.J)
            yield m.J[0] @ m.J[1] @ m.J[2] + ident
        out.append(_run("model", f"quaternionic-identity[n={n}]",
                        "J1^2 = J2^2 = J3^2 = J1 J2 J3 = -Id, exactly",
                        lambda: _exact(quaternionic_identity())))

        def omega_skew():
            skew = (m.omega + m.omega.T).max_abs()
            rk = mat.rank(m.omega)
            ok = skew == 0 and rk == dim
            return ok, float(skew), None if ok else {"rank": rk}, f"rank {rk}"
        out.append(_run("model", f"omega-skew-nondegenerate[n={n}]",
                        "omega0 is skew with full rank 4n",
                        omega_skew))

        def omega_hermitian():
            yield m.J.T @ m.omega @ m.J - m.omega
        out.append(_run("model", f"omega-hermitian[n={n}]",
                        "omega0(J_a x, J_a y) = omega0(x, y) for a = 1, 2, 3",
                        lambda: _exact(omega_hermitian())))

        def metric_compatibility():
            yield m.g - m.g.T
            yield m.g - m.omega @ m.J
            yield m.J.T @ m.g @ m.J - m.g
        out.append(_run("model", f"metric-compatibility[n={n}]",
                        "g_a = omega0(., J_a .), symmetric and J_a-Hermitian",
                        lambda: _exact(metric_compatibility())))

        def metric_signature():
            sigs = [mat.signature_symmetric(ga) for ga in m.g]
            ok = all(s == (2 * n, 2 * n, 0) for s in sigs)
            return ok, None, None if ok else {"signatures": sigs}, f"signatures {sigs}"
        out.append(_run("model", f"metric-signature[n={n}]",
                        "each g_a has signature (2n, 2n)",
                        metric_signature))

        def non_hermitian_witness():
            # invariance of g_1 under J_2 must fail on some basis pair
            lhs = m.J[1].T @ m.g[0] @ m.J[1]
            for i in range(dim):
                for j in range(dim):
                    if lhs[i, j] != m.g[0][i, j]:
                        wit = {"pair": (i, j), "g1": m.g[0][i, j],
                               "g1_J2_rotated": lhs[i, j]}
                        return True, None, wit, "witness found as required"
            return False, 0.0, None, "g_1 unexpectedly invariant under J_2"
        out.append(_run("model", f"non-hermitian-witness[n={n}]",
                        "g_1(J_2 x, J_2 y) != g_1(x, y) on some basis pair",
                        non_hermitian_witness))

        def qsh_reconstruction():
            rng = ctx.rng("model", f"qsh-reconstruction{n}")
            for _ in range(min(ctx.trials, 25)):
                x = _rational_vector(rng, dim)
                y = _rational_vector(rng, dim)
                z = _rational_vector(rng, dim)
                direct = qsh_form_matrix(m, x, y) @ z
                scalar, sp1 = qsh_form(m, x, y)
                recon = z * scalar + sum(c * (Ja @ z) for c, Ja in zip(sp1, m.J))
                yield direct - recon
        out.append(_run("model", f"qsh-reconstruction[n={n}]",
                        "h(x,y)z = omega0(x,y) z + sum_a g_a(x,y) J_a z, "
                        "rebuilt from the scalar/sp1 output",
                        lambda: _exact(qsh_reconstruction())))

        def qsh_special_values():
            rng = ctx.rng("model", f"qsh-special{n}")
            for _ in range(10):
                x = _rational_vector(rng, dim)
                scalar, _ = qsh_form(m, x, x)
                yield scalar
            e1 = m.basis_vector(0)
            j1e1 = m.apply_J(1, e1)
            _, sp1 = qsh_form(m, e1, j1e1)
            yield sp1[0]
        out.append(_run("model", f"qsh-special-values[n={n}]",
                        "scalar part vanishes on the diagonal; "
                        "g_1(e1, J_1 e1) = -omega0(e1, e1) = 0",
                        lambda: _exact(qsh_special_values())))

        def phi_identity():
            rng = ctx.rng("model", f"phi{n}")
            for _ in range(min(ctx.trials, 20)):
                x, y, z, w = (_rational_vector(rng, dim) for _ in range(4))
                phi = fundamental_4tensor(m, x, y, z, w)
                yield phi - fundamental_4tensor(m, y, x, z, w)
                yield phi - fundamental_4tensor(m, z, w, x, y)
                _, sp1_zw = qsh_form(m, z, w)
                imh_y = sum(c * (Ja @ y) for c, Ja in zip(sp1_zw, m.J))
                yield phi - m.omega_of(x, imh_y)
        out.append(_run("model", f"phi-identity[n={n}]",
                        "Phi = sum_a g_a (x) g_a agrees with omega0(., Im(h) .) "
                        "and is pair-symmetric",
                        lambda: _exact(phi_identity())))

        def frame_rotation():
            rng = ctx.rng("model", f"frame{n}")
            for _ in range(5):
                q = _unit_quaternion(rng)
                rotated = sp1_conjugate_frame(m, q)
                prod = rotated[0] @ rotated[1] @ rotated[2]
                yield prod + ident
                r3 = rotation_matrix(q)
                yield r3.T @ r3 - QArray.eye(3)
                x = _rational_vector(rng, dim)
                y = _rational_vector(rng, dim)
                _, sp1 = qsh_form(m, x, y)
                for a in range(3):
                    rotated_ga = x @ (m.omega @ rotated[a]) @ y
                    expected = sum(r3[b, a] * sp1[b] for b in range(3))
                    yield rotated_ga - expected
        out.append(_run("model", f"frame-rotation-covariance[n={n}]",
                        "rotated frames stay admissible, the rotation is exactly "
                        "orthogonal, and the sp1 part of h rotates covariantly",
                        lambda: _exact(frame_rotation())))
    return out


# ---------------------------------------------------------------------------
# liealg suite
# ---------------------------------------------------------------------------

def run_liealg_suite(ctx: SuiteContext):
    out = []
    for n in ctx.ns:
        m = ctx.model(n)
        dim = m.dim

        def dimension():
            basis = ctx.basis(n)  # enumeration self-checks the count
            expected = n * (2 * n - 1)
            ok = len(basis.so_basis) == expected
            return ok, None, None, f"{len(basis.so_basis)} elements"
        out.append(_run("liealg", f"so-star-dimension[n={n}]",
                        "dim so*(2n) = n(2n-1) by exact nullspace",
                        dimension))

        def defining_equations():
            basis = ctx.basis(n)
            for el in basis.so_basis:
                yield liealg.commutation_defect(m, el.matrix)
                yield liealg.symplectic_defect(m, el.matrix)
                yield el.matrix.trace()
                for Ja in m.J:
                    yield (Ja @ el.matrix).trace()
        out.append(_run("liealg", f"basis-defining-equations[n={n}]",
                        "every basis element commutes with J_a, is omega0-skew, "
                        "traceless, and Tr(J_a B) = 0",
                        lambda: _exact(defining_equations())))

        def decompose_roundtrip():
            basis = ctx.basis(n)
            rng = ctx.rng("liealg", f"decompose{n}")
            el = liealg.decompose(m, basis, m.J[1])
            if el.sp_coeffs != (0, 1, 0) or el.so_part.max_abs() != 0:
                return False, None, {"got": el.sp_coeffs}, "J2 decomposition"
            first = basis.so_basis[0].matrix
            el = liealg.decompose(m, basis, first)
            if el.sp_coeffs != (0, 0, 0) or (el.so_part - first).max_abs() != 0:
                return False, None, None, "so* element decomposition"
            for _ in range(5):
                coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in basis.elements()]
                combo = sum(c * b.matrix for c, b in zip(coeffs, basis.elements()))
                el = liealg.decompose(m, basis, combo)
                if tuple(el.sp_coeffs) != tuple(coeffs[-3:]):
                    return False, None, {"want": coeffs[-3:], "got": el.sp_coeffs}, ""
            try:
                liealg.decompose(m, basis, QArray.eye(dim))
                return False, None, None, "identity accepted as a member"
            except liealg.MembershipError as exc:
                detail = f"membership error residual {exc.residual}"
            return True, None, None, detail
        out.append(_run("liealg", f"decompose-roundtrip[n={n}]",
                        "decomposition recovers coefficients exactly and "
                        "rejects non-members with a residual",
                        decompose_roundtrip))

        def projection_targets():
            rng = ctx.rng("liealg", f"proj-targets{n}")
            for _ in range(5):
                x = _rational_vector(rng, dim)
                y = _rational_vector(rng, dim)
                p = liealg.project_ZQ(m, x, y)
                yield liealg.commutation_defect(m, p)
                q = liealg.project_Q(m, x, y)
                yield q - liealg.project_Q_operator(m, q)
        out.append(_run("liealg", f"projection-targets[n={n}]",
                        "project_ZQ lands in the centralizer; project_Q lands "
                        "in span{J_a}",
                        lambda: _exact(projection_targets())))

        def projection_frame_independence():
            rng = ctx.rng("liealg", f"proj-frames{n}")
            for _ in range(5):
                q = _unit_quaternion(rng)
                frame = sp1_conjugate_frame(m, q)
                x = _rational_vector(rng, dim)
                y = _rational_vector(rng, dim)
                yield (liealg.project_ZQ(m, x, y)
                       - liealg.project_ZQ(m, x, y, frame=frame))
                yield (liealg.project_Q(m, x, y)
                       - liealg.project_Q(m, x, y, frame=frame))
        out.append(_run("liealg", f"projection-frame-independence[n={n}]",
                        "both projections are unchanged under admissible "
                        "frame rotations",
                        lambda: _exact(projection_frame_independence())))

        def projection_idempotence():
            basis = ctx.basis(n)
            zq_members = [QArray.eye(dim)] + [el.matrix for el in basis.so_basis[:3]]
            for t in zq_members:
                yield liealg.project_ZQ_operator(m, t) - t
                yield liealg.project_Q_operator(m, t)
            for Ja in m.J:
                yield liealg.project_Q_operator(m, Ja) - Ja
                yield liealg.project_ZQ_operator(m, Ja)
        out.append(_run("liealg", f"projection-idempotence[n={n}]",
                        "projections fix their targets and kill each other's "
                        "(centralizer meets span{J_a} trivially for n > 1)",
                        lambda: _exact(projection_idempotence())))

        def projection_oracle():
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
        out.append(_run("liealg", f"projection-oracle[n={n}]",
                        "project_ZQ equals the exact least-squares projection "
                        "onto the nullspace-computed centralizer basis",
                        lambda: _exact(projection_oracle(),
                                       "orthogonal projection oracle (unit-quaternion "
                                       "conjugation is orthogonal, so averaging = "
                                       "trace-orthogonal projection)")))

        def circle_map_checks():
            rng = ctx.rng("liealg", f"circle{n}")
            for _ in range(5):
                x = _rational_vector(rng, dim)
                y = _rational_vector(rng, dim)
                el_xy = liealg.circle_map(m, x, y, ctx.kappa)
                el_yx = liealg.circle_map(m, y, x, ctx.kappa)
                yield el_xy.matrix - el_yx.matrix
                sp = liealg.circle_sp1(m, x, y)
                expected = sum(Fraction(-1, 2 * n) * (x @ ga @ y) * Ja
                               for ga, Ja in zip(m.g, m.J))
                yield sp - expected
                # so* part is the invariant projection of f_{x (.) y}
                fxy = (y[:, None] @ (-(m.omega @ x))[None, :]
                       + x[:, None] @ (-(m.omega @ y))[None, :])
                yield (liealg.circle_so_star(m, x, y)
                       - liealg.project_ZQ_operator(m, fxy))
        out.append(_run("liealg", f"circle-map[n={n}]",
                        "x o y is symmetric, its sp1 part is "
                        "-(1/2n) sum_a g_a(x,y) J_a, and its so* part is the "
                        "projection of omega0(x,-)y + omega0(y,-)x",
                        lambda: _exact(circle_map_checks())))

        def circle_equivariance():
            basis = ctx.basis(n)
            rng = ctx.rng("liealg", f"equivariance{n}")
            sample = [basis.so_basis[0], basis.so_basis[-1], basis.sp_basis[0],
                      basis.sp_basis[2]]
            for el in sample:
                B = el.matrix
                x = _rational_vector(rng, dim)
                y = _rational_vector(rng, dim)
                circ = liealg.circle_map(m, x, y, ctx.kappa).matrix
                lhs = B @ circ - circ @ B
                rhs = (liealg.circle_map(m, B @ x, y, ctx.kappa).matrix
                       + liealg.circle_map(m, x, B @ y, ctx.kappa).matrix)
                yield lhs - rhs
        out.append(_run("liealg", f"circle-equivariance[n={n}]",
                        "[B, x o y] = (Bx) o y + x o (By) for sampled basis B",
                        lambda: _exact(circle_equivariance())))
    return out


# ---------------------------------------------------------------------------
# curvature suite
# ---------------------------------------------------------------------------

def run_curvature_suite(ctx: SuiteContext):
    out = []
    ns = list(ctx.ns)
    for n in ns:
        out.extend(_curvature_checks_at(ctx, n))
    if 3 not in ns:
        # the two Ricci coefficients coincide at n = 2 (both 8k), so the
        # Hermiticity dichotomy is only conclusive at n = 3; run it anyway
        out.append(_ricci_dichotomy_check(ctx, 3, mandatory=True))
    return out


def _curvature_checks_at(ctx: SuiteContext, n: int):
    out = []
    m = ctx.model(n)
    basis = ctx.basis(n)
    params = curv.CurvParams.pinned(ctx.kappa, n)
    dim = m.dim

    def bianchi_pinned():
        for el in basis.elements():
            tensor = curv.curvature_of(m, basis, el, params)
            yield curv.bianchi_residual(m, tensor)
    out.append(_run("curvature", f"bianchi-pinned-zero[n={n}]",
                    "cyclic sum R(x,y)z + R(y,z)x + R(z,x)y = 0 for "
                    "(c1, c2) = (2k, nk) and every basis A",
                    lambda: _exact(bianchi_pinned(),
                                   f"all {len(basis.elements())} basis elements")))

    def bianchi_perturbed():
        failures = []
        grid = [(params.c1 + d1, params.c2 + d2)
                for d1 in (1, -1) for d2 in (1, -1)]
        for c1, c2 in grid:
            perturbed = curv.CurvParams.free(ctx.kappa, c1, c2)
            found = None
            for el in basis.elements():
                tensor = curv.curvature_of(m, basis, el, perturbed)
                res = curv.bianchi_residual(m, tensor)
                if res != 0:
                    found = (el.sp_coeffs, float(res))
                    break
            if found is None:
                failures.append((c1, c2))
        ok = not failures
        return ok, None, None if ok else {"still_flat": failures}, \
            f"grid {[(str(a), str(b)) for a, b in grid]}"
    out.append(_run("curvature", f"bianchi-perturbed-nonzero[n={n}]",
                    "each off-pinning coefficient pair (2k±1, nk±1) breaks "
                    "the cyclic identity for some basis A",
                    bianchi_perturbed))

    def two_paths():
        rng = ctx.rng("curvature", f"two-paths{n}")
        for el in (basis.sp_basis[0], basis.so_basis[0]):
            tensor = curv.curvature_of(m, basis, el, params)
            for _ in range(min(ctx.trials, 40)):
                i, j, k = (rng.randrange(dim) for _ in range(3))
                direct = curv.curvature_13(m, el.matrix, params,
                                           m.basis_vector(i), m.basis_vector(j),
                                           m.basis_vector(k))
                yield direct - tensor[i, j, k]
    out.append(_run("curvature", f"curvature-two-paths[n={n}]",
                    "the projection-built tensor and the expanded "
                    "(1,3) formula agree on basis triples",
                    lambda: _exact(two_paths())))

    def tensor_wellformed():
        rng = ctx.rng("curvature", f"wellformed{n}")
        el = basis.so_basis[1]
        tensor = curv.curvature_of(m, basis, el, params)
        for _ in range(10):
            i, j = rng.randrange(dim), rng.randrange(dim)
            yield tensor[i, j] + tensor[j, i]
        for i, j in itertools.islice(itertools.combinations(range(dim), 2), 6):
            liealg.decompose(m, basis, tensor[i, j].T)  # raises if outside g
        yield curv.curvature_of(m, basis, m.omega * 0, params)
    out.append(_run("curvature", f"tensor-wellformed[n={n}]",
                    "R is antisymmetric, g-valued, and vanishes for A = 0",
                    lambda: _exact(tensor_wellformed(), "values decompose in g")))

    def ricci_part(elements, coef):
        def diffs():
            for el in elements:
                tensor = curv.curvature_of(m, basis, el, params)
                ric = curv.ricci_of(m, tensor)
                target = curv.omega_pairing(m, el.matrix) * coef
                yield ric - target
        return _exact(diffs(), f"coefficient {coef}")
    out.append(_run("curvature", f"ricci-commuting-part[n={n}]",
                    "Ric_A = 2(n+2) k omega0(A., .) for every commuting-part "
                    "basis element",
                    lambda: ricci_part(basis.so_basis,
                                       Fraction(2 * (n + 2)) * ctx.kappa)))
    out.append(_run("curvature", f"ricci-sp1-part[n={n}]",
                    "Ric_A = 4n k omega0(A., .) for A in {J1, J2, J3}",
                    lambda: ricci_part(basis.sp_basis, Fraction(4 * n) * ctx.kappa)))

    def ricci_closed_form():
        rng = ctx.rng("curvature", f"ricci-closed{n}")
        for _ in range(10):
            combo = sum(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * b.matrix
                        for b in basis.elements())
            el = liealg.decompose(m, basis, combo)
            tensor = curv.curvature_of(m, basis, el, params)
            ric = curv.ricci_of(m, tensor)
            closed = curv.ricci_closed_form(m, el.matrix, ctx.kappa)
            yield ric - closed
            yield ric - ric.T
    out.append(_run("curvature", f"ricci-closed-form[n={n}]",
                    "trace Ricci equals (2n+1)k w(Ay,z) + (k/2) sum_a g_a(y,z) "
                    "Tr(J_a A) - k sum_a w(J_a A J_a y, z), and is symmetric",
                    lambda: _exact(ricci_closed_form(), "10 random A")))

    def ricci_linearity():
        rng = ctx.rng("curvature", f"ricci-linear{n}")
        for _ in range(3):
            a1 = sum(rng.randint(-3, 3) * b.matrix for b in basis.so_basis)
            a2 = sum(rng.randint(-3, 3) * b.matrix for b in basis.sp_basis)
            total = liealg.decompose(m, basis, a1 + a2)
            ric = curv.ricci_of(m, curv.curvature_of(m, basis, total, params))
            split = (curv.omega_pairing(m, a1) * (Fraction(2 * n + 4) * ctx.kappa)
                     + curv.omega_pairing(m, a2) * (Fraction(4 * n) * ctx.kappa))
            yield ric - split
    out.append(_run("curvature", f"ricci-linearity[n={n}]",
                    "Ric_{A1+A2} = (2n+4) k omega0(A1., .) + 4n k omega0(A2., .) "
                    "for the split into commuting and sp1 parts",
                    lambda: _exact(ricci_linearity())))

    out.append(_ricci_dichotomy_check(ctx, n))

    def map_rank():
        rows = curv.curvature_rows(m, basis, params)
        exact = curv.curvature_map_rank(rows)
        approx = curv.curvature_map_rank_float(rows)
        expected = n * (2 * n - 1) + 3
        ok = exact == expected and approx == expected
        wit = None if ok else {"exact": exact, "svd": approx, "expected": expected}
        return ok, None, wit, f"rank {exact} (exact) / {approx} (svd)"
    out.append(_run("curvature", f"curvature-map-rank[n={n}]",
                    "A -> R_A is injective: rank = n(2n-1) + 3, exact rank "
                    "and float SVD agree",
                    map_rank))
    return out


def _ricci_dichotomy_check(ctx: SuiteContext, n: int, mandatory: bool = False):
    def dichotomy():
        m = ctx.model(n)
        basis = ctx.basis(n)
        params = curv.CurvParams.pinned(ctx.kappa, n)
        rng = ctx.rng("curvature", f"dichotomy{n}")
        frames = [(q, sp1_conjugate_frame(m, q))
                  for q in [_unit_quaternion(rng) for _ in range(3)]]

        def hermitian(el):
            ric = curv.ricci_of(m, curv.curvature_of(m, basis, el, params))
            return curv.is_Q_hermitian(m, ric, frames=frames)

        for el in basis.so_basis:
            ok, wit = hermitian(el)
            if not ok:
                return False, None, wit, "commuting part should be Hermitian"
        for el in basis.sp_basis:
            ok, witness = hermitian(el)
            if ok:
                return False, None, None, "sp1 part should fail Hermiticity"
        # mixed element must fail as well (both directions of the dichotomy)
        mixed = basis.so_basis[0].matrix + basis.sp_basis[0].matrix
        if hermitian(liealg.decompose(m, basis, mixed))[0]:
            return False, None, None, "mixed element should fail Hermiticity"
        zero_ok, _ = curv.is_Q_hermitian(m, m.omega * 0, frames=frames)
        return zero_ok, None, witness, "witness recorded for the sp1 failure"
    name = f"ricci-hermitian-dichotomy[n={n}]" + ("[mandatory]" if mandatory else "")
    return _run("curvature", name,
                "Ric_A is invariant under the whole structure 2-sphere iff "
                "the sp1 part of A vanishes; violations carry a witness",
                dichotomy)


# ---------------------------------------------------------------------------
# fiber suite (coframe calculus)
# ---------------------------------------------------------------------------

def run_fiber_suite(ctx: SuiteContext):
    out = []
    tol = ctx.tolerance

    def mc_oracle():
        rng = ctx.rng("fiber", "maurer-cartan")
        for _ in range(50):
            h = Quaternion(*forms.sample_rational_point(rng))
            if forms.maurer_cartan_components(h) != forms.theta_components_at(h):
                return False, None, {"h": h.components()}, ""
        return True, 0.0, None, "50 exact rational points"
    out.append(_run("fiber", "maurer-cartan-oracle",
                    "the coframe component formulas equal the quaternion "
                    "expansion of h^-1 dh, exactly",
                    mc_oracle))

    def dalpha0():
        rng = ctx.rng("fiber", "dalpha0")
        return _verdict([(forms.is_zero_form(forms.d(forms.ALPHA_IN_DH[0]),
                                             trials=ctx.trials, tolerance=tol,
                                             rng=rng), "")])
    out.append(_run("fiber", "dalpha0-zero", "d a0 = 0", dalpha0))

    def structure_equations():
        rng = ctx.rng("fiber", "structure")
        return _verdict((forms.equal(forms.d(forms.ALPHA_IN_DH[a]),
                                     forms.to_dh(forms.structure_dalpha(a)),
                                     trials=ctx.trials, tolerance=tol, rng=rng),
                         f"a = {a}") for a in (1, 2, 3))
    out.append(_run("fiber", "structure-equations",
                    "d a_a = -t a0 ^ a_a - 2t a_b ^ a_c on the trivial fiber",
                    structure_equations))

    def beta_invariance():
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
    out.append(_run("fiber", "beta-pullback-invariance",
                    "each beta_b is invariant under every hypercomplex "
                    "pullback, as an exact coframe substitution",
                    beta_invariance))

    def pullback_involution():
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
    out.append(_run("fiber", "pullback-involution",
                    "pullback squares to -Id on 1-forms and to +Id on 2-forms",
                    pullback_involution))

    def dbeta_two_paths():
        rng = ctx.rng("fiber", "dbeta-paths")
        betas = [swann.beta_basis_form(a) for a in (1, 2, 3)]
        for a, beta in enumerate(betas, 1):
            if not forms.d_via_structure(beta).is_structurally_zero():
                return False, None, {"a": a}, "structure path not exactly zero"
        return _verdict(((forms.is_zero_form(forms.d(forms.to_dh(beta)),
                                             trials=ctx.trials, tolerance=tol, rng=rng),
                          f"a = {a}") for a, beta in enumerate(betas, 1)),
                        "structure path exact, coordinate path sampled")
    out.append(_run("fiber", "dbeta-trivial-fiber-two-paths",
                    "d beta_a = 0 on the trivial fiber via the structure "
                    "equations and via the coordinate expansion",
                    dbeta_two_paths))

    def top_form():
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
    out.append(_run("fiber", "top-form-determinant",
                    "a0^a1^a2^a3 has DH coefficient det(substitution) = t^-8",
                    top_form))

    def random_form_laws():
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
    out.append(_run("fiber", "exterior-algebra-laws",
                    "d^2 = 0, the graded Leibniz rule, and graded "
                    "anticommutativity on random forms",
                    random_form_laws))

    def dbeta_general_f():
        rng = ctx.rng("fiber", "dbeta-general")

        def reports():
            for _ in range(5):
                f_fields = tuple(_random_field(rng) for _ in range(3))
                beta = swann.BetaForm(f=f_fields).form()
                lhs = forms.d(forms.to_dh(beta))
                rhs = forms.zero_form(3, forms.DH)
                for a in (1, 2, 3):
                    df = forms.d(forms.scalar_form(f_fields[a - 1]))
                    rhs = forms.add(rhs, forms.wedge(
                        df, forms.to_dh(swann.beta_basis_form(a))))
                yield forms.equal(lhs, rhs, trials=30, tolerance=tol, rng=rng), ""
        return _verdict(reports())
    out.append(_run("fiber", "dbeta-general-coefficients",
                    "d(sum f_a beta_a) = sum df_a ^ beta_a on the trivial "
                    "fiber for arbitrary coefficient fields",
                    dbeta_general_f))
    return out


def _det4(m):
    total = sf.ZERO
    for perm in itertools.permutations(range(4)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4)
                  if perm[i] > perm[j])
        term = sf.ONE
        for r in range(4):
            term = sf.mul(term, m[r][perm[r]])
        total = sf.add(total, term if inv % 2 == 0 else sf.neg(term))
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

def run_flat_suite(ctx: SuiteContext):
    out = []
    tol = ctx.tolerance

    def pde_dbeta_equivalence():
        rng = ctx.rng("flat", "pde-dbeta")
        solutions = (swann.FlatSolution(F=tuple(_random_field(rng) for _ in range(3)))
                     for _ in range(10))
        reports = (swann.dbeta_equals_pde(s, trials=30, tolerance=tol, rng=rng)
                   for s in solutions)
        return _verdict(((rep, "") for rep in reports), "10 random coefficient triples")
    out.append(_run("flat", "pde-dbeta-equivalence",
                    "the 3-form coefficients of d beta are exactly the four "
                    "first-order residuals (documented sign table)",
                    pde_dbeta_equivalence))

    def hand_solution():
        rng = ctx.rng("flat", "hand-solution")
        solution = swann.FlatSolution(F=(sf.H1, sf.neg(sf.H2), sf.ZERO))
        residuals = swann.pde_residuals(solution)
        if not all(sf.is_zero(r) for r in residuals):
            return False, None, None, "residuals did not fold to zero"
        return _verdict([(forms.is_zero_form(forms.d(swann.beta_of_F(solution)),
                                             trials=ctx.trials, tolerance=tol,
                                             rng=rng), "")])
    out.append(_run("flat", "pde-hand-solution",
                    "(F1, F2, F3) = (h1, -h2, 0) solves all four equations "
                    "and closes beta",
                    hand_solution))

    def violating_solution():
        solution = swann.FlatSolution(F=(sf.H0, sf.ZERO, sf.ZERO))
        residuals = swann.pde_residuals(solution)
        first = sf.constant_value(residuals[0])
        rest_zero = all(sf.is_zero(r) for r in residuals[1:])
        dbeta = forms.d(swann.beta_of_F(solution))
        coeff = sf.constant_value(dbeta.coefficient((0, 2, 3)))
        ok = first == 1 and rest_zero and coeff == 1
        wit = {"first_residual": first, "dbeta_023": coeff}
        return ok, None, wit, "witness: the predicted nonzero coefficient"
    out.append(_run("flat", "pde-violating-solution",
                    "(h0, 0, 0) fails exactly in the first equation, and "
                    "d beta exposes it in the matching coefficient",
                    violating_solution))

    def solution_family():
        rng = ctx.rng("flat", "family")
        worst = 0.0
        for _ in range(20):
            k = _random_constants(rng)
            solution = swann.explicit_solution_family(k)
            for _, values in forms.sample(swann.pde_residuals(solution),
                                          ctx.trials, rng):
                worst = max(worst, max(abs(v) for v in values))
        return worst <= 1e-8, worst, None, "20 random constant sets"
    out.append(_run("flat", "solution-family-residuals",
                    "the closed-form exp/sin family solves all four "
                    "equations (residual < 1e-8)",
                    solution_family))

    def family_cross_representation():
        rng = ctx.rng("flat", "family-cross")

        def reports():
            for _ in range(5):
                solution = swann.explicit_solution_family(_random_constants(rng))
                frame = swann.BetaForm(f=swann.f_from_F(solution)).form()
                yield forms.equal(forms.to_dh(frame), swann.beta_of_F(solution),
                                  trials=40, tolerance=1e-8, rng=rng), ""
        return _verdict(reports())
    out.append(_run("flat", "family-cross-representation",
                    "sum_a f_a(F, h) beta_a and the coordinate presentation "
                    "of beta agree as forms",
                    family_cross_representation))

    def degenerate_family():
        k = swann.SolutionConstants(C9=Fraction(3), C10=Fraction(2),
                                    C14=Fraction(1), s1=Fraction(1),
                                    s2=Fraction(1), s3=Fraction(0))
        solution = swann.explicit_solution_family(k)
        values = [sf.constant_value(f) for f in solution.F]
        residuals = swann.pde_residuals(solution)
        ok = values == [1, 2, 3] and all(sf.is_zero(r) for r in residuals)
        return ok, None, None if ok else {"values": values}, ""
    out.append(_run("flat", "family-degenerate-limit",
                    "with only the additive constants nonzero the family "
                    "collapses to constants and stays a solution",
                    degenerate_family))

    def classification():
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
    out.append(_run("flat", "torsion-classification",
                    "constant coefficients are torsion-free, closed "
                    "nonconstant ones are class X57, non-closed are rejected",
                    classification))

    if ctx.user_solution is not None:
        def user_input():
            # a point passes when each residual is at most 1e-8, both
            # absolutely and relative to the largest partial it sums; a
            # point where every residual and every partial is exactly 0.0
            # although some partial is not structurally zero has
            # underflowed and is no evidence either way
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
                worst = max(worst, max(abs(v) for v in residuals))
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
        out.append(_run("flat", "user-solution-residuals",
                        "the user-supplied (F1, F2, F3) satisfies the four "
                        "closedness equations",
                        user_input))
    return out


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

def run_symspace_suite(ctx: SuiteContext):
    out = []

    def r_oracle():
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
    out.append(_run("symspace", "r-formula-oracle",
                    "the closed adjoint-orbit formulas equal "
                    "-(c/2n) h^-1 i h, exactly",
                    r_oracle))

    def primitive():
        rng = ctx.rng("symspace", "primitive")
        param_sets = (_random_symspace_params(rng) for _ in range(10))
        return _verdict(((swann.symspace_primitive_check(p, trials=ctx.trials,
                                                         tolerance=1e-8, rng=rng),
                          f"params {p}") for p in param_sets),
                        "10 random parameter sets")
    out.append(_run("symspace", "primitive-df-equals-tau",
                    "the logarithmic differential of the closed-form "
                    "exp(f) equals the curvature-coefficient 1-form tau",
                    primitive))

    def ddf_zero():
        rng = ctx.rng("symspace", "ddf")
        params = _random_symspace_params(rng)
        detail = "exact rational evaluation"
        return _verdict([(swann.symspace_ddf_check(params, trials=50,
                                                   tolerance=ctx.tolerance,
                                                   rng=rng), detail)], detail)
    out.append(_run("symspace", "ddf-zero", "d(df) = 0", ddf_zero))

    def expf_plugin():
        params = swann.SymSpaceParams(c=Fraction(-1), n=2, c1=Fraction(1),
                                      c2=Fraction(0), c3=Fraction(0),
                                      c4=Fraction(0))
        value = swann.symspace_exp_f(params).evaluate(
            (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
        ok = value == Fraction(-8)
        return ok, None, None if ok else {"value": value}, \
            "direct substitution at the section point"
    out.append(_run("symspace", "expf-plugin-evaluation",
                    "exp(f) at h = (1,0,0,0) with c1=1, c2=c3=c4=0, c=-1, n=2 "
                    "evaluates to -4n/(-c c1) = -8",
                    expf_plugin))

    def proportionality():
        rng = ctx.rng("symspace", "proportionality")
        params = swann.SymSpaceParams(c=Fraction(2), n=2, c1=Fraction(3),
                                      c2=Fraction(5), c3=Fraction(0))
        E = swann.symspace_exp_f(params)
        f1 = sf.mul(sf.const(params.c1), E)
        f2 = sf.mul(sf.const(params.c2), E)
        worst = 0.0
        for _, (v1, v2) in forms.sample((f1, f2), min(ctx.trials, 30), rng):
            if abs(v1) > 1e-9:
                worst = max(worst, abs(v2 / v1 - float(params.c2 / params.c1)))
        return worst <= 1e-9, worst, None, ""
    out.append(_run("symspace", "frame-coefficient-proportionality",
                    "f_a = c_a exp(f), so ratios of the frame coefficients "
                    "are the constant ratios c_a / c_b",
                    proportionality))

    def obstruction():
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
    out.append(_run("symspace", "obstruction-mechanics",
                    "with nowhere-vanishing coefficients, proportional "
                    "curvature coefficients make the five closedness "
                    "conditions jointly unsatisfiable",
                    obstruction))
    return out


def _random_symspace_params(rng: random.Random) -> swann.SymSpaceParams:
    while True:
        c1, c2, c3 = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        if (c1, c2, c3) != (0, 0, 0):
            break
    return swann.SymSpaceParams(c=Fraction(rng.randint(-4, 4) or 1),
                                n=rng.choice([2, 3]), c1=c1, c2=c2, c3=c3,
                                c4=Fraction(rng.randint(-3, 3)))


SUITE_RUNNERS = {
    "model": run_model_suite,
    "liealg": run_liealg_suite,
    "curvature": run_curvature_suite,
    "fiber": run_fiber_suite,
    "flat": run_flat_suite,
    "symspace": run_symspace_suite,
}

LINEAR_SUITES = ("model", "liealg", "curvature")  # one task: they share ctx.model


def run_suites(ctx: SuiteContext, selected) -> list:
    """The checks of the `selected` suites, run in min(tasks, CPUs) lanes.

    The linear suites are one task and every other suite is a task.  This
    process is one lane and forks the others before any suite runs; lanes
    claim task numbers from one pipe, so no suite splits and the report
    does not depend on the CPUs.  A child pickles its checks, or the
    set-up error it raised (raised again here), back through a pipe of
    its own and never returns.  A test that observes a runner's side
    effects must select one task: a forked lane's do not reach this one."""
    import pickle
    linear = [s for s in selected if s in LINEAR_SUITES]
    tasks = [linear if s in linear[:1] else [s]
             for s in selected if s not in linear[1:]]
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(tasks))))
    os.close(feed)

    def lane():
        return {i: [c for s in tasks[i] for c in SUITE_RUNNERS[s](ctx)]
                for (i,) in iter(lambda: os.read(queue, 1), b"")}
    done, children = {}, {}  # children: pid -> read end of its result pipe
    try:
        cpus = (len(os.sched_getaffinity(0))  # Linux; elsewhere one lane
                if hasattr(os, "sched_getaffinity") else 1)
        for _ in range(min(len(tasks), cpus) - 1):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    for fd in (r, *children.values()):
                        os.close(fd)
                    try:
                        result = lane()
                    except Exception as exc:
                        import traceback
                        traceback.print_exc()  # the pickled error loses it
                        result = exc
                    with open(w, "wb") as out:  # a dead parent: broken pipe
                        out.write(pickle.dumps(result))
                finally:
                    os._exit(0)
            os.close(w)
            children[pid] = r
        done.update(lane())
        for r in children.values():
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            result = pickle.loads(data) if data else {}  # {}: the lane died
            if isinstance(result, Exception):
                raise result
            done.update(result)
    finally:
        os.close(queue)
        for pid, r in children.items():
            os.close(r)
            os.waitpid(pid, 0)
    lost = [s for i, task in enumerate(tasks) if i not in done for s in task]
    if lost:
        raise RuntimeError(f"a lane ended without the checks of suites {lost}")
    return [c for i in range(len(tasks)) for c in done[i]]

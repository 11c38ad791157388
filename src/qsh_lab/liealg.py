"""Matrix bases of so*(2n) and sp(1) inside gl(4n, R), membership tests,
the two invariant projections and the equivariant circle map.

so*(2n) is cut out of gl(4n, R) by the linear conditions

    M J_a = J_a M   (a = 1, 2, 3)      and      M^T Omega + Omega M = 0,

and its basis is found by exact nullspace computation rather than by
hand-coded structure constants.  The computation is staged: the J_a are
block diagonal with a common 4x4 block, so the commutant conditions
decouple into one 4x4 nullspace problem whose solutions parameterize
the centralizer Z(Q); the symplectic condition is then solved as a
second exact nullspace over the centralizer coordinates.  Every
returned element is re-checked against the original defining equations,
and the count is asserted to equal n(2n-1).

Basis vectors come out of reduced echelon pivoting with lexicographic
column order, so exports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from qsh_lab import matrices as mat
from qsh_lab.linmodel import FlatModel


class MembershipError(ValueError):
    def __init__(self, message: str, residual):
        super().__init__(f"{message} (residual {residual})")
        self.residual = residual


@dataclass(frozen=True)
class LieElement:
    """A matrix in so*(2n) (+) sp(1) with its cached decomposition."""

    matrix: list
    so_part: list
    sp_coeffs: tuple


@dataclass(frozen=True)
class LieBasis:
    model: FlatModel
    so_basis: tuple  # of LieElement
    sp_basis: tuple  # of LieElement, the three J_a

    def elements(self):
        return list(self.so_basis) + list(self.sp_basis)

    @property
    def dim(self) -> int:
        return len(self.so_basis) + len(self.sp_basis)


def _commutant_block_basis():
    """Exact nullspace basis of {B in gl(4,R) : B j_a = j_a B, a=1,2,3}."""
    from qsh_lab.linmodel import _right_mult_block, UNITS

    j_blocks = [_right_mult_block(u.conj()) for u in UNITS]
    rows = []
    for jb in j_blocks:
        for r in range(4):
            for c in range(4):
                # entry (r, c) of B j - j B as a linear form in vec(B)
                row = [Fraction(0)] * 16
                for k in range(4):
                    row[4 * r + k] += jb[k][c]
                    row[4 * k + c] -= jb[r][k]
                rows.append(row)
    basis_vecs = mat.nullspace(rows)
    if len(basis_vecs) != 4:
        raise AssertionError(
            f"commutant of the structure block must be 4-dimensional, got {len(basis_vecs)}")
    return [[v[4 * r:4 * r + 4] for r in range(4)] for v in basis_vecs]


def centralizer_basis(model: FlatModel):
    """Basis of Z(Q) in gl(4n): one commutant block per (row, col) slot."""
    blocks = _commutant_block_basis()
    dim = model.dim
    basis = []
    for r in range(model.n):
        for c in range(model.n):
            for b in blocks:
                m = mat.zeros(dim, dim)
                for i in range(4):
                    for k in range(4):
                        m[4 * r + i][4 * c + k] = b[i][k]
                basis.append(m)
    return basis


def symplectic_defect(model: FlatModel, m):
    """M^T Omega + Omega M; zero iff M is omega0-skew."""
    return mat.mat_add(mat.mat_mul(mat.transpose(m), model.omega),
                       mat.mat_mul(model.omega, m))


def commutation_defect(model: FlatModel, m):
    """Max |entry| over the three commutators [M, J_a]."""
    worst = Fraction(0)
    for Ja in model.J:
        d = mat.mat_sub(mat.mat_mul(m, Ja), mat.mat_mul(Ja, m))
        worst = max(worst, mat.max_abs(d))
    return worst


def enumerate_so_star_basis(model: FlatModel) -> LieBasis:
    """Enumerate a basis of so*(2n), plus the three J_a for sp(1).

    Raises if the computed dimension differs from n(2n-1): that formula
    is the self-check for the whole construction.
    """
    zq = centralizer_basis(model)
    dim = model.dim
    rows = []
    defects = [symplectic_defect(model, b) for b in zq]
    for r in range(dim):
        for c in range(r, dim):  # the defect matrix is symmetric
            rows.append([d[r][c] for d in defects])
    coeff_vectors = mat.nullspace(rows)
    expected = model.n * (2 * model.n - 1)
    if len(coeff_vectors) != expected:
        raise AssertionError(
            f"so*(2n) dimension self-check failed: got {len(coeff_vectors)}, "
            f"expected n(2n-1) = {expected}")
    so_elements = []
    for v in coeff_vectors:
        m = mat.zeros(dim, dim)
        for coef, b in zip(v, zq):
            if coef != 0:
                m = mat.mat_add(m, mat.mat_scale(coef, b))
        if commutation_defect(model, m) != 0 or mat.max_abs(symplectic_defect(model, m)) != 0:
            raise AssertionError("enumerated element violates the defining equations")
        so_elements.append(LieElement(matrix=m, so_part=m,
                                      sp_coeffs=(Fraction(0),) * 3))
    sp_elements = []
    zero = mat.zeros(dim, dim)
    for a in range(3):
        coeffs = tuple(Fraction(1 if b == a else 0) for b in range(3))
        sp_elements.append(LieElement(matrix=model.J[a], so_part=zero,
                                      sp_coeffs=coeffs))
    return LieBasis(model=model, so_basis=tuple(so_elements),
                    sp_basis=tuple(sp_elements))


def sp1_trace_coefficients(model: FlatModel, m):
    """Coefficients of the sp(1) component: c_a = -Tr(J_a M) / 4n.

    Valid because Tr(J_a J_b) = -4n delta_ab while Tr(J_a A) = 0 for
    every A in so*(2n).
    """
    dim = model.dim
    coeffs = []
    for Ja in model.J:
        tr = sum(sum(Ja[i][k] * m[k][i] for k in range(dim)) for i in range(dim))
        coeffs.append(-tr / Fraction(4 * model.n))
    return tuple(coeffs)


def decompose(model: FlatModel, basis: LieBasis, m) -> LieElement:
    """Split M = M_so + sum_a c_a J_a, or raise MembershipError.

    The sp(1) coefficients are recovered by the invariant trace pairing;
    the remainder must then satisfy the so*(2n) defining equations
    exactly, which characterizes membership in span(basis).
    """
    coeffs = sp1_trace_coefficients(model, m)
    so_part = m
    for c, Ja in zip(coeffs, model.J):
        if c != 0:
            so_part = mat.mat_sub(so_part, mat.mat_scale(c, Ja))
    residual = max(commutation_defect(model, so_part),
                   mat.max_abs(symplectic_defect(model, so_part)))
    if residual != 0:
        raise MembershipError("matrix is not in so*(2n) (+) sp(1)", residual)
    return LieElement(matrix=m, so_part=so_part, sp_coeffs=coeffs)


def project_ZQ(model: FlatModel, x, y, frame=None):
    """Matrix of z -> (1/4)(omega0(x,z) y - sum_a g_a(x,z) J_a y).

    This is the invariant projection of the rank-one operator
    omega0(x,-) (x) y onto the centralizer of the quaternionic span;
    it lands in Z(Q) and does not depend on the admissible frame.
    """
    model.check_vector(x)
    model.check_vector(y)
    if frame is None:
        J, G = model.J, model.g
    else:
        J = frame
        G = [mat.mat_mul(model.omega, Ja) for Ja in J]
    # omega0 is skew, so Omega^T x = -Omega x
    omega_x = [-v for v in mat.mat_vec(model.omega, x)]
    out = mat.outer(y, omega_x)
    for Ja, Ga in zip(J, G):
        ga_x = mat.mat_vec(Ga, x)  # G_a symmetric: row of g_a(x, -)
        out = mat.mat_sub(out, mat.outer(mat.mat_vec(Ja, y), ga_x))
    return mat.mat_scale(Fraction(1, 4), out)


def project_Q(model: FlatModel, x, y, frame=None):
    """Matrix of -(1/4n) sum_a Tr(omega0(x,-) (x) J_a y) J_a.

    The traces reduce to g_a(x, y), so the output is the sp(1) component
    of the same rank-one operator; frame-independent.
    """
    model.check_vector(x)
    model.check_vector(y)
    if frame is None:
        J, G = model.J, model.g
    else:
        J = frame
        G = [mat.mat_mul(model.omega, Ja) for Ja in J]
    out = mat.zeros(model.dim, model.dim)
    factor = Fraction(-1, 4 * model.n)
    for Ja, Ga in zip(J, G):
        ga = mat.bilinear(Ga, x, y)
        out = mat.mat_add(out, mat.mat_scale(factor * ga, Ja))
    return out


def project_ZQ_operator(model: FlatModel, t):
    """Invariant projection of an arbitrary matrix onto Z(Q):
    (1/4)(T - sum_a J_a T J_a)."""
    out = [row[:] for row in t]
    for Ja in model.J:
        out = mat.mat_sub(out, mat.mat_mul(Ja, mat.mat_mul(t, Ja)))
    return mat.mat_scale(Fraction(1, 4), out)


def project_Q_operator(model: FlatModel, t):
    """Invariant projection of an arbitrary matrix onto span{J_a}."""
    coeffs = sp1_trace_coefficients(model, t)
    out = mat.zeros(model.dim, model.dim)
    for c, Ja in zip(coeffs, model.J):
        out = mat.mat_add(out, mat.mat_scale(c, Ja))
    return out


def circle_so_star(model: FlatModel, x, y):
    """Commutant part of the circle map: the symmetrized projection."""
    return mat.mat_add(project_ZQ(model, x, y), project_ZQ(model, y, x))


def circle_sp1(model: FlatModel, x, y):
    """sp(1) part of the circle map: -(1/2n) sum_a g_a(x,y) J_a."""
    return mat.mat_add(project_Q(model, x, y), project_Q(model, y, x))


def circle_map(model: FlatModel, x, y, kappa) -> LieElement:
    """The pinned equivariant map x o y = 2k (x o y)_so* + nk (x o y)_sp1."""
    if kappa == 0:
        raise ValueError("the circle map requires kappa != 0")
    k = Fraction(kappa)
    so = mat.mat_scale(2 * k, circle_so_star(model, x, y))
    sp = mat.mat_scale(model.n * k, circle_sp1(model, x, y))
    # sp(1) coefficients: n*kappa * (-1/2n) g_a(x, y) = -(kappa/2) g_a(x, y)
    half_k = k / 2
    coeffs = tuple(-half_k * mat.bilinear(ga, x, y) for ga in model.g)
    return LieElement(matrix=mat.mat_add(so, sp), so_part=so, sp_coeffs=coeffs)

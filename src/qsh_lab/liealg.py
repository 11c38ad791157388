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

An element of h = so*(2n) (+) sp(1) is its matrix, a QArray: the basis
holds matrices, and decompose splits a matrix into its so*(2n) part and
its sp(1) coefficients, or raises MembershipError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from qsh_lab import matrices as mat
from qsh_lab.linmodel import FlatModel, structure_blocks
from qsh_lab.matrices import QArray
from qsh_lab.record import FrozenRecord


class MembershipError(ValueError):
    def __init__(self, message: str, residual):
        super().__init__(f"{message} (residual {residual})")
        self.residual = residual


class LieBasis(FrozenRecord):
    __slots__ = ("model", "so_basis", "sp_basis")

    def __init__(self, model: FlatModel, so_basis: tuple, sp_basis: tuple):
        # tuples of QArray matrices: so_basis the enumerated so*(2n)
        # elements, sp_basis the three slices of model.J
        self._init(model, so_basis, sp_basis)

    def elements(self):
        return list(self.so_basis) + list(self.sp_basis)


@cache
def _commutant_block_basis() -> QArray:
    """Exact nullspace basis of {B in gl(4,R) : B j_a = j_a B, a=1,2,3},
    stacked as shape (4, 4, 4).  It does not depend on n, and a QArray is
    read-only, so it is computed once per process."""
    # entry (r, c) of B j - j B is row 4r + c of (I (x) j^T - j (x) I) vec(B)
    j = structure_blocks()
    eye4 = QArray.eye(4).reshape(1, 4, 4)
    rows = (eye4.kron(j.T) - j.kron(eye4)).reshape(48, 16)
    basis_vecs = mat.nullspace(rows)
    if len(basis_vecs) != 4:
        raise AssertionError(
            f"commutant of the structure block must be 4-dimensional, got {len(basis_vecs)}")
    return basis_vecs.reshape(4, 4, 4)


def centralizer_basis(model: FlatModel) -> QArray:
    """Basis of Z(Q) in gl(4n), stacked as shape (4n^2, 4n, 4n): one
    commutant block per (row, col) slot, i.e. E_rc (x) B for the n x n
    matrix units E_rc in row-major order and the four blocks B."""
    n = model.n
    units = QArray.eye(n * n).reshape(n * n, 1, n, n)
    blocks = _commutant_block_basis().reshape(1, 4, 4, 4)
    return units.kron(blocks).reshape(4 * n * n, model.dim, model.dim)


def symplectic_defect(model: FlatModel, m: QArray) -> QArray:
    """M^T Omega + Omega M; zero iff M is omega0-skew."""
    return m.T @ model.omega + model.omega @ m


def commutation_defect(model: FlatModel, m: QArray) -> Fraction:
    """Max |entry| over the three commutators [M, J_a]."""
    return (m @ model.J - model.J @ m).max_abs()


def enumerate_so_star_basis(model: FlatModel) -> LieBasis:
    """Enumerate a basis of so*(2n), plus the three J_a for sp(1).

    Raises if the computed dimension differs from n(2n-1): that formula
    is the self-check for the whole construction.
    """
    import numpy as np

    zq = centralizer_basis(model)
    dim = model.dim
    defects = symplectic_defect(model, zq)  # one per centralizer element
    upper = np.triu_indices(dim)  # the defect matrices are symmetric
    rows = defects.transpose(1, 2, 0)[upper]
    coeff_vectors = mat.nullspace(rows)
    expected = model.n * (2 * model.n - 1)
    if len(coeff_vectors) != expected:
        raise AssertionError(
            f"so*(2n) dimension self-check failed: got {len(coeff_vectors)}, "
            f"expected n(2n-1) = {expected}")
    elements = (coeff_vectors @ zq.reshape(len(zq), dim * dim)).reshape(-1, dim, dim)
    if any(commutation_defect(model, m) != 0 or symplectic_defect(model, m).max_abs() != 0
           for m in elements):
        raise AssertionError("enumerated element violates the defining equations")
    return LieBasis(model=model, so_basis=tuple(elements), sp_basis=tuple(model.J))


def sp1_trace_coefficients(model: FlatModel, m: QArray):
    """Coefficients of the sp(1) component: c_a = -Tr(J_a M) / 4n.

    Valid because Tr(J_a J_b) = -4n delta_ab while Tr(J_a A) = 0 for
    every A in so*(2n).
    """
    return tuple(-(Ja @ m).trace() / (4 * model.n) for Ja in model.J)


def _span(coeffs, J: QArray) -> QArray:
    """sum_a c_a J_a."""
    return sum(c * Ja for c, Ja in zip(coeffs, J))


def decompose(model: FlatModel, m: QArray):
    """Split M = M_so + sum_a c_a J_a into (M_so, (c_1, c_2, c_3)), or
    raise MembershipError.

    The sp(1) coefficients are recovered by the invariant trace pairing;
    the remainder must then satisfy the so*(2n) defining equations
    exactly, which characterizes membership in the enumerated so*(2n).
    """
    coeffs = sp1_trace_coefficients(model, m)
    so_part = m - _span(coeffs, model.J)
    residual = max(commutation_defect(model, so_part),
                   symplectic_defect(model, so_part).max_abs())
    if residual != 0:
        raise MembershipError("matrix is not in so*(2n) (+) sp(1)", residual)
    return so_part, coeffs


def project_ZQ(model: FlatModel, x: QArray, y: QArray) -> QArray:
    """Matrix of z -> (1/4)(omega0(x,z) y - sum_a g_a(x,z) J_a y).

    This is the invariant projection of the rank-one operator
    omega0(x,-) (x) y onto the centralizer of the quaternionic span;
    it lands in Z(Q) and does not depend on the admissible frame: a
    rotated frame is the model with (J, g) rotated together.
    """
    # column y times the row omega0(x, -), minus the columns J_a y times
    # the rows g_a(x, -)
    out = y[:, None] @ (x @ model.omega)[None, :] - (model.J @ y).T @ (x @ model.g)
    return out * Fraction(1, 4)


def project_Q(model: FlatModel, x: QArray, y: QArray) -> QArray:
    """Matrix of -(1/4n) sum_a Tr(omega0(x,-) (x) J_a y) J_a.

    The traces reduce to g_a(x, y), so the output is the sp(1) component
    of the same rank-one operator; it does not depend on the admissible
    frame of the model.
    """
    return _span(x @ model.g @ y, model.J) * Fraction(-1, 4 * model.n)


def project_ZQ_operator(model: FlatModel, t: QArray) -> QArray:
    """Invariant projection of an arbitrary matrix onto Z(Q):
    (1/4)(T - sum_a J_a T J_a)."""
    return (t - sum(Ja @ t @ Ja for Ja in model.J)) * Fraction(1, 4)


def project_Q_operator(model: FlatModel, t: QArray) -> QArray:
    """Invariant projection of an arbitrary matrix onto span{J_a}."""
    return _span(sp1_trace_coefficients(model, t), model.J)


def circle_so_star(model: FlatModel, x, y):
    """Commutant part of the circle map: the symmetrized projection."""
    return project_ZQ(model, x, y) + project_ZQ(model, y, x)


def circle_sp1(model: FlatModel, x, y):
    """sp(1) part of the circle map: -(1/2n) sum_a g_a(x,y) J_a."""
    return project_Q(model, x, y) + project_Q(model, y, x)


def circle_map(model: FlatModel, x, y, kappa) -> QArray:
    """The pinned equivariant map x o y = 2k (x o y)_so* + nk (x o y)_sp1."""
    if kappa == 0:
        raise ValueError("the circle map requires kappa != 0")
    k = Fraction(kappa)
    return (circle_so_star(model, x, y) * (2 * k)
            + circle_sp1(model, x, y) * (model.n * k))

"""The flat model: R^{4n} with its hypercomplex triple, scalar 2-form
and the three induced metrics.

Coordinate convention, fixed once and relied on by every other module:
a vector of H^n is stored as 4n real coordinates in (component,
quaternion-part)-major order, i.e. real index 4*k + p holds the
coefficient of the unit (1, i, j, k)[p] inside the k-th quaternionic
component.

Structure maps.  With u = (i, j, k), the complex structures are the
right scalar multiplications

    J_a(x) = x * conj(u_a)             (componentwise),

a sign choice under which q -> (x -> x * conj(q)) is a group
homomorphism of unit quaternions, so J1 J2 = J3 and J1 J2 J3 = -Id come
straight out of the quaternion relations.  The scalar 2-form is

    omega0(x, y) = Re( sum_k conj(x_k) * j * y_k ),

which is skew, non-degenerate and invariant under every right unit
multiplication (hence Hermitian for the whole 2-sphere of structures);
its stabilizer inside GL(n, H) is the standard matrix realization of
SO*(2n).  The metrics are g_a(x, y) = omega0(x, J_a y).  All matrices
are derived from quaternion products at build time rather than
hardcoded, and every claimed invariant is asserted by the test suite.

Representation.  Matrices and vectors are matrices.QArray, the one
exact array type of the linear stack: the model holds omega0 as one
(4n, 4n) integer array and the J_a and the g_a each stacked as one
(3, 4n, 4n) array, so model.J[a - 1] is J_a and x @ model.g @ y is the
3-vector (g_1, g_2, g_3)(x, y).  Bilinear forms read out as Fraction.
"""

from __future__ import annotations

from qsh_lab.matrices import QArray
from qsh_lab.quaternion import Quaternion
from qsh_lab.record import Record

UNITS = (Quaternion.unit(1), Quaternion.unit(2), Quaternion.unit(3))


def structure_blocks() -> QArray:
    """The 4x4 real matrices of x -> x * conj(u_a) on one quaternionic
    component, stacked as shape (3, 4, 4)."""
    cols = [[(Quaternion.unit(p) * u.conj()).components() for p in range(4)]
            for u in UNITS]
    return QArray.of(cols).transpose(0, 2, 1)


class FlatModel(Record):
    """Container for (n, J_1..J_3, omega0, g_1..g_3).  J and g are QArrays
    of shape (3, 4n, 4n), omega one of shape (4n, 4n), all integer
    (scale 1)."""

    __slots__ = ("n", "J", "omega", "g")

    def __init__(self, n: int, J: QArray, omega: QArray, g: QArray):
        self._init(n, J, omega, g)

    @property
    def dim(self) -> int:
        return 4 * self.n

    def basis_vector(self, i: int) -> QArray:
        return QArray.eye(self.dim)[i]


def build_flat_model(n: int) -> FlatModel:
    """Construct the flat model on R^{4n}; deterministic in n.

    Rejects n < 2: the compact degenerate case n = 1 is excluded from
    the whole theory.  Each structure matrix is block diagonal with one
    4x4 block per quaternionic component, i.e. the Kronecker product of
    the n x n identity with that block.
    """
    if n < 2:
        raise ValueError("the flat model requires n >= 2")
    jq = Quaternion.unit(2)
    omega_block = QArray.of([[(Quaternion.unit(r).conj() * jq * Quaternion.unit(c)).h0
                              for c in range(4)] for r in range(4)])
    eye_n = QArray.eye(n)
    J = eye_n.reshape(1, n, n).kron(structure_blocks())
    omega = eye_n.kron(omega_block)
    # g has entries in {0, +-1}: the bound of its values, not the 4n of `@`
    return FlatModel(n=n, J=J, omega=omega, g=QArray((omega @ J).values))


def qsh_form(model: FlatModel, x, y):
    """Evaluate the skew-Hermitian form: (omega0(x,y), (g1, g2, g3)(x,y)).

    The scalar part is the real part of the form, the 3-vector holds its
    coefficients over J_1, J_2, J_3.
    """
    return x @ model.omega @ y, tuple(x @ model.g @ y)


def qsh_form_matrix(model: FlatModel, x, y):
    """The endomorphism omega0(x,y) Id + sum_a g_a(x,y) J_a."""
    scalar, sp1 = qsh_form(model, x, y)
    return QArray.eye(model.dim) * scalar + sum(c * Ja for c, Ja in zip(sp1, model.J))


def fundamental_4tensor(model: FlatModel, x, y, z, w):
    """sum_a g_a(x, y) g_a(z, w)."""
    return sum(p * q for p, q in zip(x @ model.g @ y, z @ model.g @ w))


def sp1_conjugate_frame(model: FlatModel, q: Quaternion) -> QArray:
    """Admissible frame obtained by rotating (J_1, J_2, J_3) with a unit q.

    The rotated structures are J'_a = sum_b R_{ba} J_b where R is the
    3x3 rotation sending u_a to q u_a conj(q); they span the same
    3-space and satisfy the quaternionic identity.  Returned stacked like
    model.J.
    """
    dim = model.dim
    return (rotation_matrix(q).T @ model.J.reshape(3, dim * dim)).reshape(3, dim, dim)


def rotation_matrix(q: Quaternion) -> QArray:
    """3x3 matrix of the conjugation action of a unit quaternion."""
    return QArray.of([(q * u * q.conj()).imag_components() for u in UNITS]).T

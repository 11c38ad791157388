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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from qsh_lab import matrices as mat
from qsh_lab.quaternion import Quaternion

UNITS = (Quaternion.unit(1), Quaternion.unit(2), Quaternion.unit(3))


class DimensionMismatch(ValueError):
    pass


def _right_mult_block(u: Quaternion):
    """4x4 real matrix of x -> x * u on one quaternionic component."""
    cols = []
    for p in range(4):
        prod = Quaternion.unit(p) * u
        cols.append(list(prod.components()))
    return [[cols[c][r] for c in range(4)] for r in range(4)]


def _block_diag(block, n: int):
    dim = 4 * n
    m = mat.zeros(dim, dim)
    for k in range(n):
        for r in range(4):
            for c in range(4):
                m[4 * k + r][4 * k + c] = block[r][c]
    return m


@dataclass(frozen=True)
class FlatModel:
    """Container for (n, J_1..J_3, omega0, g_1..g_3)."""

    n: int
    J: tuple
    omega: list
    g: tuple

    @property
    def dim(self) -> int:
        return 4 * self.n

    def basis_vector(self, i: int):
        v = [Fraction(0)] * self.dim
        v[i] = Fraction(1)
        return v

    def check_vector(self, x):
        if len(x) != self.dim:
            raise DimensionMismatch(
                f"expected a vector of length {self.dim}, got {len(x)}")

    def omega_of(self, x, y):
        self.check_vector(x)
        self.check_vector(y)
        return mat.bilinear(self.omega, x, y)

    def apply_J(self, a: int, v):
        return mat.mat_vec(self.J[a - 1], v)

    @cached_property
    def structure_arrays(self):
        """(omega0, J, g, identity) as read-only numpy arrays of Python
        ints (dtype=object), of shapes (dim, dim), (3, dim, dim),
        (3, dim, dim) and (dim, dim).  Built once per model for the
        curvature kernel; every structure entry is an integer."""
        import numpy as np

        def ints(m):
            d, rows = mat.cleared(m)
            assert d == 1
            return rows

        arrays = (np.array(ints(self.omega), dtype=object),
                  np.array([ints(m) for m in self.J], dtype=object),
                  np.array([ints(m) for m in self.g], dtype=object),
                  np.array(ints(mat.identity(self.dim)), dtype=object))
        for a in arrays:
            a.flags.writeable = False
        return arrays


def build_flat_model(n: int) -> FlatModel:
    """Construct the flat model on R^{4n}; deterministic in n.

    Rejects n < 2: the compact degenerate case n = 1 is excluded from
    the whole theory.
    """
    if n < 2:
        raise ValueError("the flat model requires n >= 2")
    j_blocks = [_right_mult_block(u.conj()) for u in UNITS]
    jq = Quaternion.unit(2)
    omega_block = [[(Quaternion.unit(r).conj() * jq * Quaternion.unit(c)).h0
                    for c in range(4)] for r in range(4)]
    J = tuple(_block_diag(b, n) for b in j_blocks)
    omega = _block_diag(omega_block, n)
    g = tuple(mat.mat_mul(omega, Ja) for Ja in J)
    return FlatModel(n=n, J=J, omega=omega, g=g)


def qsh_form(model: FlatModel, x, y):
    """Evaluate the skew-Hermitian form: (omega0(x,y), (g1, g2, g3)(x,y)).

    The scalar part is the real part of the form, the 3-vector holds its
    coefficients over J_1, J_2, J_3.
    """
    model.check_vector(x)
    model.check_vector(y)
    scalar = mat.bilinear(model.omega, x, y)
    sp1 = tuple(mat.bilinear(ga, x, y) for ga in model.g)
    return scalar, sp1


def qsh_form_matrix(model: FlatModel, x, y):
    """The endomorphism omega0(x,y) Id + sum_a g_a(x,y) J_a."""
    scalar, sp1 = qsh_form(model, x, y)
    out = mat.mat_scale(scalar, mat.identity(model.dim))
    for c, Ja in zip(sp1, model.J):
        out = mat.mat_add(out, mat.mat_scale(c, Ja))
    return out


def fundamental_4tensor(model: FlatModel, x, y, z, w):
    """sum_a g_a(x, y) g_a(z, w)."""
    for v in (x, y, z, w):
        model.check_vector(v)
    return sum(mat.bilinear(ga, x, y) * mat.bilinear(ga, z, w)
               for ga in model.g)


def sp1_conjugate_frame(model: FlatModel, q: Quaternion):
    """Admissible frame obtained by rotating (J_1, J_2, J_3) with a unit q.

    The rotated structures are J'_a = sum_b R_{ba} J_b where R is the
    3x3 rotation sending u_a to q u_a conj(q); they span the same
    3-space and satisfy the quaternionic identity.
    """
    if not q.is_unit():
        raise ValueError("frame rotation requires |q|^2 = 1")
    rotated = []
    for u in UNITS:
        w = q * u * q.conj()
        assert w.h0 == 0
        coeffs = w.imag_components()
        m = mat.zeros(model.dim, model.dim)
        for cb, Jb in zip(coeffs, model.J):
            if cb != 0:
                m = mat.mat_add(m, mat.mat_scale(cb, Jb))
        rotated.append(m)
    return rotated


def rotation_matrix(q: Quaternion):
    """3x3 matrix of the conjugation action of a unit quaternion."""
    cols = []
    for u in UNITS:
        w = q * u * q.conj()
        cols.append(list(w.imag_components()))
    return [[cols[c][r] for c in range(3)] for r in range(3)]


def signature(model: FlatModel, bilinear_matrix):
    """Signature of a symmetric bilinear form, exactly."""
    return mat.signature_symmetric(bilinear_matrix)

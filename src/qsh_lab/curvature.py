"""The formal curvature map A -> R_A, Bianchi residuals and the Ricci
tensor of the flat quaternionic skew-Hermitian model.

R_A(x, y) = kappa * omega0(x, y) A
            + c1 * (x o Ay - y o Ax)_so*  + c2 * (x o Ay - y o Ax)_sp1,

where the two circle-map parts are the invariant projections from
liealg.  The first Bianchi identity pins (c1, c2) = (2 kappa, n kappa);
the free constructor exists so the necessity of that pinning can be
exhibited by nonzero residuals.

Kernel.  On the standard basis R_A is one array indexed
[i, j, k, r] = (R(e_i, e_j) e_k)_r, so R(e_i, e_j) is tensor[i, j].T;
the Bianchi sum, the Ricci trace and the rank rows contract it.
R_A = kappa T0 + (c1/4) T1 + (c2/2n) T2 for three kappa-free tensors
that matrices.einsum builds from the terms of the expanded formula (see
_parts) on the model's QArrays and A: exact for every kappa and every
rational A.  A tensor holds (4n)^4 entries, so callers keep it
only as long as they contract it: a run computes R_A at the pinned
parameters once per basis element, for its Bianchi sum and Ricci trace
(the per-size pass of suites), and curvature_rows keeps one row of it
per element.  Every step is a QArray operation, so matrices alone
decides, from the bounds it carries, whether a step runs in int64 or on
Python ints; nothing here assumes a bound.  The products J_a A, A^T w,
A^T g_a and g_a A, and R_A itself, take the bound of their values (the
generic bound of `@` would carry a factor 4n), so the kernel stays in
int64 wherever the values allow it.  numpy is imported inside the
functions, so importing this module does not load it.

curvature_by_definition, ricci_closed_form, is_Q_hermitian and
curvature_map_rank_float never call the kernel: they are the second
paths the checks compare it against.  curvature_by_definition builds
the matrix R_A(x, y) as the definition above reads, from circle_so_star
and circle_sp1 of liealg, for any two vectors x and y; it shares no
step with the expanded formula of the kernel.  bianchi_defect_closed_form
is a reference for the tests; no check calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from qsh_lab import matrices as mat
from qsh_lab.liealg import (LieBasis, LieElement, circle_so_star, circle_sp1,
                            decompose)
from qsh_lab.linmodel import FlatModel
from qsh_lab.matrices import QArray


@dataclass(frozen=True)
class CurvParams:
    """Curvature coefficients.  kappa must be nonzero; c1 and c2 are free
    so that off-pinning behaviour can be tested."""

    kappa: Fraction
    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        if self.kappa == 0:
            raise ValueError("kappa must be nonzero")

    @staticmethod
    def pinned(kappa, n: int) -> "CurvParams":
        """The Bianchi-compatible coefficients c1 = 2k, c2 = nk."""
        k = Fraction(kappa)
        return CurvParams(kappa=k, c1=2 * k, c2=n * k)

    @staticmethod
    def free(kappa, c1, c2) -> "CurvParams":
        return CurvParams(kappa=Fraction(kappa), c1=Fraction(c1), c2=Fraction(c2))


def _as_element(model: FlatModel, a) -> LieElement:
    if isinstance(a, LieElement):
        return a
    return decompose(model, a)  # raises MembershipError if outside g


def _parts(model: FlatModel, A: QArray):
    """The kappa-free tensors (T0, T1, T2) of A, from the expanded formula

      R(x,y)z = k w(x,y) Az
                + (c1/4) [w(x,z) Ay - sum_a g_a(x,z) J_a Ay
                          + w(Ay,z) x - sum_a g_a(Ay,z) J_a x]
                - (c1/4) [same with x and y swapped]
                - (c2/2n) sum_a (g_a(x,Ay) - g_a(y,Ax)) J_a z,

    term by term: T0 is the kappa term, T1 the two c1 brackets and T2
    the c2 sum, each without its coefficient."""
    W, J, G = model.omega, model.J, model.g
    # the bounds of the values themselves: max|A| where the generic bound
    # of `@` would carry a factor 4n
    At = A.T
    JA, AtW, AtG, GA = (QArray(x.values, x.scale)
                        for x in (J @ A, At @ W, At @ G, G @ A))
    # w(x,y) Az
    t0 = mat.einsum("ij,rk->ijkr", W, A)
    # w(x,z) Ay - sum_a g_a(x,z) J_a Ay + w(Ay,z) x - sum_a g_a(Ay,z) J_a x
    half = (mat.einsum("ik,rj->ijkr", W, A)
            - mat.einsum("aik,arj->ijkr", G, JA)
            + mat.einsum("jk,ri->ijkr", AtW, QArray.eye(model.dim))
            - mat.einsum("ajk,ari->ijkr", AtG, J))
    t1 = half - half.transpose(1, 0, 2, 3)
    # -sum_a (g_a(x,Ay) - g_a(y,Ax)) J_a z
    t2 = -mat.einsum("aij,ark->ijkr", GA - GA.transpose(0, 2, 1), J)
    return t0, t1, t2


def curvature_of(model: FlatModel, basis: LieBasis, a, params: CurvParams) -> QArray:
    """R_A on all standard basis triples (see Kernel)."""
    # basis is unread: bench/spans.py's curvature_input_key fixes this arity
    t0, t1, t2 = _parts(model, _as_element(model, a).matrix)
    r = (t0 * params.kappa + t1 * (params.c1 / 4)
         + t2 * (params.c2 / Fraction(2 * model.n)))
    return QArray(r.values, r.scale)  # the bound of the values themselves


def curvature_by_definition(model: FlatModel, A: QArray, params: CurvParams,
                            x: QArray, y: QArray) -> QArray:
    """The matrix R_A(x, y) = k w(x, y) A + c1 (x o Ay - y o Ax)_so*
    + c2 (x o Ay - y o Ax)_sp1, from the projections of liealg."""
    Ax, Ay = A @ x, A @ y
    so = circle_so_star(model, x, Ay) - circle_so_star(model, y, Ax)
    sp = circle_sp1(model, x, Ay) - circle_sp1(model, y, Ax)
    return A * (params.kappa * (x @ model.omega @ y)) + so * params.c1 + sp * params.c2


def bianchi_defect_closed_form(model: FlatModel, A: QArray, params: CurvParams,
                               i: int, j: int, k: int) -> QArray:
    """The cyclic sum R(x,y)z + R(y,z)x + R(z,x)y collapses, for any
    coefficients, to

        cyc[(k - c1/2) w(x,y) Az
            + (c1/4 - c2/2n) sum_a (g_a(Ay,x) - g_a(Ax,y)) J_a z],

    evaluated here on basis vectors x, y, z = e_i, e_j, e_k.  Both
    coefficients vanish exactly at the pinning (2k, nk), which is the
    whole content of the pinned/perturbed residual checks; away from it
    this is an independent prediction of the defect that the tensor
    pipeline must reproduce."""
    coef1 = params.kappa - params.c1 / 2
    coef2 = params.c1 / 4 - params.c2 / Fraction(2 * model.n)

    def cyc_term(xi, yi, zi):
        x, y, z = (model.basis_vector(v) for v in (xi, yi, zi))
        Ax, Ay = A @ x, A @ y
        out = (A @ z) * (coef1 * (x @ model.omega @ y))
        for a in range(3):
            ga = model.g[a]
            c = coef2 * (Ay @ ga @ x - Ax @ ga @ y)
            if c != 0:
                out = out + model.apply_J(a + 1, z) * c
        return out

    return cyc_term(i, j, k) + cyc_term(j, k, i) + cyc_term(k, i, j)


def bianchi_residual(tensor: QArray) -> Fraction:
    """Max-norm of the cyclic sum R(x,y)z + R(y,z)x + R(z,x)y over all
    basis triples; zero iff the tensor satisfies the first Bianchi
    identity."""
    return (tensor + tensor.transpose(2, 0, 1, 3)
            + tensor.transpose(1, 2, 0, 3)).max_abs()


def ricci_of(tensor: QArray) -> QArray:
    """Ric[y][z] = trace of x -> R(x, y) z, summed over the standard basis."""
    return mat.einsum("iyzi->yz", tensor)


def ricci_closed_form(model: FlatModel, A: QArray, kappa) -> QArray:
    """The closed Ricci formula
    (2n+1) k w(Ay,z) + (k/2) sum_a g_a(y,z) Tr(J_a A) - k sum_a w(J_a A J_a y, z),
    assembled entrywise as a matrix; independent of the trace computation."""
    k = Fraction(kappa)
    out = A.T @ model.omega * ((2 * model.n + 1) * k)  # (y,z) -> w(Ay, z)
    for Ja, ga in zip(model.J, model.g):
        tr = (Ja @ A).trace()
        if tr != 0:
            out = out + ga * (k * tr / 2)
        out = out - (Ja @ A @ Ja).T @ model.omega * k
    return out


def omega_pairing(model: FlatModel, A: QArray) -> QArray:
    """The bilinear form (y, z) -> omega0(Ay, z) as a matrix."""
    return A.T @ model.omega


def is_Q_hermitian(model: FlatModel, t: QArray, frames=()):
    """Check T(Jx, Jy) = T(x, y) for the three generators, plus optional
    rotated frames as a randomized 2-sphere backstop, given as pairs
    (q, sp1_conjugate_frame(model, q)) built once by the caller.

    Returns (True, None) or (False, witness) where the witness names the
    violating structure and the first violating basis pair.
    """
    import numpy as np

    labelled = [(f"J{a + 1}", J) for a, J in enumerate(model.J)]
    labelled += [(f"rotated(J{a + 1}; q={q.components()})", J)
                 for q, frame in frames for a, J in enumerate(frame)]
    for label, J in labelled:
        lhs = J.T @ t @ J
        if not lhs == t:
            i, j = (int(x) for x in np.argwhere((lhs - t).values != 0)[0])
            return False, {"structure": label, "i": i, "j": j,
                           "lhs": lhs[i, j], "rhs": t[i, j]}
    return True, None


def curvature_rows(model: FlatModel, basis: LieBasis, params: CurvParams):
    """One integer row per basis element A: the values of R_A(e_i, e_j)
    for i < j, flattened, at the tensor's own scale.  Positive row scales
    leave the rank unchanged."""
    import numpy as np

    upper = np.triu_indices(model.dim, 1)
    return np.array([curvature_of(model, basis, el, params).values[upper].ravel()
                     for el in basis.elements()])


def curvature_map_rank(rows) -> int:
    """Exact rank of A -> R_A over the enumerated basis of g, given the
    integer rows of curvature_rows.

    rank(B) = rank(B B^T) over the rationals, and the integer Gram matrix
    is tiny compared to the flattened tensors, so the echelon step runs
    on it.  The Gram product is a QArray `@`: it runs in int64 when
    cols * max|row|^2 is below 2^63, and on Python ints otherwise.
    """
    rows = QArray(rows)
    return mat.rank(rows @ rows.T)


def curvature_map_rank_float(rows) -> int:
    """Float SVD rank of the rows of curvature_rows, for cross-checking the
    exact rank: the number of singular values above 1e-8 times the
    largest.  It gets no model, so it cannot evaluate the map itself or
    call the kernel.  The SVD runs on the transpose: the same singular
    values, and LAPACK is much faster on a tall matrix than on a wide one."""
    import numpy as np

    svals = np.linalg.svd(np.array(rows, dtype=float).T, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int((svals > 1e-8 * svals[0]).sum())

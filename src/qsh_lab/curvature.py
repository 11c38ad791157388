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
the Bianchi sum, the Ricci trace and the rank rows contract it.  With
A = B / d for an integer B, R_A = (k0 T0 + k1 T1 + k2 T2) / (L d) for
three kappa-free tensors built by einsum from the terms of the
expanded formula (see curvature_13) on the integer arrays of the model
and of B, and the Python ints (k0, k1, k2) = L (kappa, c1/4, c2/2n)
over their common denominator L: exact for every kappa and every
rational A.  A tensor holds (4n)^4 entries, so callers keep it only as
long as they contract it: a run computes R_A at the pinned parameters
once per basis element, for its Bianchi sum and Ricci trace (the
per-size pass of suites), and curvature_rows keeps one row of it per
element.  The einsum and the sum run in int64 when a bound proves that
no entry overflows, else on Python ints (dtype=object), and R_A is an
int64 QArray exactly when its entries fit (see matrices); the Bianchi
sum, the Ricci trace, the Hermiticity products and the rank rows then
run in int64 under the bounds that QArray carries.
The bound's premise, checked on the model by _kernel_dtype: omega0,
each J_a and each g_a is a signed permutation matrix (one +-1 in every
row and column), so a product with B on either side is bounded by
m = max(1, max|B|).  Then |T0| <= m; the four terms of half of T1 are
at most m, 3m, m, 3m, so |T1| <= 16m; |T2| <= 6m; and the sum is at
most m (|k0| + 16 |k1| + 6 |k2|), which must be below 2^63.  numpy is
imported inside the functions, so importing this module does not load
it.

curvature_13, bianchi_defect_closed_form, ricci_closed_form,
is_Q_hermitian and curvature_map_rank_float never call the kernel: they
are the independent second paths the checks compare it against.
curvature_13 evaluates the expanded formula on arrays of basis index
triples, one row R_A(e_i, e_j) e_k per triple, from gathered columns and
entries of the model's matrices and of A, so one call covers every
sampled triple of an element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from qsh_lab import matrices as mat
from qsh_lab.liealg import LieBasis, LieElement, decompose
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


def _as_element(model: FlatModel, basis: LieBasis, a) -> LieElement:
    if isinstance(a, LieElement):
        return a
    return decompose(model, basis, a)  # raises MembershipError if outside g


def _kernel_dtype(model: FlatModel, B, coeffs):
    """np.int64 if the Kernel bound proves that the parts of B and their
    combination with the int coeffs fit in it, else object."""
    import numpy as np

    for field in (model.omega.values, model.J.values, model.g.values):
        size = abs(field)
        if not ((size <= 1).all() and (size.sum(-1) == 1).all()
                and (size.sum(-2) == 1).all()):
            return object
    m = max(1, mat.magnitude(B))
    k0, k1, k2 = map(abs, coeffs)
    return np.int64 if m * (k0 + 16 * k1 + 6 * k2) < mat.INT64_LIMIT else object


def _parts(model: FlatModel, B, dtype):
    """The kappa-free tensors (T0, T1, T2) of an integer array B in
    dtype, term by term as in curvature_13."""
    import numpy as np

    W, J, G, A = (np.asarray(x, dtype=dtype) for x in
                  (model.omega.values, model.J.values, model.g.values, B))
    eye = np.eye(model.dim, dtype=dtype)
    # w(x,y) Az
    t0 = np.einsum("ij,rk->ijkr", W, A)
    # w(x,z) Ay - sum_a g_a(x,z) J_a Ay + w(Ay,z) x - sum_a g_a(Ay,z) J_a x
    half = (np.einsum("ik,rj->ijkr", W, A)
            - np.einsum("aik,arj->ijkr", G, J @ A)
            + np.einsum("jk,ri->ijkr", A.T @ W, eye)
            - np.einsum("ajk,ari->ijkr", A.T @ G, J))
    t1 = half - half.transpose(1, 0, 2, 3)
    # -sum_a (g_a(x,Ay) - g_a(y,Ax)) J_a z
    GA = G @ A
    t2 = -np.einsum("aij,ark->ijkr", GA - GA.transpose(0, 2, 1), J)
    return t0, t1, t2


def curvature_of(model: FlatModel, basis: LieBasis, a, params: CurvParams) -> QArray:
    """R_A on all standard basis triples, with scale L * d (see Kernel)."""
    A = _as_element(model, basis, a).matrix
    coeffs = (params.kappa, params.c1 / 4, params.c2 / Fraction(2 * model.n))
    common = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * common) for c in coeffs]
    parts = _parts(model, A.values, _kernel_dtype(model, A.values, ints))
    return QArray(sum(c * t for c, t in zip(ints, parts)), common * A.scale)


def curvature_13(model: FlatModel, A: QArray, params: CurvParams, I, J, K) -> QArray:
    """Independent (1,3)-tensor evaluation of R_A(x, y) z at x, y, z =
    e_i, e_j, e_k for each triple (i, j, k) of the index arrays (I, J, K),
    one row per triple, expanded term by term:

      k w(x,y) Az
      + (c1/4) [w(x,z) Ay - sum_a g_a(x,z) J_a Ay
                + w(Ay,z) x - sum_a g_a(Ay,z) J_a x]
      - (c1/4) [same with x and y swapped]
      - (c2/2n) sum_a (g_a(x,Ay) - g_a(y,Ax)) J_a z.

    On basis vectors every vector is a column (of A, J_a A, J_a or the
    identity) and every scalar an entry (of w, g_a, A^T w, A^T g_a or
    g_a A), gathered for all triples at once.  Used as a cross-check
    against the projection-based construction.
    """
    W, Js, G = model.omega, model.J, model.g
    JA, AtW, AtG, GA = Js @ A, A.T @ W, A.T @ G, G @ A
    eye = QArray.eye(model.dim)

    def at(M, r, c):  # the entries M[r_t, c_t], as a column
        return M[r, c][:, None]

    def col(M, c):  # the columns M[:, c_t], as rows
        return M[:, c].T

    def block(u, v):  # the (c1/4) bracket at x = e_u, y = e_v
        out = at(W, u, K) * col(A, v) + at(AtW, v, K) * col(eye, u)
        for a in range(3):
            out = out - at(G[a], u, K) * col(JA[a], v)
            out = out - at(AtG[a], v, K) * col(Js[a], u)
        return out

    out = at(W, I, J) * col(A, K) * params.kappa
    out = out + (block(I, J) - block(J, I)) * (params.c1 / 4)
    q2 = params.c2 / Fraction(2 * model.n)
    for a in range(3):
        out = out - (at(GA[a], I, J) - at(GA[a], J, I)) * col(Js[a], K) * q2
    return out


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


def bianchi_residual(model: FlatModel, tensor: QArray) -> Fraction:
    """Max-norm of the cyclic sum R(x,y)z + R(y,z)x + R(z,x)y over all
    basis triples; zero iff the tensor satisfies the first Bianchi
    identity."""
    return (tensor + tensor.transpose(2, 0, 1, 3)
            + tensor.transpose(1, 2, 0, 3)).max_abs()


def ricci_of(model: FlatModel, tensor: QArray) -> QArray:
    """Ric[y][z] = trace of x -> R(x, y) z, summed over the standard basis."""
    import numpy as np

    bound = tensor.bound * len(tensor)  # the trace sums len(tensor) terms
    (t,) = mat.operands(max(bound, tensor.bound), tensor)
    return QArray(np.einsum("iyzi->yz", t), tensor.scale, bound)


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


def curvature_map_rank_float(rows, tolerance: float = 1e-8) -> int:
    """Float SVD rank of the rows of curvature_rows, for cross-checking the
    exact rank.  It gets no model, so it cannot evaluate the map itself
    or call the kernel.  The SVD runs on the transpose: the same singular
    values, and LAPACK is much faster on a tall matrix than on a wide one."""
    import numpy as np

    svals = np.linalg.svd(np.array(rows, dtype=float).T, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int((svals > tolerance * svals[0]).sum())

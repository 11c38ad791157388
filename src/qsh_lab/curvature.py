"""The formal curvature map A -> R_A, Bianchi residuals and the Ricci
tensor of the flat quaternionic skew-Hermitian model.

R_A(x, y) = kappa * omega0(x, y) A
            + c1 * (x o Ay - y o Ax)_so*  + c2 * (x o Ay - y o Ax)_sp1,

where the two circle-map parts are the invariant projections from
liealg.  The first Bianchi identity pins (c1, c2) = (2 kappa, n kappa);
the free constructor exists so the necessity of that pinning can be
exhibited by nonzero residuals.

Kernel.  On the standard basis R_A is one array indexed
[i, j, k, r] = (R(e_i, e_j) e_k)_r, and it splits as

    R_A = kappa T0 + (c1/4) T1 + (c2/2n) T2

into three kappa-free tensors built by einsum from the term-by-term
formula of curvature_13.  Their structure operands (omega0, the J_a,
the g_a and the identity) are integer arrays built once per model
(FlatModel.structure_arrays), not on every call.  For an integer
matrix A the tensors have integer entries; a rational A is first
multiplied by the lcm of its denominators.  curvature_of combines the
parts with Python-int coefficients over one common denominator S, so a
CurvTensor holds the integer array S * R_A (dtype=object) together
with S: exact for every kappa and every rational A.  The Bianchi
cyclic sum, the Ricci trace and the rank rows are contractions of that
array.  numpy is imported inside the functions, so importing this
module does not load it.

curvature_13, bianchi_defect_closed_form, ricci_closed_form,
is_Q_hermitian and curvature_map_rank_float never call the kernel: they
are the independent second paths the checks compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from qsh_lab import matrices as mat
from qsh_lab.liealg import LieBasis, LieElement, decompose
from qsh_lab.linmodel import FlatModel, sp1_conjugate_frame


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
        if k == 0:
            raise ValueError("kappa must be nonzero")
        return CurvParams(kappa=k, c1=2 * k, c2=n * k)

    @staticmethod
    def free(kappa, c1, c2) -> "CurvParams":
        return CurvParams(kappa=Fraction(kappa), c1=Fraction(c1), c2=Fraction(c2))

    def is_pinned(self, n: int) -> bool:
        return self.c1 == 2 * self.kappa and self.c2 == n * self.kappa


@dataclass
class CurvTensor:
    """R_A on the standard basis as the integer array
    values[i, j, k, r] = scale * (R(e_i, e_j) e_k)_r."""

    values: object  # numpy array of Python ints, shape (4n, 4n, 4n, 4n)
    scale: int

    def matrix(self, i: int, j: int):
        """R(e_i, e_j) as a 4n x 4n matrix."""
        return [[Fraction(v, self.scale) for v in row]
                for row in self.values[i, j].T]

    def apply(self, i: int, j: int, k: int):
        """R(e_i, e_j) e_k as a vector."""
        return [Fraction(v, self.scale) for v in self.values[i, j, k]]


def _as_element(model: FlatModel, basis: LieBasis, a) -> LieElement:
    if isinstance(a, LieElement):
        return a
    return decompose(model, basis, a)  # raises MembershipError if outside g


def _cleared(m):
    """(d, d * m) for a rational matrix m: d is the lcm of its
    denominators and d * m an integer array of dtype object."""
    import numpy as np

    d, rows = mat.cleared(m)
    return d, np.array(rows, dtype=object)


def _parts(model: FlatModel, A):
    """The kappa-free tensors (T0, T1, T2) of R_A for an integer array A,
    indexed like CurvTensor.values, term by term as in curvature_13."""
    import numpy as np

    W, J, G, eye = model.structure_arrays
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


def curvature_of(model: FlatModel, basis: LieBasis, a, params: CurvParams) -> CurvTensor:
    """Evaluate R_A on all standard basis triples.

    With A = B / d for an integer matrix B,
    R_A = (kappa T0 + (c1/4) T1 + (c2/2n) T2)(B) / d.  The three
    coefficients are brought over their common denominator L, so the
    tensor stores an integer combination of the parts with scale L * d.
    """
    den, B = _cleared(_as_element(model, basis, a).matrix)
    coeffs = (params.kappa, params.c1 / 4, params.c2 / Fraction(2 * model.n))
    common = lcm(*(c.denominator for c in coeffs))
    values = sum(int(c * common) * t for c, t in zip(coeffs, _parts(model, B)))
    return CurvTensor(values=values, scale=common * den)


def curvature_13(model: FlatModel, A, params: CurvParams, x, y, z):
    """Independent (1,3)-tensor evaluation of R_A(x, y) z, expanded
    term by term:

      k w(x,y) Az
      + (c1/4) [w(x,z) Ay - sum_a g_a(x,z) J_a Ay
                + w(Ay,z) x - sum_a g_a(Ay,z) J_a x]
      - (c1/4) [same with x and y swapped]
      - (c2/2n) sum_a (g_a(x,Ay) - g_a(y,Ax)) J_a z.

    Used as a cross-check against the projection-based construction.
    """
    om = lambda u, v: mat.bilinear(model.omega, u, v)
    ga = lambda a, u, v: mat.bilinear(model.g[a], u, v)
    Ax = mat.mat_vec(A, x)
    Ay = mat.mat_vec(A, y)
    Az = mat.mat_vec(A, z)
    out = [params.kappa * om(x, y) * c for c in Az]
    q1 = params.c1 / 4
    # + (c1/4) block with (x, Ay)
    block = [om(x, z) * c for c in Ay]
    for a in range(3):
        JaAy = model.apply_J(a + 1, Ay)
        gxz = ga(a, x, z)
        block = [b - gxz * c for b, c in zip(block, JaAy)]
    wAyz = om(Ay, z)
    block = [b + wAyz * c for b, c in zip(block, x)]
    for a in range(3):
        Jax = model.apply_J(a + 1, x)
        gAyz = ga(a, Ay, z)
        block = [b - gAyz * c for b, c in zip(block, Jax)]
    out = [o + q1 * b for o, b in zip(out, block)]
    # - (c1/4) block with (y, Ax)
    block = [om(y, z) * c for c in Ax]
    for a in range(3):
        JaAx = model.apply_J(a + 1, Ax)
        gyz = ga(a, y, z)
        block = [b - gyz * c for b, c in zip(block, JaAx)]
    wAxz = om(Ax, z)
    block = [b + wAxz * c for b, c in zip(block, y)]
    for a in range(3):
        Jay = model.apply_J(a + 1, y)
        gAxz = ga(a, Ax, z)
        block = [b - gAxz * c for b, c in zip(block, Jay)]
    out = [o - q1 * b for o, b in zip(out, block)]
    # - (c2/2n) sum_a (g_a(x,Ay) - g_a(y,Ax)) J_a z
    q2 = params.c2 / Fraction(2 * model.n)
    for a in range(3):
        coef = ga(a, x, Ay) - ga(a, y, Ax)
        if coef != 0:
            Jaz = model.apply_J(a + 1, z)
            out = [o - q2 * coef * c for o, c in zip(out, Jaz)]
    return out


def bianchi_defect_closed_form(model: FlatModel, A, params: CurvParams,
                               i: int, j: int, k: int):
    """The cyclic sum R(x,y)z + R(y,z)x + R(z,x)y collapses, for any
    coefficients, to

        cyc[(k - c1/2) w(x,y) Az
            + (c1/4 - c2/2n) sum_a (g_a(Ay,x) - g_a(Ax,y)) J_a z],

    evaluated here on basis vectors x, y, z = e_i, e_j, e_k.  Both
    coefficients vanish exactly at the pinning (2k, nk), which is the
    whole content of the pinned/perturbed residual checks; away from it
    this is an independent prediction of the defect that the tensor
    pipeline must reproduce."""
    n = model.n
    coef1 = params.kappa - params.c1 / 2
    coef2 = params.c1 / 4 - params.c2 / Fraction(2 * n)
    out = [Fraction(0)] * model.dim

    def cyc_term(xi, yi, zi):
        nonlocal out
        x = model.basis_vector(xi)
        y = model.basis_vector(yi)
        z = model.basis_vector(zi)
        Az = mat.mat_vec(A, z)
        w = coef1 * mat.bilinear(model.omega, x, y)
        if w != 0:
            out = [o + w * c for o, c in zip(out, Az)]
        Ay = mat.mat_vec(A, y)
        Ax = mat.mat_vec(A, x)
        for a in range(3):
            ga = model.g[a]
            c = coef2 * (mat.bilinear(ga, Ay, x) - mat.bilinear(ga, Ax, y))
            if c != 0:
                jz = model.apply_J(a + 1, z)
                out = [o + c * v for o, v in zip(out, jz)]

    cyc_term(i, j, k)
    cyc_term(j, k, i)
    cyc_term(k, i, j)
    return out


def bianchi_residual(model: FlatModel, tensor: CurvTensor):
    """Max-norm of the cyclic sum R(x,y)z + R(y,z)x + R(z,x)y over all
    basis triples; zero iff the tensor satisfies the first Bianchi
    identity."""
    v = tensor.values
    cyclic = v + v.transpose(2, 0, 1, 3) + v.transpose(1, 2, 0, 3)
    return Fraction(int(abs(cyclic).max()), tensor.scale)


def ricci_of(model: FlatModel, tensor: CurvTensor):
    """Ric[y][z] = trace of x -> R(x, y) z, summed over the standard basis."""
    import numpy as np

    ric = np.einsum("iyzi->yz", tensor.values)
    return [[Fraction(v, tensor.scale) for v in row] for row in ric]


def ricci_closed_form(model: FlatModel, A, kappa):
    """The closed Ricci formula
    (2n+1) k w(Ay,z) + (k/2) sum_a g_a(y,z) Tr(J_a A) - k sum_a w(J_a A J_a y, z),
    assembled entrywise as a matrix; independent of the trace computation."""
    k = Fraction(kappa)
    n = model.n
    at_omega = mat.mat_mul(mat.transpose(A), model.omega)  # (y,z) -> w(Ay, z)
    out = mat.mat_scale((2 * n + 1) * k, at_omega)
    dim = model.dim
    for a in range(3):
        tr = sum(sum(model.J[a][i][p] * A[p][i] for p in range(dim))
                 for i in range(dim))
        if tr != 0:
            out = mat.mat_add(out, mat.mat_scale(k * tr / 2, model.g[a]))
    for a in range(3):
        jaj = mat.mat_mul(model.J[a], mat.mat_mul(A, model.J[a]))
        out = mat.mat_sub(out, mat.mat_scale(k, mat.mat_mul(mat.transpose(jaj), model.omega)))
    return out


def omega_pairing(model: FlatModel, A):
    """The bilinear form (y, z) -> omega0(Ay, z) as a matrix."""
    return mat.mat_mul(mat.transpose(A), model.omega)


def is_Q_hermitian(model: FlatModel, t, frames=None):
    """Check T(Jx, Jy) = T(x, y) for the three generators, plus optional
    rotated frames as a randomized 2-sphere backstop.

    Returns (True, None) or (False, witness) where the witness names the
    violating structure and basis pair.
    """
    dim = model.dim

    def violation(J, label):
        lhs = mat.mat_mul(mat.transpose(J), mat.mat_mul(t, J))
        for i in range(dim):
            for j in range(dim):
                if lhs[i][j] != t[i][j]:
                    return {"structure": label, "i": i, "j": j,
                            "lhs": lhs[i][j], "rhs": t[i][j]}
        return None

    for a in range(3):
        w = violation(model.J[a], f"J{a + 1}")
        if w is not None:
            return False, w
    if frames:
        for q in frames:
            rotated = sp1_conjugate_frame(model, q)
            for a, J in enumerate(rotated):
                w = violation(J, f"rotated(J{a + 1}; q={q.components()})")
                if w is not None:
                    return False, w
    return True, None


def curvature_rows(model: FlatModel, basis: LieBasis, params: CurvParams):
    """One integer row per basis element A: the values scale * R_A(e_i, e_j)
    for i < j, flattened.  Positive row scales leave the rank unchanged."""
    import numpy as np

    upper = np.triu_indices(model.dim, 1)
    return np.array([curvature_of(model, basis, el, params).values[upper].ravel()
                     for el in basis.elements()])


def curvature_map_rank(model: FlatModel, basis: LieBasis, params: CurvParams,
                       rows=None) -> int:
    """Exact rank of A -> R_A over the enumerated basis of g.

    rank(B) = rank(B B^T) over the rationals, and the integer Gram matrix
    is tiny compared to the flattened tensors, so the echelon step runs
    on it.
    """
    if rows is None:
        rows = curvature_rows(model, basis, params)
    return mat.rank((rows @ rows.T).tolist())


def curvature_map_rank_float(model: FlatModel, basis: LieBasis,
                             params: CurvParams, tolerance: float = 1e-8,
                             *, rows) -> int:
    """Float SVD rank of the rows of curvature_rows, for cross-checking the
    exact rank.  The rows are required: this path never evaluates the
    map itself, so it does not call the kernel."""
    import numpy as np

    svals = np.linalg.svd(np.array(rows, dtype=float), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int((svals > tolerance * svals[0]).sum())

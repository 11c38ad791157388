"""The formal curvature map A -> R_A, Bianchi residuals and the Ricci
tensor of the flat quaternionic skew-Hermitian model.

R_A(x, y) = kappa * omega0(x, y) A
            + c1 * (x o Ay - y o Ax)_so*  + c2 * (x o Ay - y o Ax)_sp1,

where the two circle-map parts are the invariant projections from
liealg.  The first Bianchi identity pins (c1, c2) = (2 kappa, n kappa);
CurvParams takes any (c1, c2) so the necessity of that pinning can be
exhibited by nonzero residuals.

Kernel.  On the standard basis R_A is one array indexed
[i, j, k, r] = (R(e_i, e_j) e_k)_r, so R(e_i, e_j) is tensor[i, j].T;
the Bianchi sum, the Ricci trace and primitive_row read it.
R_A = kappa T0 + (c1/4) T1 + (c2/2n) T2 for three kappa-free tensors
that matrices.einsum builds from the terms of the expanded formula (see
_parts) on the model's QArrays and A: exact for every kappa and every
rational A.  A tensor holds (4n)^4 entries, so callers keep it only as
long as they read it: a run computes R_A at the pinned parameters once
per basis element, for its Bianchi sum, its Ricci trace and its sparse
primitive row (the per-size pass of suites).  Every step is a QArray
operation, so matrices alone decides, from the bounds it carries,
whether a step runs in int64 or on Python ints; nothing here assumes a
bound.  The products J_a A, A^T w, A^T g_a and g_a A, and R_A itself,
take the bound of their values (the generic bound of `@` would carry a
factor 4n), so the kernel stays in int64 wherever the values allow it.
numpy is imported inside the functions, so importing this module does
not load it.

Rank.  One nonsingular dim g x dim g minor of the primitive rows of a
basis of g shows that all the rows have rank dim g, so A -> R_A is
injective.  minor_columns picks its columns mod a prime, an untrusted
search: a bad choice only makes the minor's exact rank fall short.  The
float SVD sees only the minor.

curvature_by_definition, ricci_closed_form, is_Q_hermitian and
curvature_map_rank_float never call the kernel: they are the second
paths the checks compare it against.  curvature_by_definition builds
the matrix R_A(x, y) as the definition above reads, from circle_so_star
and circle_sp1 of liealg, for any two vectors x and y; it shares no
step with the expanded formula of the kernel.

Hermiticity.  is_Q_hermitian tests J_a^T T J_a = T for a = 1, 2, 3 only,
and that decides invariance under every J_u = sum_a u_a J_a with u a
unit 3-vector.  Premise: each J_a is orthogonal and skew
(J_a^T = -J_a, J_a^2 = -Id), and J_1 J_2 = J_3, so the J_a anticommute.
Then J_a^T T J_a = T says J_a T = T J_a, so T commutes with every J_u,
and J_u^T T J_u = -J_u^2 T = |u|^2 T = T.  Each structure of a rotated
frame is such a J_u, so every witness already comes from a generator.
"""

from __future__ import annotations

from fractions import Fraction

from qsh_lab import matrices as mat
from qsh_lab.liealg import LieBasis, circle_so_star, circle_sp1
from qsh_lab.linmodel import FlatModel
from qsh_lab.matrices import QArray
from qsh_lab.record import FrozenRecord


class CurvParams(FrozenRecord):
    """Curvature coefficients.  kappa must be nonzero; c1 and c2 are free
    so that off-pinning behaviour can be tested."""

    __slots__ = ("kappa", "c1", "c2")

    def __init__(self, kappa, c1, c2):
        self._init(Fraction(kappa), Fraction(c1), Fraction(c2))
        if self.kappa == 0:
            raise ValueError("kappa must be nonzero")

    @staticmethod
    def pinned(kappa, n: int) -> "CurvParams":
        """The Bianchi-compatible coefficients c1 = 2k, c2 = nk."""
        k = Fraction(kappa)
        return CurvParams(kappa=k, c1=2 * k, c2=n * k)


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


def curvature_of(model: FlatModel, basis: LieBasis, a: QArray,
                 params: CurvParams) -> QArray:
    """R_A on all standard basis triples (see Kernel) for the matrix A = a.
    It does not test that a lies in g: membership is decompose's job."""
    # basis is unread: bench/spans.py's curvature_input_key fixes this arity
    t0, t1, t2 = _parts(model, a)
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


def is_Q_hermitian(model: FlatModel, t: QArray):
    """Check T(J_a x, J_a y) = T(x, y) for the three generators; by the
    lemma of the module docstring this decides the whole 2-sphere.

    Returns (True, None) or (False, witness) where the witness names the
    violating structure and the first violating basis pair.
    """
    import numpy as np

    for a, J in enumerate(model.J):
        lhs = J.T @ t @ J
        if not lhs == t:
            i, j = (int(x) for x in np.argwhere((lhs - t).values != 0)[0])
            return False, {"structure": f"J{a + 1}", "i": i, "j": j,
                           "lhs": lhs[i, j], "rhs": t[i, j]}
    return True, None


def primitive_row(tensor: QArray):
    """(positions, values) of the nonzero entries of R_A(e_i, e_j), i < j,
    flattened and divided by their gcd: up to sign the same row for every
    kappa, so no kappa makes it vanish mod p."""
    import numpy as np

    flat = tensor.values[np.triu_indices(len(tensor.values), 1)].ravel()
    values = flat[flat != 0]
    return np.flatnonzero(flat), values // (np.gcd.reduce(values) or 1)


def _minor(rows, columns) -> QArray:
    """The primitive rows restricted to `columns`, as one exact matrix."""
    import numpy as np

    out = np.zeros((len(rows), len(columns)), dtype=object)
    for row, (positions, values) in zip(out, rows):
        _, at, cols = np.intersect1d(positions, columns, assume_unique=True,
                                     return_indices=True)
        row[cols] = values[at]
    return QArray(out)


def minor_columns(rows) -> list:
    """Of the first 3 nonzero positions of each primitive row, the pivot
    columns mod a prime (see Rank)."""
    candidates = sorted({c for positions, _ in rows for c in positions[:3].tolist()})
    return [candidates[i] for i in mat.rank_mod_p(_minor(rows, candidates))]


def curvature_map_rank(rows, columns) -> int:
    """Exact rank of the minor of the primitive rows on `columns` (see Rank)."""
    return mat.rank(_minor(rows, columns))


def curvature_map_rank_float(rows, columns) -> int:
    """Float SVD rank of the same minor (singular values above 1e-8 times
    the largest).  It gets no model, so it cannot call the kernel."""
    import numpy as np

    svals = np.linalg.svd(_minor(rows, columns).values.astype(float), compute_uv=False)
    return int((svals > 1e-8 * svals[0]).sum()) if svals.size and svals[0] else 0

import random
from fractions import Fraction

import numpy as np

from qsh_lab import matrices as mat


def _random_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)]
            for _ in range(rows)]


def test_rref_rank_nullspace_consistency():
    rng = random.Random(1)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        r = mat.rank(m)
        basis = mat.nullspace(m)
        assert r + len(basis) == cols
        for v in basis:
            assert all(x == 0 for x in mat.mat_vec(m, v))
        # rank agrees with numpy on these small integer matrices
        np_rank = np.linalg.matrix_rank(np.array(m, dtype=float))
        assert r == np_rank


def test_solve_consistent_and_inconsistent():
    rng = random.Random(2)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = mat.mat_vec(m, x)
        sol = mat.solve(m, b)
        assert sol is not None
        assert mat.mat_vec(m, sol) == b
    # inconsistent system
    m = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert mat.solve(m, [Fraction(0), Fraction(1)]) is None


def test_signature_against_eigenvalue_counts():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 7)
        a = _random_matrix(rng, n, n)
        s = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        n_pos, n_neg, n_zero = mat.signature_symmetric(s)
        eig = np.linalg.eigvalsh(np.array(s, dtype=float))
        tol = 1e-9 * max(1.0, float(np.abs(eig).max()))
        assert n_pos == int((eig > tol).sum())
        assert n_neg == int((eig < -tol).sum())
        assert n_zero == n - n_pos - n_neg


def test_signature_zero_diagonal_block():
    # hyperbolic plane: diagonal is zero, needs the off-diagonal move
    s = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert mat.signature_symmetric(s) == (1, 1, 0)


def test_outer_bilinear_dot():
    u = [Fraction(1), Fraction(2)]
    v = [Fraction(3), Fraction(-1)]
    assert mat.outer(u, v) == [[3, -1], [6, -2]]
    m = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    assert mat.bilinear(m, u, v) == u[0] * v[1] - u[1] * v[0]
    assert mat.dot(u, v) == 1

import random
from fractions import Fraction

import numpy as np
import pytest

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


# Naive Fraction products: the reference the cleared-integer ones must match.

def _ref_mat_mul(a, b):
    return [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)),
                 Fraction(0)) for col in zip(*b)] for row in a]


def _ref_mat_vec(m, v):
    return [sum((Fraction(x) * Fraction(y) for x, y in zip(row, v)), Fraction(0))
            for row in m]


def _ref_bilinear(m, x, y):
    return sum((Fraction(xi) * e for xi, e in zip(x, _ref_mat_vec(m, y))),
               Fraction(0))


def _wide_rational(rng):
    return Fraction(rng.randint(-10 ** 13, 10 ** 13), rng.randint(1, 10 ** 13))


def _mixed(rng):
    """An int or a Fraction, zero about a third of the time."""
    kind = rng.randrange(3)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-5, 5)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 7))


def _all_fractions(values):
    return all(type(x) is Fraction for x in values)


def _check_products(a, b, v):
    prod = mat.mat_mul(a, b)
    assert prod == _ref_mat_mul(a, b)
    assert _all_fractions(mat.flatten(prod))
    image = mat.mat_vec(a, v)
    assert image == _ref_mat_vec(a, v)
    assert _all_fractions(image)


def _check_bilinear(m, x, y):
    value = mat.bilinear(m, x, y)
    assert value == _ref_bilinear(m, x, y)
    assert type(value) is Fraction


def test_products_match_fraction_reference_wide_rationals():
    # 13-digit numerators and denominators: the cleared operands hold
    # integers far outside the int64 range
    rng = random.Random(11)
    for _ in range(25):
        rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
        a = [[_wide_rational(rng) for _ in range(inner)] for _ in range(rows)]
        b = [[_wide_rational(rng) for _ in range(cols)] for _ in range(inner)]
        _check_products(a, b, [_wide_rational(rng) for _ in range(inner)])
        s = [[_wide_rational(rng) for _ in range(inner)] for _ in range(inner)]
        _check_bilinear(s, [_wide_rational(rng) for _ in range(inner)],
                        [_wide_rational(rng) for _ in range(inner)])


def test_products_mixed_int_and_fraction_entries():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = [[_mixed(rng) for _ in range(n)] for _ in range(n)]
        b = [[_mixed(rng) for _ in range(n)] for _ in range(n)]
        _check_products(a, b, [_mixed(rng) for _ in range(n)])
        _check_bilinear(a, [_mixed(rng) for _ in range(n)],
                        [_mixed(rng) for _ in range(n)])
    # all-int operands still give Fraction entries
    ints = [[1, 2], [3, 4]]
    assert mat.mat_mul(ints, ints) == [[7, 10], [15, 22]]
    _check_products(ints, ints, [1, -1])
    _check_bilinear(ints, [1, 0], [0, 1])


def test_products_zero_and_degenerate_shapes():
    zero = mat.zeros(3, 3)
    v = [Fraction(1, 3), Fraction(-2), Fraction(5, 7)]
    assert mat.mat_mul(zero, zero) == zero
    assert _all_fractions(mat.flatten(mat.mat_mul(zero, zero)))
    assert mat.mat_vec(zero, v) == [0, 0, 0]
    assert _all_fractions(mat.mat_vec(zero, v))
    assert mat.bilinear(zero, v, v) == 0
    assert type(mat.bilinear(zero, v, v)) is Fraction
    # 1 x 1
    one = [[Fraction(3, 4)]]
    assert mat.mat_mul(one, [[Fraction(2, 3)]]) == [[Fraction(1, 2)]]
    assert mat.mat_vec(one, [Fraction(4)]) == [Fraction(3)]
    assert mat.bilinear(one, [Fraction(2)], [Fraction(1, 3)]) == Fraction(1, 2)
    # 0 rows
    assert mat.mat_mul([], [[Fraction(1)]]) == []
    assert mat.mat_vec([], [Fraction(1)]) == []
    assert mat.bilinear([], [], []) == 0
    assert type(mat.bilinear([], [], [])) is Fraction


def test_products_reject_float_entries():
    m = [[Fraction(1), 0.5], [Fraction(0), Fraction(1)]]
    good = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    v = [Fraction(1), Fraction(2)]
    with pytest.raises(TypeError, match="float"):
        mat.mat_mul(m, good)
    with pytest.raises(TypeError, match="float"):
        mat.mat_mul(good, m)
    with pytest.raises(TypeError, match="float"):
        mat.mat_vec(m, v)
    with pytest.raises(TypeError, match="float"):
        mat.mat_vec(good, [Fraction(1), 2.0])
    with pytest.raises(TypeError, match="float"):
        mat.bilinear(good, [0.25, Fraction(1)], v)
    with pytest.raises(TypeError, match="float"):
        mat.bilinear(good, v, [Fraction(1), 1e-3])

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsh_lab import matrices as mat
from qsh_lab.matrices import QArray


def _random_matrix(rng, rows, cols, lo=-4, hi=4):
    return QArray.of([[Fraction(rng.randint(lo, hi)) for _ in range(cols)]
                      for _ in range(rows)])


def _vector(values):
    return QArray.of(values)


def test_rref_rank_nullspace_consistency():
    rng = random.Random(1)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        r = mat.rank(m)
        basis = mat.nullspace(m)
        assert basis.shape == (cols - r, cols)
        for v in basis:
            assert (m @ v).max_abs() == 0
        # rank agrees with numpy on these small integer matrices
        np_rank = np.linalg.matrix_rank(np.array(m.values, dtype=float))
        assert r == np_rank


def test_solve_consistent_and_inconsistent():
    rng = random.Random(2)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        x = _vector([Fraction(rng.randint(-3, 3)) for _ in range(cols)])
        b = m @ x
        sol = mat.solve(m, b)
        assert sol is not None
        assert m @ sol == b
    # rational scales on both sides
    m = QArray.of([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert mat.solve(m, _vector([Fraction(1, 5), 1])) == _vector([Fraction(2, 5), 3])
    # inconsistent system
    m = QArray.of([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]])
    assert mat.solve(m, _vector([Fraction(0), Fraction(1)])) is None


def test_signature_against_eigenvalue_counts():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 7)
        a = _random_matrix(rng, n, n)
        s = a + a.T
        n_pos, n_neg, n_zero = mat.signature_symmetric(s)
        eig = np.linalg.eigvalsh(np.array(s.values, dtype=float))
        tol = 1e-9 * max(1.0, float(np.abs(eig).max()))
        assert n_pos == int((eig > tol).sum())
        assert n_neg == int((eig < -tol).sum())
        assert n_zero == n - n_pos - n_neg


def test_signature_of_singular_matrices():
    # the multiplicity of the root 0 is counted apart from the sign changes
    rng = random.Random(4)
    v, w = (QArray.of([Fraction(rng.randint(-3, 3)) for _ in range(5)])
            for _ in range(2))
    u = QArray.of([Fraction(1), Fraction(-2), Fraction(0), Fraction(3)])
    cases = [v[:, None] @ v[None, :] - w[:, None] @ w[None, :],
             QArray.of([[Fraction(0)] * 4] * 4),
             u[:, None] @ u[None, :] * Fraction(1, 7)]
    for s in cases:
        values = np.array(s.values, dtype=float) / s.scale
        eig = np.linalg.eigvalsh(values)
        tol = 1e-9 * max(1.0, float(np.abs(eig).max()))
        counts = (int((eig > tol).sum()), int((eig < -tol).sum()),
                  int((abs(eig) <= tol).sum()))
        assert mat.signature_symmetric(s) == counts
    assert [mat.signature_symmetric(s) for s in cases] == \
        [(1, 1, 3), (0, 0, 4), (1, 0, 3)]


def test_signature_zero_diagonal_block():
    # hyperbolic plane: diagonal is zero, needs the off-diagonal move
    s = QArray.of([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert mat.signature_symmetric(s) == (1, 1, 0)
    assert mat.signature_symmetric(s * Fraction(1, 7)) == (1, 1, 0)


def test_outer_bilinear_dot():
    # outer products, bilinear forms and dot products are all `@`
    u = _vector([Fraction(1), Fraction(2)])
    v = _vector([Fraction(3), Fraction(-1)])
    assert u[:, None] @ v[None, :] == QArray.of([[3, -1], [6, -2]])
    m = QArray.of([[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    assert u @ m @ v == u[0] * v[1] - u[1] * v[0]
    assert u @ v == 1
    assert type(u @ v) is Fraction


# Naive Fraction products on nested lists: the reference QArray must match.

def _ref_mat_mul(a, b):
    return [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)),
                 Fraction(0)) for col in zip(*b)] for row in a]


def _ref_mat_vec(m, v):
    return [sum((Fraction(x) * Fraction(y) for x, y in zip(row, v)), Fraction(0))
            for row in m]


def _ref_bilinear(m, x, y):
    return sum((Fraction(xi) * e for xi, e in zip(x, _ref_mat_vec(m, y))),
               Fraction(0))


def _entries(q):
    """The exact entries of a QArray, as nested lists of Fraction."""
    if q.values.ndim == 1:
        return list(q)
    return [_entries(row) for row in q]


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


def _check_values(q):
    """int64 under a bound below 2^63, else Python ints; the bound holds."""
    assert type(q.bound) is int
    assert all(abs(int(x)) <= q.bound for x in q.values.flat)
    if q.bound < 2 ** 63:
        assert q.values.dtype == np.int64
    else:
        assert q.values.dtype == object
        assert all(type(x) is int for x in q.values.flat)


def _check_of(nested):
    q = QArray.of(nested)
    assert q.scale > 0
    _check_values(q)
    assert not q.values.flags.writeable
    assert _entries(q) == [[Fraction(x) for x in row] for row in nested]
    assert all(type(x) is Fraction for row in _entries(q) for x in row)
    return q


def _check_products(a, b, v):
    qa, qb, qv = _check_of(a), _check_of(b), QArray.of(v)
    assert _entries(qa @ qb) == _ref_mat_mul(a, b)
    assert (qa @ qb).scale == qa.scale * qb.scale
    assert _entries(qa @ qv) == _ref_mat_vec(a, v)
    # sums over the lcm of the scales, products by int and Fraction
    assert _entries(qa @ qb + qa @ qb) == _ref_mat_mul(a, [[2 * x for x in row]
                                                           for row in b])
    assert _entries(qa - qa) == [[0] * len(a[0]) for _ in a]
    c = Fraction(-3, 7)
    assert _entries(qa * c) == [[c * x for x in row] for row in a]
    assert _entries(c * qa) == [[c * x for x in row] for row in a]
    assert _entries(qa.T) == [list(col) for col in zip(*a)]


def _check_bilinear(m, x, y):
    value = QArray.of(x) @ QArray.of(m) @ QArray.of(y)
    assert value == _ref_bilinear(m, x, y)
    assert type(value) is Fraction


def test_products_match_fraction_reference_wide_rationals():
    # 13-digit numerators and denominators: the integer values hold
    # numbers far outside the int64 range
    rng = random.Random(11)
    for _ in range(25):
        rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
        a = [[_wide_rational(rng) for _ in range(inner)] for _ in range(rows)]
        b = [[_wide_rational(rng) for _ in range(cols)] for _ in range(inner)]
        _check_products(a, b, [_wide_rational(rng) for _ in range(inner)])
        s = [[_wide_rational(rng) for _ in range(inner)] for _ in range(inner)]
        _check_bilinear(s, [_wide_rational(rng) for _ in range(inner)],
                        [_wide_rational(rng) for _ in range(inner)])
        assert QArray.of(a).max_abs() == max(abs(x) for row in a for x in row)


def test_products_mixed_int_and_fraction_entries():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = [[_mixed(rng) for _ in range(n)] for _ in range(n)]
        b = [[_mixed(rng) for _ in range(n)] for _ in range(n)]
        _check_products(a, b, [_mixed(rng) for _ in range(n)])
        _check_bilinear(a, [_mixed(rng) for _ in range(n)],
                        [_mixed(rng) for _ in range(n)])
        qa = QArray.of(a)
        assert qa.trace() == sum((Fraction(a[i][i]) for i in range(n)), Fraction(0))
        assert type(qa.trace()) is Fraction
    # all-int operands have scale 1 and still read out Fractions
    ints = [[1, 2], [3, 4]]
    assert QArray.of(ints).scale == 1
    assert QArray.of(ints) @ QArray.of(ints) == QArray.of([[7, 10], [15, 22]])
    _check_products(ints, ints, [1, -1])
    _check_bilinear(ints, [1, 0], [0, 1])


def test_products_zero_and_degenerate_shapes():
    zero = QArray.of([[0] * 3] * 3)
    v = QArray.of([Fraction(1, 3), Fraction(-2), Fraction(5, 7)])
    assert zero @ zero == zero
    assert zero @ v == QArray.of([0, 0, 0])
    assert v @ zero @ v == 0
    assert type(v @ zero @ v) is Fraction
    assert zero.max_abs() == 0 and type(zero.max_abs()) is Fraction
    # equality is by value at any scale
    assert v * 2 == QArray.of([Fraction(2, 3), Fraction(-4), Fraction(10, 7)])
    assert v * 7 * Fraction(1, 7) == v and (v * 7 * Fraction(1, 7)).scale != v.scale
    assert v != v * 2 and v != QArray.of([[0] * 3])
    # 1 x 1
    one = QArray.of([[Fraction(3, 4)]])
    assert one @ QArray.of([[Fraction(2, 3)]]) == QArray.of([[Fraction(1, 2)]])
    assert one @ QArray.of([Fraction(4)]) == QArray.of([Fraction(3)])
    assert QArray.of([2]) @ one @ QArray.of([Fraction(1, 3)]) == Fraction(1, 2)
    assert one[0, 0] == Fraction(3, 4) and type(one[0, 0]) is Fraction
    assert one.trace() == Fraction(3, 4)
    # empty
    empty = QArray.of([])
    assert empty.shape == (0,) and empty.scale == 1
    assert empty @ empty == 0
    assert type(empty @ empty) is Fraction
    assert empty.max_abs() == 0
    assert QArray.of([[1]])[:0].shape == (0, 1)


def test_products_reject_float_entries():
    with pytest.raises(TypeError, match="float"):
        QArray.of([[Fraction(1), 0.5], [Fraction(0), Fraction(1)]])
    with pytest.raises(TypeError, match="float"):
        QArray.of([Fraction(1), 2.0])
    with pytest.raises(TypeError, match="float"):
        QArray.of([[0.25]])
    good = QArray.of([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    with pytest.raises(TypeError):
        good * 0.5
    with pytest.raises(TypeError):
        good + 1e-3
    with pytest.raises(TypeError):
        good @ np.eye(2)
    with pytest.raises(TypeError):  # no entrywise product: contract with `@`
        good * good
    with pytest.raises(ValueError):
        good.values[0, 0] = 2  # read-only


# Entries near 2^31 and near the int64 edges of a product of k terms, so
# that results fall on both sides of 2^63: every operation must still be
# exact, and its values int64 exactly when the bound it carries allows.

_LIMIT = 2 ** 63


def _near_edges(k):
    centres = (2 ** 31, math.isqrt(_LIMIT // k), _LIMIT // k, _LIMIT)
    return st.builds(lambda c, d, sign: sign * (c + d), st.sampled_from(centres),
                     st.integers(-2, 2), st.sampled_from((1, -1)))


def _edge_entries(k):
    ints = st.integers(-3, 3) | _near_edges(k)
    return ints | st.builds(Fraction, ints, st.integers(1, 4))


def _exact_read_out(x):
    return (type(x) is Fraction and type(x.numerator) is int
            and type(x.denominator) is int)


def _check_result(q, reference):
    _check_values(q)
    entries = _entries(q)
    assert entries == reference
    assert all(_exact_read_out(x) for row in entries for x in row)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_products_exact_across_the_int64_edge(data):
    k, rows, cols = (data.draw(st.integers(1, 3)) for _ in range(3))
    entries = _edge_entries(k)
    a, c = ([[data.draw(entries) for _ in range(k)] for _ in range(rows)]
            for _ in range(2))
    b = [[data.draw(entries) for _ in range(cols)] for _ in range(k)]
    n = data.draw(st.integers(-3, 3) | _near_edges(k))
    f = data.draw(st.builds(Fraction, st.integers(-3, 3) | _near_edges(k),
                            st.integers(1, 4)))
    u = [[data.draw(entries) for _ in range(rows)] for _ in range(3)]
    fa, fc = ([[Fraction(x) for x in row] for row in m] for m in (a, c))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qa, qb, qc = QArray.of(a), QArray.of(b), QArray.of(c)
        qu = QArray.of(u)
        _check_result(qa + qc, [[x + y for x, y in zip(r, s)] for r, s in zip(fa, fc)])
        _check_result(qa - qc, [[x - y for x, y in zip(r, s)] for r, s in zip(fa, fc)])
        _check_result(qa @ qb, _ref_mat_mul(a, b))
        _check_result(qa * n, [[x * n for x in row] for row in fa])
        _check_result(qa * f, [[x * f for x in row] for row in fa])
        _check_result(qa.kron(qb), [[x * Fraction(y) for x in ra for y in rb]
                                    for ra in fa for rb in b])
        # sums of squares: every term of a diagonal entry has one sign;
        # qu.T @ qu contracts a leading axis, as curvature._pair does
        _check_result(qu.T @ qu, _ref_mat_mul(list(zip(*u)), u))
        square = qa @ qa.T
        _check_result(square, _ref_mat_mul(a, list(zip(*a))))
        trace = square.trace()
        assert _exact_read_out(trace)
        assert trace == sum((x * x for row in fa for x in row), Fraction(0))
        top = qa.max_abs()
        assert _exact_read_out(top)
        assert top == max(abs(x) for row in fa for x in row)
        assert (qa == qc) == (fa == fc)
        assert (qa * f == qa) == all(x * f == x for row in fa for x in row)
        if f:
            assert qa * f * (1 / f) == qa  # equal at another scale


def test_wrapping_leaves_the_callers_array_writeable():
    a = np.arange(6, dtype=np.int64).reshape(2, 3)
    q = QArray(a)
    a[0] = 1
    assert a[0].tolist() == [1, 1, 1]
    assert q.values[0].tolist() == [1, 1, 1]  # a view: the values follow
    with pytest.raises(ValueError):
        q.values[0, 0] = 2  # read-only
    wide = np.array([2 ** 63, 1], dtype=object)
    QArray(wide)
    wide[1] = 5  # converted, so a copy is frozen


def _reference_rref(rows):
    """Gauss-Jordan elimination over Fraction: the first nonzero entry in
    lexicographic column order is the pivot."""
    r = [[Fraction(x) for x in row] for row in rows]
    pivots, pr = [], 0
    for pc in range(len(r[0]) if r else 0):
        if pr == len(r):
            break
        pivot_row = next((i for i in range(pr, len(r)) if r[i][pc] != 0), None)
        if pivot_row is None:
            continue
        r[pr], r[pivot_row] = r[pivot_row], r[pr]
        inv = 1 / r[pr][pc]
        r[pr] = [x * inv for x in r[pr]]
        for i in range(len(r)):
            if i != pr and r[i][pc] != 0:
                f = r[i][pc]
                r[i] = [x - f * y for x, y in zip(r[i], r[pr])]
        pivots.append(pc)
        pr += 1
    return r, pivots


_RREF_ENTRIES = (st.integers(-3, 3)
                 | st.builds(lambda d, sign: sign * (2 ** 40 + d),
                             st.integers(-3, 3), st.sampled_from((1, -1))))


@st.composite
def _rref_cases(draw):
    """Tall, wide and square integer matrices, some of them rank-deficient
    (a row that is a combination of two others), as int64 or object."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    m = [[draw(_RREF_ENTRIES) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m, draw(st.sampled_from((np.int64, object)))


@settings(max_examples=200, deadline=None)
@given(case=_rref_cases())
def test_rref_matches_elimination_over_fraction(case):
    m, dtype = case
    # a carried bound of 2^63 keeps object values however small they are
    q = QArray(np.array(m, dtype=dtype), 1, None if dtype is np.int64 else 2 ** 63)
    assert q.values.dtype == np.dtype(dtype)
    r, pivots = mat.rref(q)
    assert (r, pivots) == _reference_rref(m)
    assert all(type(x) is Fraction for row in r for x in row)
    assert mat.rank(q) == len(pivots)


def _reference_pivots_mod_p(rows, p):
    """The pivot columns of Gauss-Jordan elimination over the integers mod
    p, on Python ints."""
    r = [[x % p for x in row] for row in rows]
    pivots = []
    for pc in range(len(r[0]) if r else 0):
        pr = len(pivots)
        pivot_row = next((i for i in range(pr, len(r)) if r[i][pc]), None)
        if pivot_row is None:
            continue
        r[pr], r[pivot_row] = r[pivot_row], r[pr]
        inv = pow(r[pr][pc], -1, p)
        for i in range(len(r)):
            if i != pr and r[i][pc]:
                f = r[i][pc] * inv
                r[i] = [(x - f * y) % p for x, y in zip(r[i], r[pr])]
        pivots.append(pc)
    return pivots


def _hadamard_bound_squared(rows):
    """The square of Hadamard's bound, the product of the squared norms of
    the nonzero rows: it bounds the square of every minor."""
    return math.prod(s for s in (sum(x * x for x in row) for row in rows) if s)


@settings(max_examples=200, deadline=None)
@given(case=_rref_cases(), p=st.sampled_from((2, 3, 7, 2147483629)))
def test_rank_mod_p_matches_rank(case, p):
    m, dtype = case
    q = QArray(np.array(m, dtype=dtype), 1, None if dtype is np.int64 else 2 ** 63)
    pivots = mat.rank_mod_p(q, p)
    assert pivots == _reference_pivots_mod_p(m, p)
    assert len(pivots) <= mat.rank(q)
    if _hadamard_bound_squared(m) < p * p:  # p divides no nonzero minor
        assert pivots == mat.rref(q)[1]


def test_rank_mod_p_at_the_int64_edge():
    p = 2147483629
    # residues p - 1, whose products come closest to 2^62
    edge = [[p - 1, p - 1, 1, p - 1], [1, p - 1, p - 1, 2], [p - 1, 1, p - 1, p - 2]]
    # 2^70 and 5 * 2^70 + p are Python ints, reduced mod p before the cast:
    # rank 1 mod p, though the determinant -3p makes the rank over Q 2
    wide = [[2 ** 70, 3], [5 * 2 ** 70 + p, 15]]
    # 2^32 past p, whose unreduced square leaves int64
    tall = [[2 ** 32, 0], [2 ** 32, 0]]
    cases = [(edge, np.int64), (edge, object), (wide, object), (tall, np.int64),
             (tall, object)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows, dtype in cases:
            # a carried bound of 2^63 keeps object values however small they are
            q = QArray(np.array(rows, dtype=dtype), 1,
                       None if dtype is np.int64 else 2 ** 63)
            assert q.values.dtype == np.dtype(dtype)
            assert mat.rank_mod_p(q) == _reference_pivots_mod_p(rows, p)
    assert mat.rank_mod_p(QArray.of(edge)) == [0, 1, 2]
    assert mat.rank_mod_p(QArray.of(wide)) == [0] and mat.rank(QArray.of(wide)) == 2
    assert mat.rank_mod_p(QArray.of(tall)) == [0] == mat.rref(QArray.of(tall))[1]
    # p itself is 0 mod p
    assert mat.rank_mod_p(QArray.of([[p]])) == [] and mat.rank(QArray.of([[p]])) == 1

"""Exact linear algebra on lists of Fraction.

Matrices are lists of row lists and are treated as immutable by
convention.  Entries may be int or Fraction; a float raises TypeError
instead of being rounded.

Products (mat_mul, mat_vec, bilinear) run on cleared integers: each
operand is brought once to (d, d * m), where d is the lcm of its
denominators and d * m has int entries, the sums of products are
plain int arithmetic, and each output entry is one
Fraction(total, product of the d).  Python ints never overflow, so this
is exact for every rational input, and every output entry is a
Fraction.

Reduction uses plain Gaussian elimination with the first nonzero entry
in lexicographic column order as pivot, so echelon forms, nullspace
bases and therefore every exported basis are reproducible
byte-for-byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul


def zeros(rows: int, cols: int):
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, m):
    return [[c * x for x in row] for row in m]


def _denominator(entries) -> int:
    """The lcm of the denominators of int or Fraction entries."""
    try:
        return lcm(*(x.denominator for x in entries))
    except AttributeError:
        bad = next(x for x in entries if not hasattr(x, "denominator"))
        raise TypeError(f"exact entries must be int or Fraction, "
                        f"not {type(bad).__name__}") from None


def _scaled(v, d: int):
    """d * v as ints, for a multiple d of every denominator in v."""
    if d == 1:
        return [x.numerator for x in v]
    return [x.numerator * (d // x.denominator) for x in v]


def cleared(m):
    """(d, rows): d is the lcm of the denominators of m and rows = d * m
    as lists of ints."""
    d = _denominator([x for row in m for x in row])
    return d, [_scaled(row, d) for row in m]


def mat_mul(a, b):
    da, ia = cleared(a)
    db, ib = cleared(b)
    d = da * db
    cols = list(zip(*ib))
    return [[Fraction(sum(map(mul, row, col)), d) for col in cols] for row in ia]


def mat_vec(m, v):
    dm, im = cleared(m)
    dv = _denominator(v)
    iv = _scaled(v, dv)
    d = dm * dv
    return [Fraction(sum(map(mul, row, iv)), d) for row in im]


def outer(u, v):
    """Rank-one matrix u v^T."""
    return [[x * y for y in v] for x in u]


def bilinear(m, x, y):
    """x^T m y."""
    dm, im = cleared(m)
    dx, dy = _denominator(x), _denominator(y)
    iy = _scaled(y, dy)
    total = sum(xi * sum(map(mul, row, iy))
                for xi, row in zip(_scaled(x, dx), im) if xi)
    return Fraction(total, dm * dx * dy)


def max_abs(m) -> Fraction:
    return max((abs(x) for row in m for x in row), default=Fraction(0))


def vec_max_abs(v):
    return max((abs(x) for x in v), default=Fraction(0))


def flatten(m):
    return [x for row in m for x in row]


def rref(m):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    r = [[Fraction(x) for x in row] for row in m]
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot_row = None
        for i in range(pr, rows):
            if r[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        r[pr], r[pivot_row] = r[pivot_row], r[pr]
        inv = 1 / r[pr][pc]
        r[pr] = [x * inv for x in r[pr]]
        for i in range(rows):
            if i != pr and r[i][pc] != 0:
                f = r[i][pc]
                r[i] = [x - f * y for x, y in zip(r[i], r[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return r, pivots


def rank(m) -> int:
    if not m or not m[0]:
        return 0
    _, pivots = rref(m)
    return len(pivots)


def nullspace(m):
    """Basis of {x : m x = 0}, one vector per free column, in column order."""
    if not m:
        return []
    cols = len(m[0])
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][f]
        basis.append(v)
    return basis


def solve(m, b):
    """One exact solution of m x = b, or None when inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    aug = [list(map(Fraction, m[i])) + [Fraction(b[i])] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][cols]
    return x


def signature_symmetric(s):
    """Signature (n_plus, n_minus, n_zero) of a symmetric matrix.

    Congruence (Lagrange) reduction with symmetric pivot search: take the
    first nonzero diagonal entry; if the diagonal of the active block is
    all zero, a row+column addition moves a nonzero off-diagonal entry
    onto the diagonal.  Exact, no eigenvalue tolerances.
    """
    n = len(s)
    m = [[Fraction(x) for x in row] for row in s]
    active = list(range(n))
    n_pos = n_neg = 0
    while active:
        pivot = None
        for k in active:
            if m[k][k] != 0:
                pivot = k
                break
        if pivot is None:
            moved = False
            for ii, i in enumerate(active):
                for j in active[ii + 1:]:
                    if m[i][j] != 0:
                        for c in range(n):
                            m[i][c] += m[j][c]
                        for r_ in range(n):
                            m[r_][i] += m[r_][j]
                        pivot = i
                        moved = True
                        break
                if moved:
                    break
            if pivot is None:
                break  # active block is zero
        d = m[pivot][pivot]
        if d > 0:
            n_pos += 1
        else:
            n_neg += 1
        active.remove(pivot)
        for r_ in active:
            f = m[r_][pivot] / d
            if f != 0:
                for c in range(n):
                    m[r_][c] -= f * m[pivot][c]
                for c in range(n):
                    m[c][r_] -= f * m[c][pivot]
    n_zero = n - n_pos - n_neg
    return n_pos, n_neg, n_zero


def dot(u, v):
    return sum(x * y for x, y in zip(u, v) if x and y)

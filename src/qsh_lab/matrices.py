"""Exact linear algebra: one array type and Gaussian elimination.

QArray is the only exact matrix and vector representation of the linear
stack (linmodel, liealg, curvature and their suites).  It holds a
read-only integer numpy array `values`, a positive int `scale` and an
int `bound` >= max |values|, and stands for values / scale.  Every
structure matrix and every enumerated basis element of the flat model
has entries in {0, +-1}, so scales stay small and products are plain
integer arithmetic: `@` and kron multiply the scales, `+` and `-`
bring both operands over the lcm of their scales (factors fa, fb), and
`*` by a Fraction multiplies the scale by its denominator.  Each
operation first computes its result's bound in Python ints, one rule a
product: a.bound fa + b.bound fb for a sum, a.bound b.bound k for `@`
over k terms (which also bounds every partial sum), bound |c| for `*`
by c, a.bound b.bound for kron, and bound n for a trace of n terms;
transposes, reshapes, indexing and negation keep it.  The values are
int64 exactly when the bound is below 2^63, and an operation runs in
int64 only when its result bound, its operands' bounds and its int
factors are; otherwise it runs on Python ints (dtype=object), which
never overflow.  No other module makes that choice, so every operation
is exact for every rational input, whatever numpy's integer promotion.
A scalar read-out (an entry, a vector.matrix.vector product, a trace,
max_abs) is a Fraction of Python ints; no other QArray operation
reduces by a gcd.  QArray(values) freezes a converted copy or a view of
`values`, never the caller's array itself.  A float entry raises
TypeError instead of being rounded.  numpy is imported inside the
functions that need it, so importing this module does not load it.

Reduction (rref, rank, rank_mod_p, nullspace, solve) alone leaves
QArray.  A positive scale changes no echelon form, so rref reads the
integer rows of its argument as Python ints and runs Gauss-Jordan
elimination on them, fraction-free: with pivot p in the pivot row,
every other row with f in the pivot column becomes p row - f pivot_row,
divided by the gcd of its entries.  Each such row is a nonzero multiple
of the row that elimination over Fraction reaches, so the pivot (the
first nonzero entry in lexicographic column order), the echelon form
and therefore nullspace bases and every exported basis are the same,
byte for byte; Fractions are made only at the end, when each pivot row
is divided by its pivot.  signature_symmetric stays on QArray: its
characteristic polynomial takes one `@` and one trace a step, and the
bound is read off the values after each step, because the carried bound
of the recurrence outgrows its coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

INT64_LIMIT = 2 ** 63  # int64 holds every int of smaller magnitude


def magnitude(values) -> int:
    """max |entry| of an integer array as a Python int, 0 when empty."""
    return max(int(values.max()), -int(values.min())) if values.size else 0


def operands(bound: int, *arrays: "QArray"):
    """The values of the arrays in int64 when `bound` is below 2^63, else
    as Python ints.  `bound` must cover every operand's bound and every
    entry, partial sum and factor of the computation."""
    if bound < INT64_LIMIT:
        return [a.values for a in arrays]
    return [a.values.astype(object) for a in arrays]


@cache
def _int64():
    import numpy as np

    return np.dtype(np.int64)


class QArray:
    """values / scale, for an integer array `values`, an int scale > 0 and
    an int bound >= max |values|, read off the values when not given."""

    __slots__ = ("values", "scale", "bound")
    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __init__(self, values, scale: int = 1, bound: int | None = None):
        if bound is None:
            bound = magnitude(values)
        dtype = _int64() if bound < INT64_LIMIT else object
        values = values.astype(dtype) if values.dtype != dtype else values.view()
        values.flags.writeable = False
        self.values = values
        self.scale = scale
        self.bound = bound

    @classmethod
    def of(cls, nested) -> "QArray":
        """The array of nested lists of int or Fraction entries."""
        import numpy as np

        entries = np.array(nested, dtype=object)
        flat = entries.ravel().tolist()
        try:
            scale = lcm(*(x.denominator for x in flat))
        except AttributeError:
            bad = next(x for x in flat if not hasattr(x, "denominator"))
            raise TypeError(f"exact entries must be int or Fraction, "
                            f"not {type(bad).__name__}") from None
        ints = [x.numerator * (scale // x.denominator) for x in flat]
        bound = max(map(abs, ints), default=0)
        values = np.array(ints, dtype=np.int64 if bound < INT64_LIMIT else object)
        return cls(values.reshape(entries.shape), scale, bound)

    @classmethod
    def eye(cls, n: int) -> "QArray":
        import numpy as np

        return cls(np.eye(n, dtype=np.int64), 1, 1)

    def kron(self, other: "QArray") -> "QArray":
        import numpy as np

        bound = self.bound * other.bound
        a, b = operands(max(bound, self.bound, other.bound), self, other)
        return QArray(np.kron(a, b), self.scale * other.scale, bound)

    def _wrap(self, values, scale: int, bound: int):
        if not getattr(values, "ndim", 0):  # an int or a numpy integer
            return Fraction(int(values), scale)
        return QArray(values, scale, bound)

    def _common(self, other: "QArray"):
        """Both value arrays over the lcm of the two scales, that scale,
        and a bound of their sum."""
        s = lcm(self.scale, other.scale)
        fa, fb = s // self.scale, s // other.scale
        bound = self.bound * fa + other.bound * fb  # >= both operand bounds
        a, b = operands(max(bound, fa, fb), self, other)
        return (a * fa if fa > 1 else a), (b * fb if fb > 1 else b), s, bound

    def __add__(self, other):
        if not isinstance(other, QArray):
            return NotImplemented
        a, b, s, bound = self._common(other)
        return QArray(a + b, s, bound)

    def __radd__(self, other):
        # sum() starts from the int 0
        return self if other == 0 else NotImplemented

    def __sub__(self, other):
        if not isinstance(other, QArray):
            return NotImplemented
        a, b, s, bound = self._common(other)
        return QArray(a - b, s, bound)

    def __neg__(self):
        return QArray(-self.values, self.scale, self.bound)

    def __mul__(self, c):
        if isinstance(c, Fraction):
            scale, c = self.scale * c.denominator, c.numerator
        elif isinstance(c, int):
            scale = self.scale
        else:
            return NotImplemented
        if c == 1:
            return QArray(self.values, scale, self.bound)
        bound = self.bound * abs(c)
        (a,) = operands(max(bound, self.bound, abs(c)), self)
        return QArray(a * c, scale, bound)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, QArray):
            return NotImplemented
        bound = self.bound * other.bound * self.values.shape[-1]
        a, b = operands(max(bound, self.bound, other.bound), self, other)
        return self._wrap(a @ b, self.scale * other.scale, bound)

    def __eq__(self, other):
        if not isinstance(other, QArray):
            return NotImplemented
        if self.values.shape != other.values.shape:
            return False
        a, b, _, _ = self._common(other)
        return bool((a == b).all())

    __hash__ = None

    def __getitem__(self, key):
        return self._wrap(self.values[key], self.scale, self.bound)

    def __iter__(self):
        return (self[i] for i in range(len(self.values)))

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"QArray({self.values.tolist()!r}, scale={self.scale})"

    @property
    def shape(self):
        return self.values.shape

    @property
    def T(self) -> "QArray":
        """The transpose of a matrix, or of each matrix of a stack."""
        if self.values.ndim < 2:
            return self
        return QArray(self.values.swapaxes(-1, -2), self.scale, self.bound)

    def transpose(self, *axes) -> "QArray":
        return QArray(self.values.transpose(*axes), self.scale, self.bound)

    def reshape(self, *shape) -> "QArray":
        return QArray(self.values.reshape(*shape), self.scale, self.bound)

    def trace(self) -> Fraction:
        (a,) = operands(max(self.bound * min(self.shape), self.bound), self)
        return Fraction(int(a.trace()), self.scale)

    def max_abs(self) -> Fraction:
        return Fraction(magnitude(self.values), self.scale)


def rref(m: QArray):
    """Reduced row echelon form of the rows of m (a 2-d QArray): returns
    (R as rows of Fraction, pivot_columns)."""
    r = m.values.tolist()  # Python ints
    rows, cols = m.shape
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        pivot_row = next((i for i in range(pr, rows) if r[i][pc]), None)
        if pivot_row is None:
            continue
        r[pr], r[pivot_row] = r[pivot_row], r[pr]
        top = r[pr]
        p = top[pc]
        for i in range(rows):
            f = r[i][pc]
            if i != pr and f:
                row = [p * x - f * y for x, y in zip(r[i], top)]
                g = gcd(*row) or 1
                r[i] = [x // g for x in row]
        pivots.append(pc)
        pr += 1
    return ([[Fraction(x, row[pc]) for x in row] for row, pc in zip(r, pivots)]
            + [[Fraction(x) for x in row] for row in r[pr:]]), pivots


def rank(m: QArray) -> int:
    return len(rref(m)[1])


def rank_mod_p(m: QArray, p: int = 2147483629) -> list:
    """Pivot columns of the rows of m mod the prime p < 2^31, by elimination
    in int64 on entries reduced into [0, p) (Python ints before the cast),
    so every product is below 2^62.  Their number, the rank mod p, is at
    most the rank over Q, and equal to it when p exceeds Hadamard's bound."""
    import numpy as np

    r, pivots = (m.values % p).astype(np.int64), []
    for pc in range(m.shape[1]):
        nonzero = np.flatnonzero(r[:, pc])
        if nonzero.size:  # eliminate column pc by the first row that has it
            top = r[nonzero[0]] * pow(int(r[nonzero[0], pc]), -1, p) % p
            r = np.delete(r, nonzero[0], axis=0)
            r = (r - np.outer(r[:, pc], top) % p) % p
            pivots.append(pc)
    return pivots


def nullspace(m: QArray) -> QArray:
    """Basis of {x : m x = 0} as the rows of a QArray, one vector per free
    column, in column order."""
    cols = m.shape[1]
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
    return QArray.of(basis).reshape(len(basis), cols)


def solve(m: QArray, b: QArray):
    """One exact solution of m x = b as a QArray, or None when
    inconsistent."""
    import numpy as np

    cols = m.shape[1]
    # both sides times m.scale * b.scale
    r, pivots = rref(QArray(np.column_stack([(m * b.scale).values,
                                             (b * m.scale).values])))
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][cols]
    return QArray.of(x)


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def signature_symmetric(s: QArray):
    """Signature (n_plus, n_minus, n_zero) of a symmetric matrix.

    The Faddeev-LeVerrier recurrence gives the characteristic polynomial
    p(x) = x^n + c_1 x^(n-1) + ... + c_n exactly.  Every root of p is
    real, so Descartes' rule of signs counts the roots exactly: n_plus is
    the number of sign changes of p(x), n_minus that of p(-x), and n_zero
    the multiplicity of the root 0.
    """
    n = len(s)
    eye, am, c = QArray.eye(n), s * 0, Fraction(1)
    coeffs = [c]  # c_0 = 1, ..., c_n
    for k in range(1, n + 1):
        am = s @ (am + eye * c)
        am = QArray(am.values, am.scale)  # the bound of the values themselves
        c = -am.trace() / k
        coeffs.append(c)
    n_zero = n - max(i for i, x in enumerate(coeffs) if x)
    return (_sign_changes(coeffs),
            _sign_changes([x * (-1) ** i for i, x in enumerate(coeffs)]), n_zero)

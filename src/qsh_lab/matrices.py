"""Exact linear algebra: one array type and Gaussian elimination.

QArray is the only exact matrix and vector representation of the linear
stack (linmodel, liealg, curvature and their suites).  It holds a
read-only numpy array of Python ints (dtype=object), `values`, and a
positive int `scale`, and stands for values / scale.  Every structure
matrix and every enumerated basis element of the flat model has entries
in {0, +-1}, so scales stay small and products are plain integer
arithmetic: `@` multiplies the scales, `+` and `-` bring both operands
over the lcm of their scales, and `*` by a Fraction multiplies the
scale by its denominator.  Python ints never overflow, so every
operation is exact for every rational input.  A scalar read-out (an
entry, a vector.matrix.vector product, a trace, max_abs) is a Fraction;
nothing else reduces by a gcd.  A float entry raises TypeError instead
of being rounded.  numpy is imported inside the few functions that
need it, so importing this module does not load it.

Reduction (rref, rank, nullspace, solve) is the only code that leaves
QArray: it uses plain Gaussian elimination over Fraction with the first
nonzero entry in lexicographic column order as pivot, so echelon forms,
nullspace bases and therefore every exported basis are reproducible
byte-for-byte.  A positive scale changes no echelon form, so the
elimination reads the integer rows of its QArray argument.
signature_symmetric stays on QArray: its characteristic polynomial takes
one `@` and one trace a step.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class QArray:
    """values / scale, for an integer array `values` and an int scale > 0."""

    __slots__ = ("values", "scale")
    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __init__(self, values, scale: int = 1):
        values.flags.writeable = False
        self.values = values
        self.scale = scale

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
        return cls(np.array(ints, dtype=object).reshape(entries.shape), scale)

    @classmethod
    def eye(cls, n: int) -> "QArray":
        import numpy as np

        return cls(np.eye(n, dtype=object))

    def kron(self, other: "QArray") -> "QArray":
        import numpy as np

        return QArray(np.kron(self.values, other.values), self.scale * other.scale)

    def _wrap(self, values, scale: int):
        if isinstance(values, int):
            return Fraction(values, scale)
        return QArray(values, scale)

    def _common(self, other: "QArray"):
        """Both value arrays over the lcm of the two scales."""
        if self.scale == other.scale:
            return self.values, other.values, self.scale
        s = lcm(self.scale, other.scale)
        return self.values * (s // self.scale), other.values * (s // other.scale), s

    def __add__(self, other):
        if not isinstance(other, QArray):
            return NotImplemented
        a, b, s = self._common(other)
        return QArray(a + b, s)

    def __radd__(self, other):
        # sum() starts from the int 0
        return self if other == 0 else NotImplemented

    def __sub__(self, other):
        if not isinstance(other, QArray):
            return NotImplemented
        a, b, s = self._common(other)
        return QArray(a - b, s)

    def __neg__(self):
        return QArray(-self.values, self.scale)

    def __mul__(self, c):
        if isinstance(c, int):
            return QArray(self.values * c, self.scale)
        if isinstance(c, Fraction):
            return QArray(self.values * c.numerator, self.scale * c.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, QArray):
            return NotImplemented
        return self._wrap(self.values @ other.values, self.scale * other.scale)

    def __eq__(self, other):
        if not isinstance(other, QArray):
            return NotImplemented
        if self.values.shape != other.values.shape:
            return False
        a, b, _ = self._common(other)
        return bool((a == b).all())

    __hash__ = None

    def __getitem__(self, key):
        return self._wrap(self.values[key], self.scale)

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
        return QArray(self.values.swapaxes(-1, -2), self.scale)

    def transpose(self, *axes) -> "QArray":
        return QArray(self.values.transpose(*axes), self.scale)

    def reshape(self, *shape) -> "QArray":
        return QArray(self.values.reshape(*shape), self.scale)

    def trace(self) -> Fraction:
        return Fraction(self.values.trace(), self.scale)

    def max_abs(self) -> Fraction:
        return Fraction(max(map(abs, self.values.flat), default=0), self.scale)


def rref(m: QArray):
    """Reduced row echelon form of the rows of m (a 2-d QArray): returns
    (R as rows of Fraction, pivot_columns)."""
    r = [[Fraction(x) for x in row] for row in m.values.tolist()]
    rows, cols = m.shape
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
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
    return r, pivots


def rank(m: QArray) -> int:
    return len(rref(m)[1])


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
    r, pivots = rref(QArray(np.column_stack([m.values * b.scale,
                                             b.values * m.scale])))
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
        c = -am.trace() / k
        coeffs.append(c)
    n_zero = n - max(i for i, x in enumerate(coeffs) if x)
    return (_sign_changes(coeffs),
            _sign_changes([x * (-1) ** i for i, x in enumerate(coeffs)]), n_zero)

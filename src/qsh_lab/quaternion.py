"""Exact quaternion arithmetic.

Components default to ``Fraction`` so that products, conjugates and
squared norms are computed without rounding; this type doubles as the
fiber coordinate h = h0 + h1*i + h2*j + h3*k and as the oracle for the
coframe and adjoint-orbit formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Quaternion:
    h0: Fraction
    h1: Fraction
    h2: Fraction
    h3: Fraction

    @staticmethod
    def of(h0, h1=0, h2=0, h3=0) -> "Quaternion":
        return Quaternion(Fraction(h0), Fraction(h1), Fraction(h2), Fraction(h3))

    @staticmethod
    def unit(index: int) -> "Quaternion":
        """The basis quaternion (1, i, j, k)[index]."""
        parts = [Fraction(0)] * 4
        parts[index] = Fraction(1)
        return Quaternion(*parts)

    def components(self):
        return (self.h0, self.h1, self.h2, self.h3)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.h0 + other.h0, self.h1 + other.h1,
                          self.h2 + other.h2, self.h3 + other.h3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.h0 - other.h0, self.h1 - other.h1,
                          self.h2 - other.h2, self.h3 - other.h3)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.h0, -self.h1, -self.h2, -self.h3)

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            s = Fraction(other)
            return Quaternion(self.h0 * s, self.h1 * s, self.h2 * s, self.h3 * s)
        a0, a1, a2, a3 = self.components()
        b0, b1, b2, b3 = other.components()
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    __rmul__ = __mul__

    def conj(self) -> "Quaternion":
        return Quaternion(self.h0, -self.h1, -self.h2, -self.h3)

    def norm2(self):
        return self.h0 ** 2 + self.h1 ** 2 + self.h2 ** 2 + self.h3 ** 2

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        c = self.conj()
        return Quaternion(c.h0 / n2, c.h1 / n2, c.h2 / n2, c.h3 / n2)

    def is_unit(self) -> bool:
        return self.norm2() == 1

    def is_zero(self) -> bool:
        return self.norm2() == 0

    def imag_components(self):
        return (self.h1, self.h2, self.h3)

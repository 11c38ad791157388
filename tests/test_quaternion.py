from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsh_lab.quaternion import Quaternion

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
quaternions = st.builds(Quaternion, rationals, rationals, rationals, rationals)


@given(quaternions, quaternions, quaternions)
@settings(max_examples=60, deadline=None)
def test_multiplication_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(quaternions, quaternions)
@settings(max_examples=60, deadline=None)
def test_norm_multiplicative(p, q):
    assert (p * q).norm2() == p.norm2() * q.norm2()


@given(quaternions, quaternions)
@settings(max_examples=60, deadline=None)
def test_conjugate_reverses_products(p, q):
    assert (p * q).conj() == q.conj() * p.conj()


@given(quaternions)
@example(Quaternion.of(0, 0, 0, 0))  # Fraction division raises by itself
@settings(max_examples=60, deadline=None)
def test_inverse(p):
    if p.is_zero():
        with pytest.raises(ZeroDivisionError):
            p.inverse()
    else:
        assert p * p.inverse() == Quaternion.unit(0)


def test_unit_relations():
    one, i, j, k = (Quaternion.unit(a) for a in range(4))
    assert i * i == -one and j * j == -one and k * k == -one
    assert i * j == k and j * k == i and k * i == j
    assert j * i == -k and k * j == -i and i * k == -j
    assert i * j * k == -one


def test_components_and_scalar_mul():
    q = Quaternion.of(1, Fraction(1, 2), -2, 0)
    assert q.components() == (1, Fraction(1, 2), -2, 0)
    assert (q * 2).components() == (2, 1, -4, 0)
    assert q.imag_components() == (Fraction(1, 2), -2, 0)

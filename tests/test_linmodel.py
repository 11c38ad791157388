import random
from fractions import Fraction

import pytest

from qsh_lab import matrices as mat
from qsh_lab.matrices import QArray
from qsh_lab.liealg import project_Q, project_ZQ
from qsh_lab.linmodel import (build_flat_model, fundamental_4tensor, qsh_form,
                              qsh_form_matrix, rotation_matrix,
                              sp1_conjugate_frame)
from qsh_lab.quaternion import Quaternion


def _rational_vector(rng, dim):
    return QArray.of([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(dim)])


def test_rejects_small_n():
    with pytest.raises(ValueError):
        build_flat_model(1)


@pytest.mark.parametrize("n", [2, 3])
def test_quaternionic_identity(n):
    m = build_flat_model(n)
    ident = QArray.eye(m.dim)
    for Ja in m.J:
        assert Ja @ Ja == ident * Fraction(-1)
    prod = m.J[0] @ m.J[1] @ m.J[2]
    assert prod == ident * Fraction(-1)


def test_omega_skew_invariant_nondegenerate(model2):
    m = model2
    assert m.omega.T == m.omega * Fraction(-1)
    assert mat.rank(m.omega) == m.dim
    for Ja in m.J:
        lhs = Ja.T @ m.omega @ Ja
        assert lhs == m.omega


def test_omega_rank_n3(model3):
    assert mat.rank(model3.omega) == 12


@pytest.mark.parametrize("n", [2, 3])
def test_metrics_symmetric_signature(n):
    m = build_flat_model(n)
    for a in range(3):
        ga = m.g[a]
        assert ga == ga.T
        assert ga == m.omega @ m.J[a]
        assert mat.signature_symmetric(ga) == (2 * n, 2 * n, 0)
        lhs = m.J[a].T @ ga @ m.J[a]
        assert lhs == ga


def test_non_hermitian_witness(model2):
    # g_1(J_2 ., J_2 .) = -g_1, so invariance fails wherever g_1 is nonzero
    m = model2
    rotated = m.J[1].T @ m.g[0] @ m.J[1]
    assert rotated != m.g[0]
    assert rotated == m.g[0] * Fraction(-1)


def test_qsh_form_values(model2):
    m = model2
    rng = random.Random(10)
    for _ in range(20):
        x = _rational_vector(rng, m.dim)
        scalar, _ = qsh_form(m, x, x)
        assert scalar == 0
    e1 = m.basis_vector(0)
    _, sp1 = qsh_form(m, e1, m.J[0] @ e1)
    assert sp1[0] == 0


@pytest.mark.parametrize("offset", [-1, 1])
@pytest.mark.parametrize("fn, arity", [
    pytest.param(qsh_form, 2, id="qsh_form"),
    pytest.param(fundamental_4tensor, 4, id="fundamental_4tensor"),
    pytest.param(project_ZQ, 2, id="project_ZQ"),
    pytest.param(project_Q, 2, id="project_Q")])
def test_a_vector_of_the_wrong_length_raises(model2, fn, arity, offset):
    # no guard of its own: the first matmul with a model matrix refuses it
    rng = random.Random(model2.dim + offset)
    for wrong in range(arity):
        args = [_rational_vector(rng, model2.dim) for _ in range(arity)]
        args[wrong] = _rational_vector(rng, model2.dim + offset)
        with pytest.raises(ValueError):
            fn(model2, *args)


def test_qsh_reconstruction_matches_direct(model2):
    m = model2
    rng = random.Random(11)
    for _ in range(10):
        x, y, z = (_rational_vector(rng, m.dim) for _ in range(3))
        scalar, sp1 = qsh_form(m, x, y)
        recon = z * scalar
        for c, Ja in zip(sp1, m.J):
            recon = recon + (Ja @ z) * c
        assert recon == qsh_form_matrix(m, x, y) @ z


def test_qsh_real_and_imaginary_parts(model2):
    # the antisymmetric part of h is omega0 * Id, the symmetric part lies
    # in span{J_a} with the metric coefficients
    m = model2
    rng = random.Random(15)
    for _ in range(8):
        x = _rational_vector(rng, m.dim)
        y = _rational_vector(rng, m.dim)
        hxy = qsh_form_matrix(m, x, y)
        hyx = qsh_form_matrix(m, y, x)
        half = Fraction(1, 2)
        re = (hxy - hyx) * half
        im = (hxy + hyx) * half
        scalar, sp1 = qsh_form(m, x, y)
        assert re == QArray.eye(m.dim) * scalar
        expected_im = m.omega * 0
        for c, Ja in zip(sp1, m.J):
            expected_im = expected_im + Ja * c
        assert im == expected_im


def test_fundamental_4tensor(model2):
    m = model2
    rng = random.Random(12)
    for _ in range(10):
        x, y, z, w = (_rational_vector(rng, m.dim) for _ in range(4))
        phi = fundamental_4tensor(m, x, y, z, w)
        assert phi == fundamental_4tensor(m, y, x, z, w)
        assert phi == fundamental_4tensor(m, z, w, x, y)
        # Phi(x,y,z,w) = omega0(x, Im(h)(z,w) y)
        _, sp1 = qsh_form(m, z, w)
        imh_y = y * 0
        for c, Ja in zip(sp1, m.J):
            imh_y = imh_y + (Ja @ y) * c
        assert phi == x @ m.omega @ imh_y


def test_sp1_conjugate_frame_identity(model2):
    frame = sp1_conjugate_frame(model2, Quaternion.unit(0))
    assert frame[0] == model2.J[0]
    assert frame[1] == model2.J[1]
    assert frame[2] == model2.J[2]


def test_sp1_conjugate_frame_properties(model2):
    m = model2
    rng = random.Random(13)
    for _ in range(6):
        while True:
            p = Quaternion(*(Fraction(rng.randint(-4, 4)) for _ in range(4)))
            if not p.is_zero():
                break
        sq = p * p
        q = Quaternion(*(c / p.norm2() for c in sq.components()))
        assert q.norm2() == 1
        frame = sp1_conjugate_frame(m, q)
        ident = QArray.eye(m.dim)
        prod = frame[0] @ frame[1] @ frame[2]
        assert prod == ident * Fraction(-1)
        # change of basis is exactly special orthogonal
        r3 = rotation_matrix(q)
        assert r3.T @ r3 == QArray.eye(3)
        det = (r3[0][0] * (r3[1][1] * r3[2][2] - r3[1][2] * r3[2][1])
               - r3[0][1] * (r3[1][0] * r3[2][2] - r3[1][2] * r3[2][0])
               + r3[0][2] * (r3[1][0] * r3[2][1] - r3[1][1] * r3[2][0]))
        assert det == 1
        # spans the same 3-space: each rotated J is a J-combination
        for a in range(3):
            expected = m.omega * 0
            for b in range(3):
                expected = expected + m.J[b] * r3[b][a]
            assert frame[a] == expected


def test_frame_rotation_covariance(model2):
    # omega0 is frame-independent; the sp1 part of h rotates by R(q)
    m = model2
    rng = random.Random(14)
    q = Quaternion(Fraction(2, 3), Fraction(1, 3), Fraction(2, 3), Fraction(0))
    assert q.norm2() == 1
    frame = sp1_conjugate_frame(m, q)
    r3 = rotation_matrix(q)
    for _ in range(5):
        x = _rational_vector(rng, m.dim)
        y = _rational_vector(rng, m.dim)
        scalar, sp1 = qsh_form(m, x, y)
        for a in range(3):
            ga_rot = x @ (m.omega @ frame[a]) @ y
            assert ga_rot == sum(r3[b][a] * sp1[b] for b in range(3))
        assert scalar == x @ m.omega @ y

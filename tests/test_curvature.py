import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from qsh_lab import curvature as curv
from qsh_lab import liealg
from qsh_lab import matrices as mat
from qsh_lab.liealg import enumerate_so_star_basis
from qsh_lab.linmodel import build_flat_model


@pytest.fixture(scope="module")
def pinned2():
    return curv.CurvParams.pinned(1, 2)


def _random_element(model, basis, rng):
    combo = mat.zeros(model.dim, model.dim)
    for b in basis.elements():
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        combo = mat.mat_add(combo, mat.mat_scale(c, b.matrix))
    return liealg.decompose(model, basis, combo)


def test_params_validation():
    with pytest.raises(ValueError):
        curv.CurvParams.pinned(0, 2)
    p = curv.CurvParams.pinned(Fraction(3, 2), 3)
    assert (p.c1, p.c2) == (3, Fraction(9, 2))
    assert p.is_pinned(3) and not p.is_pinned(2)


def test_zero_element_gives_zero_tensor(model2, basis2, pinned2):
    tensor = curv.curvature_of(model2, basis2, mat.zeros(8, 8), pinned2)
    assert all(mat.max_abs(tensor.matrix(i, j)) == 0
               for i in range(8) for j in range(i + 1, 8))
    assert curv.bianchi_residual(model2, tensor) == 0


def test_membership_enforced(model2, basis2, pinned2):
    with pytest.raises(liealg.MembershipError):
        curv.curvature_of(model2, basis2, mat.identity(8), pinned2)


def test_antisymmetry_and_g_values(model2, basis2, pinned2):
    rng = random.Random(30)
    el = _random_element(model2, basis2, rng)
    tensor = curv.curvature_of(model2, basis2, el, pinned2)
    for (i, j) in [(0, 1), (2, 6), (3, 4)]:
        assert tensor.matrix(i, j) == \
            mat.mat_scale(Fraction(-1), tensor.matrix(j, i))
        assert mat.max_abs(tensor.matrix(i, i)) == 0
        liealg.decompose(model2, basis2, tensor.matrix(i, j))  # in g


def test_two_implementations_agree(model2, basis2, pinned2):
    rng = random.Random(31)
    off = curv.CurvParams.free(Fraction(7, 3), 5, -2)
    for el, params in itertools.product(
            [basis2.sp_basis[0], basis2.so_basis[0],
             _random_element(model2, basis2, rng)], [pinned2, off]):
        tensor = curv.curvature_of(model2, basis2, el, params)
        for _ in range(25):
            i, j, k = (rng.randrange(8) for _ in range(3))
            direct = curv.curvature_13(
                model2, el.matrix, params, model2.basis_vector(i),
                model2.basis_vector(j), model2.basis_vector(k))
            assert direct == tensor.apply(i, j, k)


def test_bianchi_pinned_zero_all_basis(model2, basis2, pinned2):
    for el in basis2.elements():
        tensor = curv.curvature_of(model2, basis2, el, pinned2)
        assert curv.bianchi_residual(model2, tensor) == 0


def test_bianchi_perturbed_nonzero(model2, basis2):
    # the fixed 2x2 grid of coefficient perturbations must all break it
    for d1 in (1, -1):
        for d2 in (1, -1):
            params = curv.CurvParams.free(1, 2 + d1, 2 + d2)
            found = any(
                curv.bianchi_residual(
                    model2, curv.curvature_of(model2, basis2, el, params)) != 0
                for el in basis2.elements())
            assert found, (d1, d2)


def test_bianchi_axis_perturbation_J1(model2, basis2):
    # (c1, c2) = (2k, nk + 1) with A = J1: the sp1 coefficient is off
    params = curv.CurvParams.free(1, 2, 3)
    tensor = curv.curvature_of(model2, basis2, basis2.sp_basis[0], params)
    assert curv.bianchi_residual(model2, tensor) != 0


def test_bianchi_defect_closed_form(model2, basis2):
    # the predicted off-pinning defect matches the tensor cyclic sum for
    # arbitrary coefficients; at the pinning it is identically zero
    rng = random.Random(34)
    for _ in range(4):
        params = curv.CurvParams.free(Fraction(rng.randint(1, 3)),
                                      Fraction(rng.randint(-4, 4)),
                                      Fraction(rng.randint(-4, 4)))
        el = _random_element(model2, basis2, rng)
        tensor = curv.curvature_of(model2, basis2, el, params)
        for _ in range(12):
            i, j, k = (rng.randrange(8) for _ in range(3))
            actual = [a + b + c for a, b, c in zip(tensor.apply(i, j, k),
                                                   tensor.apply(j, k, i),
                                                   tensor.apply(k, i, j))]
            want = curv.bianchi_defect_closed_form(model2, el.matrix, params,
                                                   i, j, k)
            assert actual == want
    pinned = curv.CurvParams.pinned(1, 2)
    el = _random_element(model2, basis2, rng)
    for _ in range(10):
        i, j, k = (rng.randrange(8) for _ in range(3))
        defect = curv.bianchi_defect_closed_form(model2, el.matrix, pinned,
                                                 i, j, k)
        assert all(v == 0 for v in defect)


def test_ricci_coefficients_n2(model2, basis2, pinned2):
    for el in basis2.so_basis:
        ric = curv.ricci_of(model2, curv.curvature_of(model2, basis2, el, pinned2))
        assert ric == mat.mat_scale(Fraction(8), curv.omega_pairing(model2, el.matrix))
    for el in basis2.sp_basis:
        ric = curv.ricci_of(model2, curv.curvature_of(model2, basis2, el, pinned2))
        assert ric == mat.mat_scale(Fraction(8), curv.omega_pairing(model2, el.matrix))


def test_ricci_coefficients_n3_separate(model3, basis3):
    # n = 3 splits the two coefficients: 2(n+2) = 10 vs 4n = 12
    params = curv.CurvParams.pinned(1, 3)
    el = basis3.so_basis[0]
    ric = curv.ricci_of(model3, curv.curvature_of(model3, basis3, el, params))
    assert ric == mat.mat_scale(Fraction(10), curv.omega_pairing(model3, el.matrix))
    el = basis3.sp_basis[2]
    ric = curv.ricci_of(model3, curv.curvature_of(model3, basis3, el, params))
    assert ric == mat.mat_scale(Fraction(12), curv.omega_pairing(model3, el.matrix))


def test_ricci_closed_form_and_symmetry(model2, basis2, pinned2):
    rng = random.Random(32)
    for _ in range(8):
        el = _random_element(model2, basis2, rng)
        tensor = curv.curvature_of(model2, basis2, el, pinned2)
        ric = curv.ricci_of(model2, tensor)
        assert ric == curv.ricci_closed_form(model2, el.matrix, 1)
        assert ric == mat.transpose(ric)


def test_ricci_linearity_split(model2, basis2, pinned2):
    rng = random.Random(33)
    a1 = mat.zeros(8, 8)
    for b in basis2.so_basis:
        a1 = mat.mat_add(a1, mat.mat_scale(Fraction(rng.randint(-3, 3)), b.matrix))
    a2 = mat.zeros(8, 8)
    for b in basis2.sp_basis:
        a2 = mat.mat_add(a2, mat.mat_scale(Fraction(rng.randint(-3, 3)), b.matrix))
    el = liealg.decompose(model2, basis2, mat.mat_add(a1, a2))
    ric = curv.ricci_of(model2, curv.curvature_of(model2, basis2, el, pinned2))
    split = mat.mat_add(
        mat.mat_scale(Fraction(8), curv.omega_pairing(model2, a1)),
        mat.mat_scale(Fraction(8), curv.omega_pairing(model2, a2)))
    assert ric == split
    ric1 = curv.ricci_of(model2, curv.curvature_of(
        model2, basis2, liealg.decompose(model2, basis2, a1), pinned2))
    ric2 = curv.ricci_of(model2, curv.curvature_of(
        model2, basis2, liealg.decompose(model2, basis2, a2), pinned2))
    assert ric == mat.mat_add(ric1, ric2)


def test_hermiticity_dichotomy(model3, basis3):
    params = curv.CurvParams.pinned(1, 3)
    for el in basis3.so_basis[:4]:
        ric = curv.ricci_of(model3, curv.curvature_of(model3, basis3, el, params))
        ok, witness = curv.is_Q_hermitian(model3, ric)
        assert ok and witness is None
    for el in basis3.sp_basis:
        ric = curv.ricci_of(model3, curv.curvature_of(model3, basis3, el, params))
        ok, witness = curv.is_Q_hermitian(model3, ric)
        assert not ok
        assert witness is not None and "structure" in witness
    # mixed element fails too, so Hermiticity forces sp1 part zero
    mixed = mat.mat_add(basis3.so_basis[0].matrix, basis3.sp_basis[0].matrix)
    el = liealg.decompose(model3, basis3, mixed)
    ric = curv.ricci_of(model3, curv.curvature_of(model3, basis3, el, params))
    ok, _ = curv.is_Q_hermitian(model3, ric)
    assert not ok


def test_hermitian_trivial_cases(model2):
    ok, witness = curv.is_Q_hermitian(model2, mat.zeros(8, 8))
    assert ok and witness is None
    # omega0 itself is invariant under the whole 2-sphere
    ok, _ = curv.is_Q_hermitian(model2, model2.omega)
    assert ok


def test_curvature_map_rank(model2, basis2, pinned2):
    rows = curv.curvature_rows(model2, basis2, pinned2)
    assert curv.curvature_map_rank(model2, basis2, pinned2, rows=rows) == 9
    assert curv.curvature_map_rank_float(model2, basis2, pinned2,
                                         rows=rows) == 9


@pytest.mark.parametrize("kappa", [Fraction(4398046511104123, 1000000000000037),
                                   Fraction(2 ** 70 + 1, 3)])
def test_wide_kappa_exact(model2, basis2, kappa):
    # the rank's Gram matrix leaves the int64 range for both, and the
    # scaled tensor itself for the second: exact all the same
    pinned = curv.CurvParams.pinned(kappa, 2)
    for el in basis2.elements():
        tensor = curv.curvature_of(model2, basis2, el, pinned)
        assert curv.bianchi_residual(model2, tensor) == 0
    off = curv.CurvParams.free(kappa, pinned.c1 + 1, pinned.c2)
    assert any(curv.bianchi_residual(
        model2, curv.curvature_of(model2, basis2, el, off)) != 0
        for el in basis2.elements())
    for el, coef in ((basis2.so_basis[0], 2 * (2 + 2)), (basis2.sp_basis[0], 4 * 2)):
        ric = curv.ricci_of(model2, curv.curvature_of(model2, basis2, el, pinned))
        assert ric == mat.mat_scale(coef * kappa,
                                    curv.omega_pairing(model2, el.matrix))
    assert curv.curvature_map_rank(model2, basis2, pinned) == 9


def test_structure_arrays_cached_per_model(model2, model3, basis2, basis3):
    # each model builds its integer structure arrays once; interleaving
    # models of different and of equal n must not mix them up
    second2 = build_flat_model(2)
    pinned = {2: curv.CurvParams.pinned(Fraction(3, 2), 2),
              3: curv.CurvParams.pinned(Fraction(3, 2), 3)}
    calls = [(model2, basis2, 0), (model3, basis3, 1), (second2, basis2, 2),
             (model2, basis2, 3), (model3, basis3, 0), (second2, basis2, 1)]
    for model, basis, idx in calls:
        el = basis.elements()[idx]
        tensor = curv.curvature_of(model, basis, el, pinned[model.n])
        fresh = build_flat_model(model.n)
        expected = curv.curvature_of(fresh, enumerate_so_star_basis(fresh),
                                     el.matrix, pinned[model.n])
        assert tensor.scale == expected.scale
        assert tensor.values.shape == expected.values.shape
        assert np.array_equal(tensor.values, expected.values)
    assert model2.structure_arrays is model2.structure_arrays
    assert second2.structure_arrays is not model2.structure_arrays
    assert model3.structure_arrays[0].shape == (12, 12)

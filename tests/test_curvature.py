import functools
import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsh_lab import curvature as curv
from qsh_lab import liealg
from qsh_lab import matrices as mat
from qsh_lab.liealg import enumerate_so_star_basis
from qsh_lab.linmodel import build_flat_model, sp1_conjugate_frame
from qsh_lab.matrices import QArray
from qsh_lab.quaternion import Quaternion


@pytest.fixture(scope="module")
def pinned2():
    return curv.CurvParams.pinned(1, 2)


@functools.cache
def _model_and_basis(n):
    model = build_flat_model(n)
    return model, enumerate_so_star_basis(model)


def _random_element(model, basis, rng):
    combo = model.omega * 0
    for b in basis.elements():
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        combo = combo + b.matrix * c
    return liealg.decompose(model, combo)


def test_params_validation():
    with pytest.raises(ValueError):
        curv.CurvParams.pinned(0, 2)
    p = curv.CurvParams.pinned(Fraction(3, 2), 3)
    assert (p.c1, p.c2) == (3, Fraction(9, 2))


def test_zero_element_gives_zero_tensor(model2, basis2, pinned2):
    tensor = curv.curvature_of(model2, basis2, model2.omega * 0, pinned2)
    assert all(tensor[i, j].T.max_abs() == 0
               for i in range(8) for j in range(i + 1, 8))
    assert curv.bianchi_residual(tensor) == 0


def test_membership_enforced(model2, basis2, pinned2):
    with pytest.raises(liealg.MembershipError):
        curv.curvature_of(model2, basis2, QArray.eye(8), pinned2)


def test_antisymmetry_and_g_values(model2, basis2, pinned2):
    rng = random.Random(30)
    el = _random_element(model2, basis2, rng)
    tensor = curv.curvature_of(model2, basis2, el, pinned2)
    for (i, j) in [(0, 1), (2, 6), (3, 4)]:
        assert tensor[i, j].T == tensor[j, i].T * Fraction(-1)
        assert tensor[i, i].T.max_abs() == 0
        liealg.decompose(model2, tensor[i, j].T)  # in g


def test_two_implementations_agree(model2, basis2, pinned2):
    # the expanded formula equals the kernel on all 8^3 basis triples
    rng = random.Random(31)
    off = curv.CurvParams.free(Fraction(7, 3), 5, -2)
    I, J, K = np.array(list(itertools.product(range(8), repeat=3))).T
    for el, params in itertools.product(
            [basis2.sp_basis[0], basis2.so_basis[0],
             _random_element(model2, basis2, rng)], [pinned2, off]):
        tensor = curv.curvature_of(model2, basis2, el, params)
        direct = curv.curvature_13(model2, el.matrix, params, I, J, K)
        assert direct.shape == (512, 8)
        assert direct == tensor[I, J, K]
    # one row per triple, in the order of the index arrays
    el = basis2.so_basis[0]
    tensor = curv.curvature_of(model2, basis2, el, pinned2)
    rows = curv.curvature_13(model2, el.matrix, pinned2,
                             [3, 0, 3], [1, 5, 1], [7, 2, 7])
    for row, (i, j, k) in zip(rows, [(3, 1, 7), (0, 5, 2), (3, 1, 7)]):
        assert row == tensor[i, j, k]



def _by_definition(model, A, params, i, j):
    """R_A(e_i, e_j) = k w(x, y) A + c1 (x o Ay - y o Ax)_so*
    + c2 (x o Ay - y o Ax)_sp1, from the projections of liealg."""
    x, y = model.basis_vector(i), model.basis_vector(j)
    Ax, Ay = A @ x, A @ y
    so = liealg.circle_so_star(model, x, Ay) - liealg.circle_so_star(model, y, Ax)
    sp = liealg.circle_sp1(model, x, Ay) - liealg.circle_sp1(model, y, Ax)
    return A * (params.kappa * (x @ model.omega @ y)) + so * params.c1 + sp * params.c2


def test_kernel_equals_projection_definition(model2, basis2, model3, basis3,
                                             pinned2):
    # the kernel and curvature_13 expand one formula; this ties it to the
    # definition of R_A by the invariant projections
    off = curv.CurvParams.free(Fraction(7, 3), 5, -2)
    cases = [(model2, basis2, el, pinned2) for el in basis2.elements()]
    for model, basis in ((model2, basis2), (model3, basis3)):
        cases += [(model, basis, el, off) for el in
                  (basis.so_basis[0], basis.so_basis[-1], basis.sp_basis[1])]
    for model, basis, el, params in cases:
        tensor = curv.curvature_of(model, basis, el, params)
        for i, j in itertools.combinations(range(model.dim), 2):
            assert tensor[i, j].T == _by_definition(model, el.matrix, params, i, j), \
                (i, j)

def test_bianchi_pinned_zero_all_basis(model2, basis2, pinned2):
    for el in basis2.elements():
        tensor = curv.curvature_of(model2, basis2, el, pinned2)
        assert curv.bianchi_residual(tensor) == 0


def test_bianchi_perturbed_nonzero(model2, basis2):
    # the fixed 2x2 grid of coefficient perturbations must all break it
    for d1 in (1, -1):
        for d2 in (1, -1):
            params = curv.CurvParams.free(1, 2 + d1, 2 + d2)
            found = any(
                curv.bianchi_residual(
                    curv.curvature_of(model2, basis2, el, params)) != 0
                for el in basis2.elements())
            assert found, (d1, d2)


def test_bianchi_axis_perturbation_J1(model2, basis2):
    # (c1, c2) = (2k, nk + 1) with A = J1: the sp1 coefficient is off
    params = curv.CurvParams.free(1, 2, 3)
    tensor = curv.curvature_of(model2, basis2, basis2.sp_basis[0], params)
    assert curv.bianchi_residual(tensor) != 0


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
            actual = tensor[i, j, k] + tensor[j, k, i] + tensor[k, i, j]
            want = curv.bianchi_defect_closed_form(model2, el.matrix, params,
                                                   i, j, k)
            assert actual == want
    pinned = curv.CurvParams.pinned(1, 2)
    el = _random_element(model2, basis2, rng)
    for _ in range(10):
        i, j, k = (rng.randrange(8) for _ in range(3))
        defect = curv.bianchi_defect_closed_form(model2, el.matrix, pinned,
                                                 i, j, k)
        assert defect.max_abs() == 0


def test_ricci_coefficients_n2(model2, basis2, pinned2):
    for el in basis2.so_basis:
        ric = curv.ricci_of(curv.curvature_of(model2, basis2, el, pinned2))
        assert ric == curv.omega_pairing(model2, el.matrix) * Fraction(8)
    for el in basis2.sp_basis:
        ric = curv.ricci_of(curv.curvature_of(model2, basis2, el, pinned2))
        assert ric == curv.omega_pairing(model2, el.matrix) * Fraction(8)


def test_ricci_coefficients_n3_separate(model3, basis3):
    # n = 3 splits the two coefficients: 2(n+2) = 10 vs 4n = 12
    params = curv.CurvParams.pinned(1, 3)
    el = basis3.so_basis[0]
    ric = curv.ricci_of(curv.curvature_of(model3, basis3, el, params))
    assert ric == curv.omega_pairing(model3, el.matrix) * Fraction(10)
    el = basis3.sp_basis[2]
    ric = curv.ricci_of(curv.curvature_of(model3, basis3, el, params))
    assert ric == curv.omega_pairing(model3, el.matrix) * Fraction(12)


def test_ricci_closed_form_and_symmetry(model2, basis2, pinned2):
    rng = random.Random(32)
    for _ in range(8):
        el = _random_element(model2, basis2, rng)
        tensor = curv.curvature_of(model2, basis2, el, pinned2)
        ric = curv.ricci_of(tensor)
        assert ric == curv.ricci_closed_form(model2, el.matrix, 1)
        assert ric == ric.T


def test_ricci_linearity_split(model2, basis2, pinned2):
    rng = random.Random(33)
    a1 = model2.omega * 0
    for b in basis2.so_basis:
        a1 = a1 + b.matrix * Fraction(rng.randint(-3, 3))
    a2 = model2.omega * 0
    for b in basis2.sp_basis:
        a2 = a2 + b.matrix * Fraction(rng.randint(-3, 3))
    el = liealg.decompose(model2, a1 + a2)
    ric = curv.ricci_of(curv.curvature_of(model2, basis2, el, pinned2))
    split = (curv.omega_pairing(model2, a1) * Fraction(8)
             + curv.omega_pairing(model2, a2) * Fraction(8))
    assert ric == split
    ric1 = curv.ricci_of(curv.curvature_of(
        model2, basis2, liealg.decompose(model2, a1), pinned2))
    ric2 = curv.ricci_of(curv.curvature_of(
        model2, basis2, liealg.decompose(model2, a2), pinned2))
    assert ric == ric1 + ric2


def test_hermiticity_dichotomy(model3, basis3):
    params = curv.CurvParams.pinned(1, 3)
    for el in basis3.so_basis[:4]:
        ric = curv.ricci_of(curv.curvature_of(model3, basis3, el, params))
        ok, witness = curv.is_Q_hermitian(model3, ric)
        assert ok and witness is None
    for el in basis3.sp_basis:
        ric = curv.ricci_of(curv.curvature_of(model3, basis3, el, params))
        ok, witness = curv.is_Q_hermitian(model3, ric)
        assert not ok
        assert witness is not None and "structure" in witness
    # mixed element fails too, so Hermiticity forces sp1 part zero
    mixed = basis3.so_basis[0].matrix + basis3.sp_basis[0].matrix
    el = liealg.decompose(model3, mixed)
    ric = curv.ricci_of(curv.curvature_of(model3, basis3, el, params))
    ok, _ = curv.is_Q_hermitian(model3, ric)
    assert not ok


def test_hermitian_trivial_cases(model2):
    ok, witness = curv.is_Q_hermitian(model2, model2.omega * 0)
    assert ok and witness is None
    # omega0 itself is invariant under the whole 2-sphere
    ok, _ = curv.is_Q_hermitian(model2, model2.omega)
    assert ok


def test_curvature_map_rank(model2, basis2, pinned2, model3, basis3):
    rows = curv.curvature_rows(model2, basis2, pinned2)
    assert curv.curvature_map_rank(rows) == 9
    assert curv.curvature_map_rank_float(rows) == 9
    rows[-1] = rows[0]  # a duplicated row costs the float rank exactly one
    assert curv.curvature_map_rank_float(rows) == 8
    rows = curv.curvature_rows(model3, basis3, curv.CurvParams.pinned(1, 3))
    assert curv.curvature_map_rank_float(rows) == curv.curvature_map_rank(rows) == 18


@pytest.mark.parametrize("kappa", [Fraction(4398046511104123, 1000000000000037),
                                   Fraction(2 ** 70 + 1, 3)])
def test_wide_kappa_exact(model2, basis2, kappa):
    # the rank's Gram matrix leaves the int64 range for both, and the
    # scaled tensor itself for the second: exact all the same
    pinned = curv.CurvParams.pinned(kappa, 2)
    for el in basis2.elements():
        tensor = curv.curvature_of(model2, basis2, el, pinned)
        assert curv.bianchi_residual(tensor) == 0
    off = curv.CurvParams.free(kappa, pinned.c1 + 1, pinned.c2)
    assert any(curv.bianchi_residual(
        curv.curvature_of(model2, basis2, el, off)) != 0
        for el in basis2.elements())
    for el, coef in ((basis2.so_basis[0], 2 * (2 + 2)), (basis2.sp_basis[0], 4 * 2)):
        ric = curv.ricci_of(curv.curvature_of(model2, basis2, el, pinned))
        assert ric == curv.omega_pairing(model2, el.matrix) * (coef * kappa)
    assert curv.curvature_map_rank(curv.curvature_rows(model2, basis2, pinned)) == 9


def test_tensor_independent_of_model_instance(model2, model3, basis2, basis3):
    # the structure fields are read-only integer arrays of each model;
    # interleaving models of different and of equal n must not mix them up
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
    for model in (model2, model3, second2):
        for field in (model.omega, model.J, model.g):
            assert field.scale == 1
            assert not field.values.flags.writeable
            _check_values(field)
    assert second2 == model2 and second2.omega is not model2.omega
    assert model3.omega.shape == (12, 12)
    assert model3.J.shape == model3.g.shape == (3, 12, 12)


@pytest.mark.parametrize("n", [4, 5])
def test_linear_claims_at_large_n(n):
    # the sizes above share no code path with n = 2, 3 that a larger n
    # could not break: dimension, pinned Bianchi for every element, both
    # Ricci coefficients and injectivity at n = 4 and 5
    model, basis = _model_and_basis(n)
    assert len(basis.so_basis) == n * (2 * n - 1)
    params = curv.CurvParams.pinned(1, n)
    for el in basis.elements():
        tensor = curv.curvature_of(model, basis, el, params)
        assert curv.bianchi_residual(tensor) == 0
    for el, coef in ((basis.so_basis[0], 2 * (n + 2)), (basis.sp_basis[0], 4 * n)):
        ric = curv.ricci_of(curv.curvature_of(model, basis, el, params))
        assert ric == curv.omega_pairing(model, el.matrix) * coef
    rows = curv.curvature_rows(model, basis, params)
    rank = n * (2 * n - 1) + 3
    assert curv.curvature_map_rank(rows) == rank
    assert curv.curvature_map_rank_float(rows) == rank


def _kernel_paths(model, basis, el, params):
    """R_A in the dtypes the bounds pick, np.int64 if no step of it took
    the object path (else object), and R_A with every step on Python
    ints."""
    real = mat.operands
    bounds = []

    def recorded(bound, *arrays):
        bounds.append(bound)
        return real(bound, *arrays)

    def python_ints(bound, *arrays):
        return real(mat.INT64_LIMIT, *arrays)
    with mock.patch.object(mat, "operands", recorded):
        fast = curv.curvature_of(model, basis, el, params)
    with mock.patch.object(mat, "operands", python_ints):
        slow = curv.curvature_of(model, basis, el, params)
    wide = any(b >= mat.INT64_LIMIT for b in bounds)
    return fast, object if wide else np.int64, slow


def _check_values(q):
    """int64 under a bound below 2^63, else Python ints; the bound holds."""
    assert type(q.bound) is int
    assert all(abs(int(v)) <= q.bound for v in q.values.flat)
    if q.bound < 2 ** 63:
        assert q.values.dtype == np.int64
    else:
        assert q.values.dtype == object
        assert all(type(v) is int for v in q.values.flat)


def _same_tensor(fast, dtype, slow):
    assert dtype is np.int64
    assert fast.scale == slow.scale
    _check_values(fast)
    assert np.array_equal(fast.values, slow.values)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_int64_kernel_matches_object_path(n):
    model, basis = _model_and_basis(n)
    params = curv.CurvParams.free(Fraction(7, 3), Fraction(-5, 2), Fraction(9, 4))
    for el in basis.elements():
        for p in (curv.CurvParams.pinned(1, n), params):
            _same_tensor(*_kernel_paths(model, basis, el, p))


_small = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(_small, min_size=9, max_size=9),
       kappa=_small.filter(bool), c1=_small, c2=_small)
def test_int64_kernel_matches_object_path_on_combinations(model2, basis2, coeffs,
                                                           kappa, c1, c2):
    combo = sum(b.matrix * c for b, c in zip(basis2.elements(), coeffs))
    el = liealg.decompose(model2, combo)
    _same_tensor(*_kernel_paths(model2, basis2, el,
                                curv.CurvParams.free(kappa, c1, c2)))


def test_wide_rational_A_takes_object_fallback(model2, basis2):
    # entries around 2^62 / 3: the bound refuses int64, and the tensor
    # itself leaves the int64 range
    a1 = basis2.so_basis[0].matrix * Fraction(2 ** 62 + 1, 3)
    a2 = basis2.sp_basis[0].matrix * Fraction(-(2 ** 62) + 5, 3)
    el = liealg.decompose(model2, a1 + a2)
    tensor, dtype, _ = _kernel_paths(model2, basis2, el, curv.CurvParams.pinned(1, 2))
    assert dtype is object
    assert max(map(abs, tensor.values.flat)) >= 2 ** 63
    assert curv.bianchi_residual(tensor) == 0
    ric = curv.ricci_of(tensor)
    assert ric == (curv.omega_pairing(model2, a1) * Fraction(8)
                   + curv.omega_pairing(model2, a2) * Fraction(8))
    assert ric == curv.ricci_closed_form(model2, el.matrix, 1)


def test_rank_gram_exact_in_both_dtypes(model2, basis2, pinned2):
    rows = curv.curvature_rows(model2, basis2, pinned2)
    for scaled in (rows, rows * 2 ** 40):  # int64 Gram, then object Gram
        with mock.patch.object(curv.mat, "rank", side_effect=lambda g: g) as rank:
            gram = curv.curvature_map_rank(scaled)
        rank.assert_called_once()
        _check_values(gram)
        exact = scaled.astype(object)  # the reference Gram on Python ints
        assert np.array_equal(gram.values, exact @ exact.T)
        assert curv.curvature_map_rank(scaled) == 9


def test_overflow_bounds_are_python_ints(model2):
    # both bounds overflow int64 when computed in it: 2 * (2^32)^2 wraps
    # to 0, which would pass an int64 Gram matrix of rank 0, and so does
    # 2^40 * 2^30 in the bound of an einsum
    rows = np.array([[2 ** 32, 0], [2 ** 32, 0]], dtype=np.int64)
    assert curv.curvature_map_rank(rows) == 1
    assert curv.curvature_map_rank(rows.astype(object)) == 1
    assert curv.curvature_map_rank_float(rows) == 1
    wide = model2.omega * 2 ** 40
    for factor, dtype in ((2 ** 30, object), (2 ** 20, np.int64)):
        outer = mat.einsum("ij,kl->ijkl", wide, model2.omega * factor)
        assert outer.bound == 2 ** 40 * factor
        assert outer.values.dtype == dtype
        exact = np.multiply.outer(wide.values.astype(object),
                                  model2.omega.values.astype(object) * factor)
        assert np.array_equal(outer.values, exact)


def test_a_widened_kernel_term_stays_exact(model2, basis2, monkeypatch):
    # T1 times 2^40 breaks any hand-derived bound of the form |T1| <= 16 m;
    # the bounds that QArray carries send the steps that leave int64 to
    # Python ints, so R_A still equals the all-object reference
    real = curv._parts

    def widened(model, A):
        t0, t1, t2 = real(model, A)
        return t0, t1 * 2 ** 40, t2
    monkeypatch.setattr(curv, "_parts", widened)
    combo = (basis2.so_basis[0].matrix * (2 ** 20 + 1)
             + basis2.sp_basis[0].matrix * Fraction(2 ** 19, 3))
    el = liealg.decompose(model2, combo)
    tensor, dtype, slow = _kernel_paths(model2, basis2, el,
                                        curv.CurvParams.free(3, 2 ** 6, 5))
    assert dtype is object
    assert max(map(abs, tensor.values.flat)) >= 2 ** 63
    assert tensor.scale == slow.scale
    _check_values(tensor)
    assert np.array_equal(tensor.values, slow.values)


def test_second_paths_never_call_the_kernel(model3, basis3, monkeypatch):
    params = curv.CurvParams.pinned(1, 3)
    el = basis3.sp_basis[0]
    rows = curv.curvature_rows(model3, basis3, params)
    tensor = curv.curvature_of(model3, basis3, el, params)
    ric = curv.ricci_of(tensor)
    q = Quaternion.of(*(Fraction(c, 5) for c in (1, 2, 2, 4)))  # |q| = 1
    frames = [(q, sp1_conjugate_frame(model3, q))]

    def refuse(*args):
        raise AssertionError("the kernel was called")
    monkeypatch.setattr(curv, "_parts", refuse)
    with pytest.raises(AssertionError):
        curv.curvature_of(model3, basis3, el, params)
    assert curv.curvature_13(model3, el.matrix, params, [0], [5], [7])[0] == \
        tensor[0, 5, 7]
    assert curv.bianchi_defect_closed_form(model3, el.matrix, params,
                                           0, 5, 7).max_abs() == 0
    assert curv.ricci_closed_form(model3, el.matrix, 1) == ric
    assert curv.is_Q_hermitian(model3, ric, frames=frames)[0] is False
    assert curv.is_Q_hermitian(model3, model3.omega, frames=frames) == (True, None)
    assert curv.curvature_map_rank_float(rows) == 18

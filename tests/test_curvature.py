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
from qsh_lab.linmodel import FlatModel, build_flat_model, sp1_conjugate_frame
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
        combo = combo + b * c
    return combo


def _rows(model, basis, params):
    """The primitive rows of the rank certificate, one per basis element."""
    return [curv.primitive_row(curv.curvature_of(model, basis, el, params))
            for el in basis.elements()]


def _map_ranks(rows):
    """Exact and float rank of the minor that the search picks."""
    columns = curv.minor_columns(rows)
    return (curv.curvature_map_rank(rows, columns),
            curv.curvature_map_rank_float(rows, columns))


def bianchi_defect_closed_form(model, A, params, i, j, k):
    """The cyclic sum R(x,y)z + R(y,z)x + R(z,x)y collapses, for any
    coefficients, to

        cyc[(k - c1/2) w(x,y) Az
            + (c1/4 - c2/2n) sum_a (g_a(Ay,x) - g_a(Ax,y)) J_a z],

    evaluated here on basis vectors x, y, z = e_i, e_j, e_k.  Both
    coefficients vanish exactly at the pinning (2k, nk), which is the
    whole content of the pinned/perturbed residual checks; away from it
    this is an independent prediction of the defect that the tensor
    pipeline must reproduce."""
    coef1 = params.kappa - params.c1 / 2
    coef2 = params.c1 / 4 - params.c2 / Fraction(2 * model.n)

    def cyc_term(xi, yi, zi):
        x, y, z = (model.basis_vector(v) for v in (xi, yi, zi))
        Ax, Ay = A @ x, A @ y
        out = (A @ z) * (coef1 * (x @ model.omega @ y))
        for a in range(3):
            ga = model.g[a]
            c = coef2 * (Ay @ ga @ x - Ax @ ga @ y)
            if c != 0:
                out = out + (model.J[a] @ z) * c
        return out

    return cyc_term(i, j, k) + cyc_term(j, k, i) + cyc_term(k, i, j)


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


def test_antisymmetry_and_g_values(model2, basis2, pinned2):
    rng = random.Random(30)
    el = _random_element(model2, basis2, rng)
    tensor = curv.curvature_of(model2, basis2, el, pinned2)
    for (i, j) in [(0, 1), (2, 6), (3, 4)]:
        assert tensor[i, j].T == tensor[j, i].T * Fraction(-1)
        assert tensor[i, i].T.max_abs() == 0
        liealg.decompose(model2, tensor[i, j].T)  # in g


def test_kernel_equals_projection_definition(model2, basis2, model3, basis3,
                                             pinned2):
    # the kernel's expanded formula against the definition of R_A by the
    # invariant projections, on every basis pair
    off = curv.CurvParams(Fraction(7, 3), 5, -2)
    cases = [(model2, basis2, el, pinned2) for el in basis2.elements()]
    cases += [(model2, basis2, el, off) for el in
              (basis2.sp_basis[0], basis2.so_basis[0],
               _random_element(model2, basis2, random.Random(31)))]
    for model, basis in ((model2, basis2), (model3, basis3)):
        cases += [(model, basis, el, off) for el in
                  (basis.so_basis[0], basis.so_basis[-1], basis.sp_basis[1])]
    for model, basis, el, params in cases:
        tensor = curv.curvature_of(model, basis, el, params)
        for i, j in itertools.combinations(range(model.dim), 2):
            x, y = model.basis_vector(i), model.basis_vector(j)
            assert tensor[i, j].T == curv.curvature_by_definition(
                model, el, params, x, y), (i, j)


def test_bianchi_pinned_zero_all_basis(model2, basis2, pinned2):
    for el in basis2.elements():
        tensor = curv.curvature_of(model2, basis2, el, pinned2)
        assert curv.bianchi_residual(tensor) == 0


def test_bianchi_perturbed_nonzero(model2, basis2):
    # the fixed 2x2 grid of coefficient perturbations must all break it
    for d1 in (1, -1):
        for d2 in (1, -1):
            params = curv.CurvParams(1, 2 + d1, 2 + d2)
            found = any(
                curv.bianchi_residual(
                    curv.curvature_of(model2, basis2, el, params)) != 0
                for el in basis2.elements())
            assert found, (d1, d2)


def test_bianchi_axis_perturbation_J1(model2, basis2):
    # (c1, c2) = (2k, nk + 1) with A = J1: the sp1 coefficient is off
    params = curv.CurvParams(1, 2, 3)
    tensor = curv.curvature_of(model2, basis2, basis2.sp_basis[0], params)
    assert curv.bianchi_residual(tensor) != 0


def test_bianchi_defect_closed_form(model2, basis2):
    # the predicted off-pinning defect matches the tensor cyclic sum for
    # arbitrary coefficients; at the pinning it is identically zero
    rng = random.Random(34)
    for _ in range(4):
        params = curv.CurvParams(rng.randint(1, 3), rng.randint(-4, 4),
                                 rng.randint(-4, 4))
        el = _random_element(model2, basis2, rng)
        tensor = curv.curvature_of(model2, basis2, el, params)
        for _ in range(12):
            i, j, k = (rng.randrange(8) for _ in range(3))
            actual = tensor[i, j, k] + tensor[j, k, i] + tensor[k, i, j]
            want = bianchi_defect_closed_form(model2, el, params, i, j, k)
            assert actual == want
    pinned = curv.CurvParams.pinned(1, 2)
    el = _random_element(model2, basis2, rng)
    for _ in range(10):
        i, j, k = (rng.randrange(8) for _ in range(3))
        defect = bianchi_defect_closed_form(model2, el, pinned, i, j, k)
        assert defect.max_abs() == 0


def test_ricci_coefficients_n2(model2, basis2, pinned2):
    for el in basis2.so_basis:
        ric = curv.ricci_of(curv.curvature_of(model2, basis2, el, pinned2))
        assert ric == curv.omega_pairing(model2, el) * Fraction(8)
    for el in basis2.sp_basis:
        ric = curv.ricci_of(curv.curvature_of(model2, basis2, el, pinned2))
        assert ric == curv.omega_pairing(model2, el) * Fraction(8)


def test_ricci_coefficients_n3_separate(model3, basis3):
    # n = 3 splits the two coefficients: 2(n+2) = 10 vs 4n = 12
    params = curv.CurvParams.pinned(1, 3)
    el = basis3.so_basis[0]
    ric = curv.ricci_of(curv.curvature_of(model3, basis3, el, params))
    assert ric == curv.omega_pairing(model3, el) * Fraction(10)
    el = basis3.sp_basis[2]
    ric = curv.ricci_of(curv.curvature_of(model3, basis3, el, params))
    assert ric == curv.omega_pairing(model3, el) * Fraction(12)


def test_ricci_closed_form_and_symmetry(model2, basis2, pinned2):
    rng = random.Random(32)
    for _ in range(8):
        el = _random_element(model2, basis2, rng)
        tensor = curv.curvature_of(model2, basis2, el, pinned2)
        ric = curv.ricci_of(tensor)
        assert ric == curv.ricci_closed_form(model2, el, 1)
        assert ric == ric.T


def test_ricci_linearity_split(model2, basis2, pinned2):
    rng = random.Random(33)
    a1 = model2.omega * 0
    for b in basis2.so_basis:
        a1 = a1 + b * Fraction(rng.randint(-3, 3))
    a2 = model2.omega * 0
    for b in basis2.sp_basis:
        a2 = a2 + b * Fraction(rng.randint(-3, 3))
    ric = curv.ricci_of(curv.curvature_of(model2, basis2, a1 + a2, pinned2))
    split = (curv.omega_pairing(model2, a1) * Fraction(8)
             + curv.omega_pairing(model2, a2) * Fraction(8))
    assert ric == split
    ric1 = curv.ricci_of(curv.curvature_of(model2, basis2, a1, pinned2))
    ric2 = curv.ricci_of(curv.curvature_of(model2, basis2, a2, pinned2))
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
    mixed = basis3.so_basis[0] + basis3.sp_basis[0]
    ric = curv.ricci_of(curv.curvature_of(model3, basis3, mixed, params))
    ok, _ = curv.is_Q_hermitian(model3, ric)
    assert not ok


def test_hermitian_trivial_cases(model2):
    ok, witness = curv.is_Q_hermitian(model2, model2.omega * 0)
    assert ok and witness is None
    # omega0 itself is invariant under the whole 2-sphere
    ok, _ = curv.is_Q_hermitian(model2, model2.omega)
    assert ok


def _quaternionic(J) -> bool:
    """The premise of the Hermiticity lemma of the curvature docstring:
    J_a^T = -J_a, J_a^2 = -Id and J_1 J_2 = J_3."""
    minus_id = QArray.eye(J.shape[-1]) * -1
    return (all(Ja.T == -Ja and Ja @ Ja == minus_id for Ja in J)
            and J[0] @ J[1] == J[2])


def _rotated(model, p):
    """The model in the frame rotated by the unit q = p^2 / |p|^2."""
    p = Quaternion.of(*p)
    q = Quaternion.of(*(c / p.norm2() for c in (p * p).components()))
    frame = sp1_conjugate_frame(model, q)
    return FlatModel(model.n, frame, model.omega, model.omega @ frame)


_P = [(1, 2, -1, 3), (0, 1, 1, 0), (2, -3, 0, 1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hermiticity_lemma_premise(n):
    model = build_flat_model(n)
    assert _quaternionic(model.J)
    assert _quaternionic(_rotated(model, _P[0]).J)
    # J_2[0, 2] negated: J_2 is no longer skew
    broken = model.J.values.copy()
    broken[1, 0, 2] *= -1
    assert not _quaternionic(QArray(broken))


@pytest.mark.parametrize("n", [2, 3])
def test_generators_decide_hermiticity_in_every_frame(n):
    model, basis = _model_and_basis(n)
    params = curv.CurvParams.pinned(1, n)
    frames = [_rotated(model, p) for p in _P]
    for hermitian, elements in ((True, basis.so_basis), (False, basis.sp_basis)):
        for el in elements:
            ric = curv.ricci_of(curv.curvature_of(model, basis, el, params))
            assert curv.is_Q_hermitian(model, ric)[0] is hermitian
            for frame in frames:
                assert curv.is_Q_hermitian(frame, ric)[0] is hermitian


def test_curvature_map_rank(model2, basis2, pinned2, model3, basis3):
    rows = _rows(model2, basis2, pinned2)
    assert _map_ranks(rows) == (9, 9)
    rows[-1] = rows[0]  # a duplicated row costs both ranks exactly one
    assert _map_ranks(rows) == (8, 8)
    assert _map_ranks(_rows(model3, basis3, curv.CurvParams.pinned(1, 3))) == (18, 18)


def test_a_singular_column_choice_fails_the_verifier(model2, basis2, pinned2):
    # a column that equals the first chosen column up to sign, in place of
    # the last one, makes a singular 9 x 9 minor of nonzero columns
    rows = _rows(model2, basis2, pinned2)
    columns = curv.minor_columns(rows)
    everywhere = sorted({int(c) for positions, _ in rows for c in positions})
    full = curv._minor(rows, everywhere).values
    first = full[:, everywhere.index(columns[0])]
    twin = next(c for c, col in zip(everywhere, full.T) if c != columns[0]
                and (np.array_equal(col, first) or np.array_equal(col, -first)))
    singular = columns[:-1] + [twin]
    assert len(set(singular)) == 9
    assert curv.curvature_map_rank(rows, singular) == 8
    assert curv.curvature_map_rank_float(rows, singular) == 8


@pytest.mark.parametrize("kappa", [Fraction(4398046511104123, 1000000000000037),
                                   Fraction(2 ** 70 + 1, 3), Fraction(2147483629)])
def test_wide_kappa_exact(model2, basis2, pinned2, kappa):
    # the scaled tensor leaves the int64 range for the second: exact all
    # the same.  The primitive rows are those of kappa = 1, so they certify
    # the rank at kappa = p too, where every entry of R_A is 0 mod p
    pinned = curv.CurvParams.pinned(kappa, 2)
    rows = []
    for el in basis2.elements():
        tensor = curv.curvature_of(model2, basis2, el, pinned)
        assert curv.bianchi_residual(tensor) == 0
        rows.append(curv.primitive_row(tensor))
    off = curv.CurvParams(kappa, pinned.c1 + 1, pinned.c2)
    assert any(curv.bianchi_residual(
        curv.curvature_of(model2, basis2, el, off)) != 0
        for el in basis2.elements())
    for el, coef in ((basis2.so_basis[0], 2 * (2 + 2)), (basis2.sp_basis[0], 4 * 2)):
        ric = curv.ricci_of(curv.curvature_of(model2, basis2, el, pinned))
        assert ric == curv.omega_pairing(model2, el) * (coef * kappa)
    for (pos, values), (pos1, values1) in zip(rows, _rows(model2, basis2, pinned2)):
        assert np.array_equal(pos, pos1) and np.array_equal(values, values1)
    assert _map_ranks(rows) == (9, 9)


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
                                     el, pinned[model.n])
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
    rows = []
    for el in basis.elements():
        tensor = curv.curvature_of(model, basis, el, params)
        assert curv.bianchi_residual(tensor) == 0
        rows.append(curv.primitive_row(tensor))
    for el, coef in ((basis.so_basis[0], 2 * (n + 2)), (basis.sp_basis[0], 4 * n)):
        ric = curv.ricci_of(curv.curvature_of(model, basis, el, params))
        assert ric == curv.omega_pairing(model, el) * coef
    rank = n * (2 * n - 1) + 3
    assert _map_ranks(rows) == (rank, rank)


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
    params = curv.CurvParams(Fraction(7, 3), Fraction(-5, 2), Fraction(9, 4))
    for el in basis.elements():
        for p in (curv.CurvParams.pinned(1, n), params):
            _same_tensor(*_kernel_paths(model, basis, el, p))


_small = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(_small, min_size=9, max_size=9),
       kappa=_small.filter(bool), c1=_small, c2=_small)
def test_int64_kernel_matches_object_path_on_combinations(model2, basis2, coeffs,
                                                           kappa, c1, c2):
    combo = sum(b * c for b, c in zip(basis2.elements(), coeffs))
    _same_tensor(*_kernel_paths(model2, basis2, combo,
                                curv.CurvParams(kappa, c1, c2)))


def test_wide_rational_A_takes_object_fallback(model2, basis2):
    # entries around 2^62 / 3: the bound refuses int64, and the tensor
    # itself leaves the int64 range
    a1 = basis2.so_basis[0] * Fraction(2 ** 62 + 1, 3)
    a2 = basis2.sp_basis[0] * Fraction(-(2 ** 62) + 5, 3)
    el = a1 + a2
    tensor, dtype, _ = _kernel_paths(model2, basis2, el, curv.CurvParams.pinned(1, 2))
    assert dtype is object
    assert max(map(abs, tensor.values.flat)) >= 2 ** 63
    assert curv.bianchi_residual(tensor) == 0
    ric = curv.ricci_of(tensor)
    assert ric == (curv.omega_pairing(model2, a1) * Fraction(8)
                   + curv.omega_pairing(model2, a2) * Fraction(8))
    assert ric == curv.ricci_closed_form(model2, el, 1)


def test_overflow_bounds_are_python_ints(model2):
    # 2^40 * 2^30 overflows int64 in the bound of an einsum when computed
    # in it
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
    combo = (basis2.so_basis[0] * (2 ** 20 + 1)
             + basis2.sp_basis[0] * Fraction(2 ** 19, 3))
    tensor, dtype, slow = _kernel_paths(model2, basis2, combo,
                                        curv.CurvParams(3, 2 ** 6, 5))
    assert dtype is object
    assert max(map(abs, tensor.values.flat)) >= 2 ** 63
    assert tensor.scale == slow.scale
    _check_values(tensor)
    assert np.array_equal(tensor.values, slow.values)


def test_second_paths_never_call_the_kernel(model3, basis3, monkeypatch):
    params = curv.CurvParams.pinned(1, 3)
    el = basis3.sp_basis[0]
    rows = _rows(model3, basis3, params)
    columns = curv.minor_columns(rows)
    tensor = curv.curvature_of(model3, basis3, el, params)
    ric = curv.ricci_of(tensor)

    def refuse(*args):
        raise AssertionError("the kernel was called")
    monkeypatch.setattr(curv, "_parts", refuse)
    with pytest.raises(AssertionError):
        curv.curvature_of(model3, basis3, el, params)
    assert curv.curvature_by_definition(model3, el, params,
                                        model3.basis_vector(0),
                                        model3.basis_vector(5)) == tensor[0, 5].T
    assert bianchi_defect_closed_form(model3, el, params,
                                      0, 5, 7).max_abs() == 0
    assert curv.ricci_closed_form(model3, el, 1) == ric
    assert curv.is_Q_hermitian(model3, ric)[0] is False
    assert curv.is_Q_hermitian(model3, model3.omega) == (True, None)
    assert curv.curvature_map_rank_float(rows, columns) == 18

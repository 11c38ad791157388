import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from qsh_lab import liealg
from qsh_lab import matrices as mat
from qsh_lab.matrices import QArray
from qsh_lab.linmodel import FlatModel, build_flat_model, sp1_conjugate_frame
from qsh_lab.quaternion import Quaternion
from qsh_lab.serialize import basis_to_json

GOLDEN = pathlib.Path(__file__).parent / "golden" / "so_star_basis_n2.json"


def _rational_vector(rng, dim):
    return QArray.of([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(dim)])


def _outer(u, v):
    return u[:, None] @ v[None, :]


@pytest.mark.parametrize("n_fixture,expected", [("basis2", 6), ("basis3", 15)])
def test_dimension_formula(n_fixture, expected, request):
    basis = request.getfixturevalue(n_fixture)
    assert len(basis.so_basis) == expected
    assert len(basis.sp_basis) == 3
    assert len(basis.elements()) == expected + 3


def test_basis_defining_equations(model2, basis2):
    dim = model2.dim
    for B in basis2.so_basis:
        assert liealg.commutation_defect(model2, B) == 0
        assert liealg.symplectic_defect(model2, B).max_abs() == 0
        assert sum(B[i][i] for i in range(dim)) == 0
        for Ja in model2.J:
            assert sum(sum(Ja[i][k] * B[k][i] for k in range(dim))
                       for i in range(dim)) == 0


def test_basis_linear_independence(model2, basis2):
    rows = QArray.of([[e for row in B for e in row]
                      for B in basis2.elements()])
    assert mat.rank(rows) == len(rows)


def test_golden_basis_export(basis2):
    assert basis_to_json(basis2) == GOLDEN.read_text()


def test_decompose_basis_elements(model2, basis2):
    so_part, sp_coeffs, residual = liealg.decompose(model2, model2.J[1])
    assert sp_coeffs == (0, 1, 0) and residual == 0
    assert so_part.max_abs() == 0
    first = basis2.so_basis[0]
    so_part, sp_coeffs, residual = liealg.decompose(model2, first)
    assert sp_coeffs == (0, 0, 0) and residual == 0
    assert so_part == first


def test_decompose_random_roundtrip(model2, basis2):
    rng = random.Random(20)
    for _ in range(10):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in basis2.elements()]
        combo = model2.omega * 0
        for c, b in zip(coeffs, basis2.elements()):
            combo = combo + b * c
        so_part, sp_coeffs, residual = liealg.decompose(model2, combo)
        assert tuple(sp_coeffs) == tuple(coeffs[-3:]) and residual == 0
        assert so_part + _span(model2, sp_coeffs) == combo


def _span(model, coeffs):
    out = model.omega * 0
    for c, Ja in zip(coeffs, model.J):
        out = out + Ja * c
    return out


def test_decompose_rejects_outsiders(model2):
    assert liealg.decompose(model2, QArray.eye(model2.dim))[2] > 0


def test_projection_lands_in_targets(model2):
    rng = random.Random(21)
    for _ in range(5):
        x = _rational_vector(rng, model2.dim)
        y = _rational_vector(rng, model2.dim)
        p = liealg.project_ZQ(model2, x, y)
        assert liealg.commutation_defect(model2, p) == 0
        q = liealg.project_Q(model2, x, y)
        assert liealg.project_Q_operator(model2, q) == q


def test_projection_trace_identity(model2):
    # Tr(omega0(x,-) (x) J_a y) = g_a(x, y), the reduction behind project_Q
    m = model2
    rng = random.Random(22)
    for _ in range(10):
        x = _rational_vector(rng, m.dim)
        y = _rational_vector(rng, m.dim)
        omega_x = -(m.omega @ x)
        for a in range(3):
            op = _outer(m.J[a] @ y, omega_x)
            trace = sum(op[i][i] for i in range(m.dim))
            assert trace == x @ m.g[a] @ y


def test_project_Q_vanishes_on_orthogonal_pair(model2):
    # y ranges over the exact solution space of g_a(e0, y) = 0, a = 1, 2, 3
    m = model2
    e0 = m.basis_vector(0)
    conditions = m.g @ e0
    solutions = mat.nullspace(conditions)
    assert len(solutions) == m.dim - 3
    for y in solutions:
        assert all(e0 @ ga @ y == 0 for ga in m.g)
        assert liealg.project_Q(m, e0, y).max_abs() == 0


def test_projection_frame_independence(model2):
    rng = random.Random(24)
    q = Quaternion(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    frame = sp1_conjugate_frame(model2, q)
    rotated = FlatModel(model2.n, frame, model2.omega, model2.omega @ frame)
    assert rotated.J != model2.J
    for _ in range(5):
        x = _rational_vector(rng, model2.dim)
        y = _rational_vector(rng, model2.dim)
        assert liealg.project_ZQ(model2, x, y) == liealg.project_ZQ(rotated, x, y)
        assert liealg.project_Q(model2, x, y) == liealg.project_Q(rotated, x, y)


def test_projection_idempotence_and_cross(model2, basis2):
    ident = QArray.eye(model2.dim)
    assert liealg.project_ZQ_operator(model2, ident) == ident
    assert liealg.project_Q_operator(model2, ident).max_abs() == 0
    for el in basis2.so_basis[:3]:
        assert liealg.project_ZQ_operator(model2, el) == el
        assert liealg.project_Q_operator(model2, el).max_abs() == 0
    for Ja in model2.J:
        assert liealg.project_Q_operator(model2, Ja) == Ja
        assert liealg.project_ZQ_operator(model2, Ja).max_abs() == 0


def test_project_ZQ_against_least_squares_oracle(model2):
    """Orthogonal-projection oracle: conjugation by unit quaternions is
    orthogonal for the trace pairing, so the invariant projection onto the
    centralizer is the trace-orthogonal one; solve the normal equations
    over the nullspace-enumerated centralizer basis and compare."""
    m = model2
    zq = list(liealg.centralizer_basis(m))
    flat = [QArray.of([e for row in b for e in row]) for b in zq]
    gram = QArray.of([[a @ b for b in flat] for a in flat])
    rng = random.Random(25)
    cases = [(m.basis_vector(0), m.basis_vector(0))]
    for _ in range(3):
        cases.append((_rational_vector(rng, m.dim), _rational_vector(rng, m.dim)))
    for x, y in cases:
        omega_x = -(m.omega @ x)
        target = QArray.of([e for row in _outer(y, omega_x) for e in row])
        rhs = QArray.of([b @ target for b in flat])
        coeffs = mat.solve(gram, rhs)
        proj = m.omega * 0
        for c, b in zip(coeffs, zq):
            if c:
                proj = proj + b * c
        assert proj == liealg.project_ZQ(m, x, y)


def test_circle_map_symmetry_and_parts(model2):
    m = model2
    rng = random.Random(26)
    kappa = Fraction(1)
    for _ in range(5):
        x = _rational_vector(rng, m.dim)
        y = _rational_vector(rng, m.dim)
        assert liealg.circle_map(m, x, y, kappa) == liealg.circle_map(m, y, x, kappa)
        # sp1 component formula
        sp = liealg.circle_sp1(m, x, y)
        expected = m.omega * 0
        for a in range(3):
            c = Fraction(-1, 2 * m.n) * (x @ m.g[a] @ y)
            expected = expected + m.J[a] * c
        assert sp == expected
        # so* part is the invariant projection of the symmetrized operator
        fxy = _outer(y, -(m.omega @ x)) + _outer(x, -(m.omega @ y))
        assert liealg.circle_so_star(m, x, y) == \
            liealg.project_ZQ_operator(m, fxy)


def test_circle_map_equivariance(model2, basis2):
    rng = random.Random(27)
    for B in [basis2.so_basis[0], basis2.so_basis[3], basis2.sp_basis[1]]:
        x = _rational_vector(rng, model2.dim)
        y = _rational_vector(rng, model2.dim)
        circ = liealg.circle_map(model2, x, y, Fraction(1))
        lhs = B @ circ - circ @ B
        rhs = (liealg.circle_map(model2, B @ x, y, Fraction(1))
               + liealg.circle_map(model2, x, B @ y, Fraction(1)))
        assert lhs == rhs


def _circle_identity_failures(m, kappa, circle_map):
    """The basis triples (i, j, k) where (x o y)z - (x o z)y differs from
    (k/2)(2 w(y, z) x - w(x, y) z + w(x, z) y) for x, y, z = e_i, e_j, e_k.
    The identity fixes the ratio 2k : nk of the two parts of x o y."""
    e, w = QArray.eye(m.dim), m.omega
    circ = [[circle_map(m, x, y, kappa) for y in e] for x in e]
    return [(i, j, k) for i, j, k in itertools.product(range(m.dim), repeat=3)
            if circ[i][j][:, k] - circ[i][k][:, j]
            != (e[i] * (2 * w[j, k]) - e[k] * w[i, j] + e[j] * w[i, k]) * (kappa / 2)]


@pytest.mark.parametrize("kappa", [Fraction(1), Fraction(-3, 7)])
@pytest.mark.parametrize("n", [2, 3])
def test_circle_map_normalization(n, kappa):
    assert _circle_identity_failures(build_flat_model(n), kappa, liealg.circle_map) == []


def test_circle_map_normalization_pins_the_sp1_coefficient(model2):
    def sp1_off_by_kappa(m, x, y, kappa):
        return (liealg.circle_so_star(m, x, y) * (2 * kappa)
                + liealg.circle_sp1(m, x, y) * ((m.n + 1) * kappa))
    assert _circle_identity_failures(model2, Fraction(1), sp1_off_by_kappa)


def test_circle_map_membership(model2):
    rng = random.Random(28)
    x = _rational_vector(rng, model2.dim)
    y = _rational_vector(rng, model2.dim)
    circ = liealg.circle_map(model2, x, y, Fraction(2))
    assert liealg.decompose(model2, circ)[2] == 0


def test_commutant_block_basis_is_computed_once():
    first = liealg._commutant_block_basis()
    assert liealg._commutant_block_basis() is first
    assert first.shape == (4, 4, 4)
    assert not first.values.flags.writeable

"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Tolerances and trial counts are pinned
here; everything exact is asserted with zero tolerance.

Run: pytest tests/test_acceptance.py -v -s
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from qsh_lab import curvature as curv
from qsh_lab import forms
from qsh_lab import liealg
from qsh_lab import scalarfield as sf
from qsh_lab import swann
from qsh_lab.quaternion import Quaternion

def _report(number, label, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    line = f"[{number:>2}] {status} {label}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert passed, line


def test_criterion_01_dimension_checks(basis2, basis3):
    start = time.perf_counter()
    ok2 = len(basis2.so_basis) == 6
    elapsed2 = time.perf_counter() - start
    start = time.perf_counter()
    ok3 = len(basis3.so_basis) == 15
    elapsed3 = time.perf_counter() - start
    # fixtures may be cached; re-enumerate n=2 cold to time the real work
    from qsh_lab.liealg import enumerate_so_star_basis
    from qsh_lab.linmodel import build_flat_model
    start = time.perf_counter()
    cold = enumerate_so_star_basis(build_flat_model(2))
    cold_time = time.perf_counter() - start
    ok_time = cold_time < 5.0
    _report(1, "so*(2n) basis has 6 elements at n=2 and 15 at n=3, "
               "exact arithmetic, < 5 s",
            ok2 and ok3 and len(cold.so_basis) == 6 and ok_time,
            f"cold n=2 enumeration {cold_time:.2f}s")


def test_criterion_02_bianchi_pinning(model2, basis2, model3, basis3):
    start = time.perf_counter()
    ok = True
    for model, basis, n in ((model2, basis2, 2), (model3, basis3, 3)):
        params = curv.CurvParams.pinned(1, n)
        for el in basis.elements():
            tensor = curv.curvature_of(model, basis, el, params)
            if curv.bianchi_residual(tensor) != 0:
                ok = False
        for d1 in (1, -1):
            for d2 in (1, -1):
                perturbed = curv.CurvParams(1, params.c1 + d1, params.c2 + d2)
                found = any(
                    curv.bianchi_residual(
                        curv.curvature_of(model, basis, el, perturbed)) != 0
                    for el in basis.elements())
                ok = ok and found
    elapsed = time.perf_counter() - start
    _report(2, "Bianchi residual is exactly 0 on the pinned coefficients for "
               "every basis A at n=2,3 and nonzero for all four perturbed "
               "pairs, < 60 s", ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_03_ricci_formulas(model2, basis2, model3, basis3):
    start = time.perf_counter()
    ok = True
    rng = random.Random(42)
    for model, basis, n in ((model2, basis2, 2), (model3, basis3, 3)):
        params = curv.CurvParams.pinned(1, n)
        so_coef = Fraction(2 * (n + 2))
        sp_coef = Fraction(4 * n)
        for el in basis.so_basis:
            ric = curv.ricci_of(curv.curvature_of(model, basis, el, params))
            ok = ok and ric == curv.omega_pairing(model, el) * so_coef
        for el in basis.sp_basis:
            ric = curv.ricci_of(curv.curvature_of(model, basis, el, params))
            ok = ok and ric == curv.omega_pairing(model, el) * sp_coef
        # closed form vs trace computation, 10 random A per n (20 total)
        for _ in range(10):
            combo = model.omega * 0
            for b in basis.elements():
                combo = combo + b * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            ric = curv.ricci_of(curv.curvature_of(model, basis, combo, params))
            ok = ok and ric == curv.ricci_closed_form(model, combo, 1)
    elapsed = time.perf_counter() - start
    _report(3, "trace Ricci equals 2(n+2)k omega(A.,.) on the commuting part "
               "and 4nk omega(A.,.) on the sp1 part at n=2 and n=3; closed "
               "form matches for 20 random A; exact, < 60 s",
            ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_04_ricci_symmetry_dichotomy(model3, basis3):
    params = curv.CurvParams.pinned(1, 3)
    ok = True
    witness_seen = False
    for el in basis3.elements():
        ric = curv.ricci_of(curv.curvature_of(model3, basis3, el, params))
        ok = ok and ric == ric.T
        hermitian, witness = curv.is_Q_hermitian(model3, ric)
        is_so = liealg.decompose(model3, el)[1] == (0, 0, 0)
        ok = ok and (hermitian == is_so)
        if not hermitian:
            witness_seen = witness_seen or witness is not None
    mixed = basis3.so_basis[0] + basis3.sp_basis[1]
    ric = curv.ricci_of(curv.curvature_of(model3, basis3, mixed, params))
    hermitian, witness = curv.is_Q_hermitian(model3, ric)
    ok = ok and not hermitian and witness is not None
    _report(4, "Ric_A is symmetric for every basis A; Hermitian iff the sp1 "
               "part vanishes, with explicit witnesses", ok and witness_seen)


def test_criterion_05_curvature_space_dimension(model2, basis2, model3, basis3):
    ok = True
    for model, basis, n in ((model2, basis2, 2), (model3, basis3, 3)):
        params = curv.CurvParams.pinned(1, n)
        rows = [curv.primitive_row(curv.curvature_of(model, basis, el, params))
                for el in basis.elements()]
        columns = curv.minor_columns(rows)
        exact = curv.curvature_map_rank(rows, columns)
        approx = curv.curvature_map_rank_float(rows, columns)
        expected = n * (2 * n - 1) + 3
        ok = ok and exact == expected and approx == expected
    _report(5, "rank of A -> R_A equals n(2n-1)+3 (9 at n=2, 18 at n=3), "
               "exact rank, float SVD agrees within 1e-8", ok)


def test_criterion_06_fiber_coframe():
    rng = random.Random(42)
    ok = True
    theta = sf.evaluator([forms.THETA_IN_DH[i].coefficient((b,))
                          for i in range(4) for b in range(4)])
    for _ in range(50):
        point = forms.sample_rational_point(rng)
        mc = forms.maurer_cartan_components(Quaternion(*point))
        ok = ok and tuple(c for row in mc for c in row) == theta(point)
    rep = forms.is_zero_form(forms.d(forms.ALPHA_IN_DH[0]), trials=100,
                             tolerance=1e-10, rng=rng)
    ok = ok and rep.equal
    worst = rep.max_residual
    for a in (1, 2, 3):
        rep = forms.equal(forms.d(forms.ALPHA_IN_DH[a]),
                          forms.to_dh(forms.structure_dalpha(a)),
                          trials=100, tolerance=1e-10, rng=rng)
        ok = ok and rep.equal
        worst = max(worst, rep.max_residual)
    _report(6, "coframe formulas match the quaternion oracle exactly at 50 "
               "rational points; d a0 = 0 and the structure equations hold "
               "with residual < 1e-10 at 100 points", ok,
            f"worst residual {worst:.2e}")


def test_criterion_07_beta_suite():
    rng = random.Random(42)
    ok = True
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            form = swann.beta_basis_form(b)
            pulled = forms.pullback_hyper(form, a)
            ok = ok and set(pulled.terms) == set(form.terms)
            ok = ok and all(sf.is_zero(sf.sub(pulled.terms[k], form.terms[k]))
                            for k in form.terms)
    worst = 0.0
    for a in (1, 2, 3):
        form = swann.beta_basis_form(a)
        structural = forms.d_via_structure(form)
        ok = ok and structural.is_structurally_zero()
        rep = forms.is_zero_form(forms.d(forms.to_dh(form)), trials=100,
                                 tolerance=1e-10, rng=rng)
        ok = ok and rep.equal
        worst = max(worst, rep.max_residual)
    _report(7, "each beta_b is invariant under every hypercomplex pullback "
               "(exact substitution); d beta_a = 0 on the trivial fiber via "
               "two independent paths agreeing to 1e-10", ok,
            f"coordinate-path residual {worst:.2e}")


def test_criterion_08_pde_equivalence():
    rng = random.Random(42)
    ok = True

    def random_field(depth=0):
        r = rng.random()
        if depth > 2 or r < 0.3:
            return sf.const(Fraction(rng.randint(-3, 3)))
        if r < 0.55:
            return sf.var(rng.randrange(4))
        if r < 0.62:
            return sf.exp(sf.mul(sf.const(Fraction(1, 2)),
                                 sf.var(rng.randrange(4))))
        return rng.choice([sf.add, sf.sub, sf.mul])(
            random_field(depth + 1), random_field(depth + 1))

    for _ in range(10):
        solution = swann.FlatSolution(F=tuple(random_field() for _ in range(3)))
        rep = swann.dbeta_equals_pde(solution, trials=40, tolerance=1e-10,
                                     rng=rng)
        ok = ok and rep.equal
    good = swann.FlatSolution(F=(sf.H1, sf.neg(sf.H2), sf.ZERO))
    ok = ok and all(sf.is_zero(r) for r in swann.pde_residuals(good))
    bad = swann.FlatSolution(F=(sf.H0, sf.ZERO, sf.ZERO))
    residuals = swann.pde_residuals(bad)
    ok = ok and sf.constant_value(residuals[0]) == 1
    dbeta = forms.d(swann.beta_of_F(bad))
    ok = ok and sf.constant_value(dbeta.coefficient((0, 2, 3))) == 1
    _report(8, "d beta components equal the four PDE residuals for 10 random "
               "F under the documented sign table; (h1,-h2,0) passes and "
               "(h0,0,0) fails with the predicted residual", ok)


def test_criterion_09_solution_family():
    rng = random.Random(42)
    ok = True
    worst = 0.0
    for _ in range(20):
        constants = swann.SolutionConstants(
            C1=Fraction(rng.randint(-2, 2)), C2=Fraction(rng.randint(-2, 2)),
            C3=Fraction(rng.randint(-2, 2)), C4=Fraction(rng.randint(-2, 2)),
            C5=Fraction(rng.randint(-2, 2)), C6=Fraction(rng.randint(-2, 2)),
            C7=Fraction(rng.randint(-2, 2)), C8=Fraction(rng.randint(-2, 2)),
            C9=Fraction(rng.randint(-2, 2)), C10=Fraction(rng.randint(-2, 2)),
            s1=Fraction(rng.randint(1, 4), 2), s2=Fraction(rng.randint(1, 4), 2),
            s3=Fraction(rng.randint(0, 4), 2), C14=Fraction(rng.randint(-2, 2)))
        solution = swann.explicit_solution_family(constants)
        evaluate = sf.evaluator(swann.pde_residuals(solution))
        for _ in range(100):
            point = forms.sample_point(rng)
            worst = max(worst, max(abs(float(v)) for v in evaluate(point)))
    ok = ok and worst < 1e-8
    cross_worst = 0.0
    for _ in range(5):
        constants = swann.SolutionConstants(
            C1=Fraction(rng.randint(-2, 2)), C2=Fraction(rng.randint(-2, 2)),
            C7=Fraction(rng.randint(-2, 2) or 1), C8=Fraction(rng.randint(-2, 2)),
            s1=Fraction(rng.randint(1, 3), 2), s2=Fraction(rng.randint(1, 3), 2),
            s3=Fraction(rng.randint(0, 3), 2))
        solution = swann.explicit_solution_family(constants)
        frame = swann.beta_form(swann.f_from_F(solution))
        rep = forms.equal(forms.to_dh(frame), swann.beta_of_F(solution),
                          trials=40, tolerance=1e-8, rng=rng)
        ok = ok and rep.equal
        cross_worst = max(cross_worst, rep.max_residual)
    _report(9, "the closed-form family solves all four PDEs to < 1e-8 for 20 "
               "random constant sets at 100 points; cross-representation "
               "equality < 1e-8", ok,
            f"pde {worst:.2e}, cross {cross_worst:.2e}")


def test_criterion_10_symspace_primitive():
    rng = random.Random(42)
    ok = True
    for _ in range(50):
        while True:
            c1, c2, c3 = (Fraction(rng.randint(-3, 3)) for _ in range(3))
            if (c1, c2, c3) != (0, 0, 0):
                break
        params = swann.SymSpaceParams(c=Fraction(rng.randint(-4, 4) or 1),
                                      n=rng.choice([2, 3]), c1=c1, c2=c2, c3=c3,
                                      c4=Fraction(rng.randint(-3, 3)))
        h = Quaternion(*forms.sample_rational_point(rng))
        ok = ok and swann.symspace_r(params, h) == swann.symspace_r_oracle(params, h)
    worst = 0.0
    last_params = None
    for _ in range(10):
        while True:
            c1, c2, c3 = (Fraction(rng.randint(-3, 3)) for _ in range(3))
            if (c1, c2, c3) != (0, 0, 0):
                break
        params = swann.SymSpaceParams(c=Fraction(rng.randint(-4, 4) or 1),
                                      n=rng.choice([2, 3]), c1=c1, c2=c2, c3=c3,
                                      c4=Fraction(rng.randint(-3, 3)))
        last_params = params
        rep = swann.symspace_primitive_check(params, trials=100,
                                             tolerance=1e-8, rng=rng)
        ok = ok and rep.equal
        worst = max(worst, rep.max_residual)
    rep = swann.symspace_ddf_check(last_params, trials=50, rng=rng)
    ok = ok and rep.equal
    _report(10, "the closed adjoint-orbit formulas equal the quaternion "
                "oracle exactly; df = tau with residual < 1e-8 at 100 points "
                "for 10 random parameter sets; d(df) = 0", ok,
            f"df-tau residual {worst:.2e}")


def test_criterion_11_obstruction_mechanics():
    rng = random.Random(42)
    ok = True
    f_fields = (sf.add(sf.pow_(sf.H0, 2), sf.ONE), sf.H1, sf.H2)
    for trial in range(20):
        lam = sf.const(Fraction(rng.randint(1, 6)))
        r_fields = tuple(sf.mul(lam, f) for f in f_fields)
        rep = swann.general_obstruction_check(r_fields, f_fields, trials=30,
                                              rng=rng)
        ok = ok and rep.implication_holds and rep.witness is not None
    _report(11, "for nowhere-vanishing coefficients and nonzero proportional "
                "curvature factors, the five closedness conditions are "
                "jointly unsatisfiable with a witness in each of 20 trials", ok)


def test_criterion_12_full_run(tmp_path):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qsh_lab.cli", "run", "--suites", "all",
         "--n", "2", "--n", "3", "--seed", "42", "--output", str(out)],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 300.0 and out.exists()
    _report(12, "full `run --suites all --n 2 --n 3 --seed 42` exits 0 in "
                "under 5 minutes", ok, f"{elapsed:.1f}s")

import ast
import functools
import math
import pathlib
from fractions import Fraction

import pytest

from qsh_lab import curvature as curv
from qsh_lab import forms, liealg, suites, swann
from qsh_lab import scalarfield as sf
from qsh_lab import matrices as mat
from qsh_lab.cli import RunConfig, run
from qsh_lab.matrices import QArray
from qsh_lab.suites import (CHECKS, SUITE_NAMES, SUITE_RUNNERS, SuiteContext, _exact,
                            _verdict)

GOLDEN_F = pathlib.Path(__file__).resolve().parent / "golden" / "F_seed42.json"


def _ctx(**options):
    return SuiteContext(RunConfig(**options))


def _report(equal, residual, witness=None):
    return forms.EqualityReport(equal, residual, witness)


def test_suite_context_memo():
    config = RunConfig(seed=3)
    ctx = SuiteContext(config)
    assert (ctx.seed, ctx.ns, ctx.kappa, ctx.trials, ctx.tolerance, ctx.user_solution) == \
        (3, (2, 3), Fraction(1), 100, 1e-10, None)
    assert ctx._outcomes == {} and ctx._outcomes is not SuiteContext(config)._outcomes
    assert ctx.memo("k", lambda: 5) == 5 and ctx.memo("k", lambda: 6) == 5
    assert SuiteContext(config).memo("k", lambda: 6) == 6


def _stating(items, claim):
    """A generator check that yields `items` and returns `claim`."""
    yield from items
    return claim


def test_verdict_passes_with_worst_residual_and_detail():
    reports = [(_report(True, 1e-15), "first"), (_report(True, 3e-14), "second"),
               (_report(True, 0.0), "third")]
    assert _verdict(_stating(reports, "all held")) == (True, 3e-14, None, "all held")
    assert _verdict(_stating([], None)) == (True, 0.0, None, "")


def test_verdict_fails_on_first_unequal_report():
    reports = [(_report(True, 5.0), "a = 1"),
               (_report(False, 0.25, (1.0, 0.0, 0.0, 0.5)), "a = 2"),
               (_report(False, 9.0, (0.5, 0.5, 0.5, 0.5)), "a = 3")]
    assert _verdict(_stating(reports, "pass detail")) == \
        (False, 0.25, (1.0, 0.0, 0.0, 0.5), "a = 2")


def test_verdict_stops_pulling_after_a_failure():
    def check():
        yield _report(True, 1e-16), "first"
        yield _report(False, 1.0, (0.5, 0.0, 0.0, 0.0)), "second"
        raise AssertionError("pulled a report after the failing one")
    record = suites._run("fiber", "lazy", "stops at its first failure", check)
    assert (record.passed, record.residual, record.witness, record.detail) == \
        (False, 1.0, (0.5, 0.0, 0.0, 0.0), "second")


def test_structure_equations_record_carries_the_failing_report(monkeypatch):
    # the first forms.equal call against a nonzero form in the fiber suite
    # is structure-equations at a = 1, the second at a = 2
    real_equal = forms.equal
    calls = []
    failing = _report(False, 0.125, (0.5, -1.0, 0.25, 1.0))

    def equal(u, v, *args, **kwargs):
        if not v.is_structurally_zero():
            calls.append(v)
            if len(calls) == 2:
                return failing
        return real_equal(u, v, *args, **kwargs)
    monkeypatch.setattr(forms, "equal", equal)
    records = {r.name: r
               for r in SUITE_RUNNERS["fiber"](_ctx(seed=1, trials=5))}
    record = records["structure-equations"]
    assert not record.passed
    assert (record.residual, record.witness, record.detail) == \
        (0.125, (0.5, -1.0, 0.25, 1.0), "a = 2")


def _record(suite, name, ctx):
    """The record `suites._run` makes of the registered check `name`."""
    (anchor, fn), = [(a, f) for n, a, f in CHECKS[suite] if n == name]
    return suites._run(suite, name, anchor, functools.partial(fn, ctx, None))


def _no_draws(*args, **kwargs):
    raise AssertionError("sampled after an exact pre-check failed")


@pytest.mark.parametrize("suite, name, holder, attribute, mutated, record", [
    # a nonzero ALPHA 3-form from the structure path, at a = 1
    ("fiber", "dbeta-trivial-fiber-two-paths", forms, "d_via_structure",
     lambda u: forms.VerticalForm(forms.ALPHA, 3, {(0, 1, 2): sf.ONE}),
     (False, None, {"a": 1}, "structure path not exactly zero")),
    ("flat", "pde-hand-solution", swann, "pde_residuals",
     lambda solution, partials=None: (sf.ONE, sf.ZERO, sf.ZERO, sf.ZERO),
     (False, None, None, "residuals did not fold to zero")),
])
def test_a_failed_exact_pre_check_is_the_record(monkeypatch, suite, name, holder,
                                                attribute, mutated, record):
    monkeypatch.setattr(holder, attribute, mutated)
    monkeypatch.setattr(forms, "is_zero_form", _no_draws)
    got = _record(suite, name, _ctx(seed=1, trials=5))
    assert (got.passed, got.residual, got.witness, got.detail) == record


def test_nan_pde_residuals_fail_the_solution_family(monkeypatch):
    nan_field = sf.mul(sf.const(math.nan), sf.H0)
    monkeypatch.setattr(swann, "pde_residuals",
                        lambda solution, partials=None: (nan_field,) * 4)
    record = _record("flat", "solution-family-residuals", _ctx(seed=1, trials=5))
    assert not record.passed
    assert record.residual == math.inf


def test_a_nan_exp_f_fails_frame_coefficient_proportionality(monkeypatch):
    real = swann.symspace_exp_f
    monkeypatch.setattr(swann, "symspace_exp_f",
                        lambda params: sf.mul(sf.const(math.nan), real(params)))
    record = _record("symspace", "frame-coefficient-proportionality",
                     _ctx(seed=1))
    assert not record.passed
    assert record.residual == math.inf


def test_an_exact_tiny_term_in_df_fails_ddf_zero(monkeypatch):
    # d(10^-12 h1 dh0) = -10^-12 dh0^dh1: exactly nonzero, though far
    # below the float tolerance
    real = swann.symspace_df
    tiny = forms.scale(sf.mul(sf.const(Fraction(1, 10 ** 12)), sf.H1), forms.dh(0))
    monkeypatch.setattr(swann, "symspace_df",
                        lambda params: forms.add(real(params), tiny))
    record = _record("symspace", "ddf-zero", _ctx(seed=1))
    assert not record.passed
    assert record.residual == 1e-12
    assert record.witness is not None
    monkeypatch.setattr(swann, "symspace_df", real)
    assert _record("symspace", "ddf-zero", _ctx(seed=1)).passed


def test_exact_passes_an_empty_stream():
    assert _exact(iter([])) == (True, 0.0, None, "")


def test_exact_passes_zero_fractions_and_arrays():
    diffs = [Fraction(0), QArray.of([[0, 0], [0, 0]]), QArray.of([Fraction(0, 3)])]
    assert _exact(_stating(diffs, "all zero")) == (True, 0.0, None, "all zero")


def test_exact_fails_with_the_largest_item():
    diffs = [QArray.of([Fraction(-1, 3), Fraction(0)]), Fraction(0), Fraction(-2),
             QArray.of([[Fraction(1, 2)]])]
    assert _exact(_stating(diffs, "all zero")) == (False, 2.0, None, "")


def test_ricci_closed_form_record_fails_on_a_doubled_closed_form(monkeypatch):
    real_closed_form = curv.ricci_closed_form
    monkeypatch.setattr(curv, "ricci_closed_form",
                        lambda *args: real_closed_form(*args) * 2)
    records = {r.name: r
               for r in SUITE_RUNNERS["curvature"](_ctx(seed=1, ns=(2,)))}
    record = records["ricci-closed-form[n=2]"]
    assert not record.passed
    assert record.residual > 0


def test_a_generator_check_that_fails_records_its_worst_difference(monkeypatch):
    real = suites.fundamental_4tensor
    monkeypatch.setattr(suites, "fundamental_4tensor",
                        lambda *args: real(*args) + Fraction(1, 2))
    records = {r.name: r for r in SUITE_RUNNERS["model"](_ctx(seed=1, ns=(2,)))}
    record = records["phi-identity[n=2]"]
    assert not record.passed
    assert record.residual == 0.5


def test_a_set_up_error_fails_each_check_not_the_run(monkeypatch, tmp_path):
    def enumerate_so_star_basis(model):
        raise AssertionError("basis count")
    monkeypatch.setattr(liealg, "enumerate_so_star_basis", enumerate_so_star_basis)
    out = tmp_path / "r.json"
    report, code = run(RunConfig(ns=(2,), suites=("curvature",), seed=5,
                                 output_path=str(out)))
    assert code == 1
    assert len(report.checks) == 11  # ten at n = 2 and the [mandatory] n = 3 pass
    for check in report.checks:
        assert not check.passed
        assert check.detail == "exception: AssertionError('basis count')"
    assert out.exists()


@pytest.mark.parametrize("ns", [(2,), (2, 3)])
@pytest.mark.parametrize("input_path", [None, str(GOLDEN_F)])
def test_records_are_the_registered_checks(ns, input_path):
    report, _ = run(RunConfig(ns=ns, seed=3, trials=3, input_path=input_path))
    names = {c.name for c in report.checks}
    assert ("ricci-hermitian-dichotomy[n=3][mandatory]" in names) == (3 not in ns)
    assert ("user-solution-residuals" in names) == (input_path is not None)
    skipped = {"ricci-hermitian-dichotomy[n=3][mandatory]"} if 3 in ns else set()
    if input_path is None:
        skipped.add("user-solution-residuals")
    for suite in SUITE_NAMES:
        recorded = [c.name for c in report.checks if c.suite == suite]
        assert len(recorded) == len(set(recorded))
        declared = {name.replace("{n}", str(n)) if "{n}" in name else name
                    for name, _, _ in CHECKS[suite] for n in ns}
        assert set(recorded) == declared - skipped


def test_a_failed_set_up_is_remembered_not_retried(monkeypatch):
    sizes = []

    def enumerate_so_star_basis(model):
        sizes.append(model.n)
        raise AssertionError("basis count")
    monkeypatch.setattr(liealg, "enumerate_so_star_basis", enumerate_so_star_basis)
    report, code = run(RunConfig(ns=(2,), suites=("liealg", "curvature"), seed=5))
    assert code == 1
    # five liealg checks and eleven curvature checks need the basis
    failed = [c for c in report.checks if not c.passed]
    assert len(failed) == 16
    for check in failed:
        assert check.detail == "exception: AssertionError('basis count')"
    assert sizes == [2, 3]  # once per size: n = 2 and the [mandatory] n = 3 pass


def _linear_records(ctx):
    return {r.name: r for suite in ("model", "liealg", "curvature")
            for r in SUITE_RUNNERS[suite](ctx)}


def test_each_pinned_tensor_is_computed_once_per_size(monkeypatch):
    calls = 0
    real = curv.curvature_of

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)
    monkeypatch.setattr(curv, "curvature_of", counted)
    records = _linear_records(_ctx(seed=1, ns=(2, 3)))
    assert all(r.passed for r in records.values())
    # per n: one pinned pass over the basis, whose rows the map rank reads,
    # and the off-pinning, two-path, well-formedness and random-element checks
    assert calls <= 71


def _curvature_records(ctx):
    return {r.name: r for r in SUITE_RUNNERS["curvature"](ctx)}


def test_a_tensor_given_twice_fails_the_map_rank(monkeypatch):
    # element 1 gets the tensor of element 0, whose Bianchi sum vanishes
    real = curv.curvature_of

    def swapped(model, basis, a, params):
        elements = basis.elements()
        return real(model, basis, elements[0] if a is elements[1] else a, params)
    monkeypatch.setattr(curv, "curvature_of", swapped)
    records = _curvature_records(_ctx(seed=1, ns=(2,)))
    assert records["bianchi-pinned-zero[n=2]"].passed
    record = records["curvature-map-rank[n=2]"]
    assert not record.passed
    assert record.witness == {"exact": 8, "svd": 8, "expected": 9}
    assert record.detail == "rank >= 8 (exact) / 8 (svd)"  # of a minor


def test_kappa_p_passes_the_map_rank():
    # R_A at kappa = p is 0 mod p entrywise; its primitive rows are not
    ctx = _ctx(seed=1, ns=(2, 3), kappa=Fraction(2147483629))
    records = _curvature_records(ctx)
    for n, rank in ((2, 9), (3, 18)):
        record = records[f"curvature-map-rank[n={n}]"]
        assert record.passed
        assert record.detail == f"rank {rank} (exact) / {rank} (svd)"


@pytest.mark.parametrize("part", [0, 1, 2], ids=["T0", "T1", "T2"])
def test_a_sign_flipped_kernel_fails_the_two_paths(monkeypatch, part):
    real = curv._parts

    def flipped(*args):
        parts = list(real(*args))
        parts[part] = -parts[part]
        return tuple(parts)
    monkeypatch.setattr(curv, "_parts", flipped)
    records = {r.name: r
               for r in SUITE_RUNNERS["curvature"](_ctx(seed=1, ns=(2, 3)))}
    for n in (2, 3):
        record = records[f"curvature-two-paths[n={n}]"]
        assert not record.passed
        assert record.residual > 0


def test_a_ricci_error_fails_only_the_checks_that_read_it(monkeypatch):
    def ricci_of(tensor):
        raise ArithmeticError("trace")
    monkeypatch.setattr(curv, "ricci_of", ricci_of)
    records = {r.name: r
               for r in SUITE_RUNNERS["curvature"](_ctx(seed=1, ns=(2, 3)))}
    for n in (2, 3):
        assert records[f"bianchi-pinned-zero[n={n}]"].passed
        assert records[f"curvature-map-rank[n={n}]"].passed
        for name in ("ricci-commuting-part", "ricci-sp1-part",
                     "ricci-hermitian-dichotomy", "ricci-closed-form"):
            record = records[f"{name}[n={n}]"]
            assert not record.passed
            assert record.detail == "exception: ArithmeticError('trace')"


def test_the_linear_suites_take_no_object_path_at_kappa_1(monkeypatch):
    real = mat.operands
    wide = []

    def operands(bound, *arrays):
        if bound >= mat.INT64_LIMIT:
            wide.append(bound)
        return real(bound, *arrays)
    monkeypatch.setattr(mat, "operands", operands)
    records = _linear_records(_ctx(seed=1, ns=(2, 3, 4)))
    assert all(r.passed for r in records.values())
    assert wide == []


def test_only_run_decides_a_check():
    # a check yields its evidence; _run alone hands it to _verdict or _exact
    tree = ast.parse(pathlib.Path(suites.__file__).read_text())
    run, = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_run"]
    inside = {id(node) for node in ast.walk(run)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in ("_verdict", "_exact")]
    assert {node.id for node in uses} == {"_verdict", "_exact"}
    assert all(id(node) in inside for node in uses), \
        [(node.id, node.lineno) for node in uses if id(node) not in inside]

import json
import math
import os
import pathlib
import random
import stat
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from qsh_lab import forms
from qsh_lab import scalarfield as sf
from qsh_lab import suites, swann
from qsh_lab.cli import (RunConfig, UsageError, ingest_user_F, main, run,
                         serialize_solution)
from qsh_lab.report import CheckResult, Report, write_atomic
from qsh_lab.suites import _random_constants

# Written by scripts/export_golden_report.py; compared, never regenerated.
GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_REPORT = GOLDEN / "report_seed42_linear.json"
GOLDEN_FIBER_REPORT = GOLDEN / "report_seed42_fiber.json"
GOLDEN_WIDE_REPORT = GOLDEN / "report_seed7_kappa_wide_linear.json"
GOLDEN_F = GOLDEN / "F_seed42.json"


def test_config_validation():
    with pytest.raises(UsageError):
        RunConfig(kappa=Fraction(0))
    with pytest.raises(UsageError):
        RunConfig(ns=(1,))
    with pytest.raises(UsageError):
        RunConfig(trials=0)
    for tolerance in (0.0, math.nan, math.inf):
        with pytest.raises(UsageError):
            RunConfig(tolerance=tolerance)
    with pytest.raises(UsageError):
        RunConfig(suites=("nope",))
    with pytest.raises(UsageError, match="selects no suite"):
        RunConfig(suites=())
    with pytest.raises(UsageError):
        RunConfig(fmt="yaml")
    assert RunConfig(suites=("model", "all")).selected_suites() == \
        ["model", "liealg", "curvature", "fiber", "flat", "symspace"]
    assert RunConfig(suites=("fiber", "model", "fiber")).selected_suites() == \
        ["fiber", "model"]


def test_ingest_user_F(tmp_path):
    path = tmp_path / "F.json"
    path.write_text('{"F1": "h1", "F2": "-h2", "F3": "0"}')
    solution = ingest_user_F(str(path))
    residuals = swann.pde_residuals(solution)
    assert all(r.evaluate((1, 1, 1, 1)) == 0 for r in residuals)


def test_ingest_missing_key(tmp_path):
    path = tmp_path / "F.json"
    path.write_text('{"F1": "exp(2*h0)"}')
    with pytest.raises(UsageError, match="missing key F2"):
        ingest_user_F(str(path))


def test_ingest_parse_error_carries_position(tmp_path):
    path = tmp_path / "F.json"
    path.write_text('{"F1": "exp(2*s1*h0)", "F2": "0", "F3": "0"}')
    with pytest.raises(UsageError, match="column"):
        ingest_user_F(str(path))


def test_ingest_bad_json(tmp_path):
    path = tmp_path / "F.json"
    path.write_text("not json")
    with pytest.raises(UsageError, match="invalid JSON"):
        ingest_user_F(str(path))


def test_serialize_roundtrip_solution_family(tmp_path):
    import random
    rng = random.Random(4)
    constants = swann.SolutionConstants(
        C1=Fraction(1), C2=Fraction(-1), C3=Fraction(2), C4=Fraction(1),
        C5=Fraction(-2), C6=Fraction(1), C7=Fraction(1), C8=Fraction(-1),
        C9=Fraction(2), C10=Fraction(0), s1=Fraction(1, 2), s2=Fraction(1),
        s3=Fraction(3, 2), C14=Fraction(-1))
    solution = swann.explicit_solution_family(constants)
    path = tmp_path / "family.json"
    path.write_text(serialize_solution(solution))
    recovered = ingest_user_F(str(path))
    for a in range(3):
        lhs = forms.scalar_form(solution.F[a])
        rhs = forms.scalar_form(recovered.F[a])
        rep = forms.equal(lhs, rhs, trials=40, tolerance=1e-9, rng=rng)
        assert rep.equal, (a, rep.max_residual)


def test_run_subset_and_exit_codes(tmp_path):
    report, code = run(RunConfig(ns=(2,), suites=("model",), seed=5))
    assert code == 0 and report.passed
    assert all(c.suite == "model" for c in report.checks)
    # a failing user solution drives exit code 1 with a witness
    bad = tmp_path / "bad.json"
    bad.write_text('{"F1": "h0", "F2": "0", "F3": "0"}')
    report, code = run(RunConfig(ns=(2,), suites=("flat",), seed=5,
                                 input_path=str(bad)))
    assert code == 1
    failing = [c for c in report.checks if not c.passed]
    assert len(failing) == 1
    assert failing[0].name == "user-solution-residuals"
    assert failing[0].witness is not None


def test_mandatory_n3_dichotomy_added():
    report, code = run(RunConfig(ns=(2,), suites=("curvature",), seed=5))
    assert code == 0
    names = [c.name for c in report.checks]
    assert "ricci-hermitian-dichotomy[n=3][mandatory]" in names


def test_report_determinism(tmp_path):
    cfg = RunConfig(ns=(2,), suites=("fiber", "symspace"), seed=11)
    r1, _ = run(cfg)
    r2, _ = run(cfg)
    d1, d2 = r1.to_dict(omit_timing=True), r2.to_dict(omit_timing=True)
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_report_matches_golden():
    # the linear-model suites must keep every report byte, timing aside
    report, code = run(RunConfig(ns=(2, 3), seed=42,
                                 suites=("model", "liealg", "curvature")))
    payload = report.to_dict(omit_timing=True)
    assert code == 0
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == \
        GOLDEN_REPORT.read_text()


def test_wide_kappa_report_matches_golden():
    # at n = 4 the wide kappa takes the Python-int path of QArray
    report, code = run(RunConfig(ns=(2, 4), seed=7,
                                 suites=("model", "liealg", "curvature"),
                                 kappa=Fraction(4567891234567, 1234567891237)))
    payload = report.to_dict(omit_timing=True)
    assert code == 0
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == \
        GOLDEN_WIDE_REPORT.read_text()


def test_fiber_report_matches_golden():
    # the sampled suites must keep every residual and witness bit for bit
    report, code = run(RunConfig(ns=(2,), seed=42,
                                 suites=("fiber", "flat", "symspace"),
                                 input_path=str(GOLDEN_F)))
    payload = report.to_dict(omit_timing=True)
    payload["config"]["input"] = GOLDEN_F.name
    assert code == 0
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == \
        GOLDEN_FIBER_REPORT.read_text()


def test_report_written_atomically(tmp_path):
    out = tmp_path / "report.json"
    cfg = RunConfig(ns=(2,), suites=("model",), seed=5, output_path=str(out))
    run(cfg)
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["summary"]["failed"] == 0
    assert {"suite", "name", "anchor", "status", "residual", "witness",
            "detail", "wall_time_s"} <= set(payload["checks"][0])
    assert not list(tmp_path.glob("*.tmp"))


def test_markdown_format(tmp_path):
    out = tmp_path / "report.md"
    cfg = RunConfig(ns=(2,), suites=("model",), seed=5,
                    output_path=str(out), fmt="markdown")
    run(cfg)
    text = out.read_text()
    assert text.startswith("# Verification report")
    assert "| model |" in text and "PASS" in text


def test_write_atomic_no_partial_on_error(tmp_path):
    target = tmp_path / "x.json"
    write_atomic(str(target), "hello")
    assert target.read_text() == "hello"


def test_write_atomic_gives_the_mode_of_open(tmp_path):
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o002, 0o664), (0o077, 0o600)):
            os.umask(umask)
            target, plain = tmp_path / f"{umask:o}.json", tmp_path / f"{umask:o}.txt"
            write_atomic(str(target), "{}")
            assert os.umask(umask) == umask  # left as it was
            plain.write_text("{}")
            assert stat.S_IMODE(target.stat().st_mode) == mode
            assert stat.S_IMODE(plain.stat().st_mode) == mode
            for path in (target, plain):  # an existing report keeps its mode
                path.chmod(0o640)
            write_atomic(str(target), "{}")
            plain.write_text("{}")
            assert stat.S_IMODE(target.stat().st_mode) == 0o640
            assert stat.S_IMODE(plain.stat().st_mode) == 0o640
    finally:
        os.umask(old)


def test_main_usage_errors(capsys):
    assert main(["run", "--suites", "curvature", "--kappa", "0"]) == 2
    assert "kappa" in capsys.readouterr().err
    assert main(["run", "--suites", "bogus"]) == 2
    assert main(["run", "--kappa", "not-a-number"]) == 2
    assert main(["run", "--input", "/nonexistent/F.json",
                 "--suites", "flat"]) == 2
    # a run of no check would report "0/0 checks passed" and exit 0
    for selection in (",", " ", " , ,"):
        capsys.readouterr()
        assert main(["run", "--suites", selection, "--n", "2"]) == 2
        assert "selects no suite" in capsys.readouterr().err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("content", [None, b'{"F1": "h0\xff", "F2": "0", "F3": "0"}',
                                     b"[" * 100000 + b"]" * 100000],
                         ids=["directory", "non-utf8", "nested-100000-deep"])
def test_main_unreadable_input_is_usage_error(capsys, tmp_path, content):
    path = tmp_path / "F.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["run", "--suites", "flat", "--n", "2",
                 "--input", str(path)]) == 2
    _one_error_line(capsys)


def test_repeated_n_runs_once(capsys, tmp_path):
    assert RunConfig(ns=(3, 2, 3, 2)).ns == (3, 2)
    out = tmp_path / "report.json"
    assert main(["run", "--suites", "model", "--n", "2", "--n", "2",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    names = [check["name"] for check in payload["checks"]]
    assert payload["config"]["ns"] == [2]
    assert names and len(names) == len(set(names))
    assert f"{len(names)}/{len(names)} checks passed" in capsys.readouterr().out


def test_main_unwritable_output_is_usage_error(capsys, tmp_path, monkeypatch):
    # refused before any check runs
    ran = []
    monkeypatch.setitem(suites.SUITE_RUNNERS, "model", lambda ctx: ran.append(ctx))
    (tmp_path / "file").touch()
    for output, message in ((tmp_path, "is a directory"),
                            (tmp_path / "missing" / "r.json", "no such directory"),
                            (tmp_path / "file" / "r.json", "no such directory")):
        assert main(["run", "--suites", "model", "--n", "2",
                     "--output", str(output)]) == 2
        assert message in _one_error_line(capsys)
    assert not ran
    assert not list(tmp_path.glob("*.tmp"))


def test_report_json_has_no_non_finite_literals():
    check = CheckResult("fiber", "x", "anchor", False, residual=math.inf,
                        witness={"point": [math.nan, -math.inf, 0.5]})
    text = Report(config={}, checks=[check]).to_json(omit_timing=True)

    def refuse(literal):
        raise ValueError(f"non-standard JSON literal {literal}")
    record = json.loads(text, parse_constant=refuse)["checks"][0]
    assert record["residual"] == "inf"
    assert record["witness"] == {"point": ["nan", "-inf", 0.5]}
    assert "`{\"point\": [\"nan\", \"-inf\", 0.5]}`" in \
        Report(config={}, checks=[check]).to_markdown()


def test_main_pass_run(capsys, tmp_path):
    out = tmp_path / "r.json"
    code = main(["run", "--suites", "model", "--n", "2", "--seed", "3",
                 "--output", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[PASS] model/quaternionic-identity[n=2]" in captured
    assert out.exists()
    # argparse reads a bare -3/7 as an option, so a negative kappa takes "="
    assert main(["run", "--suites", "curvature", "--n", "2", "--kappa=-3/7"]) == 0
    assert "11/11 checks passed" in capsys.readouterr().out


def test_main_deeply_nested_input_is_usage_error(capsys, tmp_path):
    path = tmp_path / "F.json"
    path.write_text(json.dumps({"F1": "(" * 5000 + "h0" + ")" * 5000,
                                "F2": "0", "F3": "0"}))
    assert main(["run", "--suites", "flat", "--n", "2",
                 "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nesting deeper than" in err
    assert "line 1, column" in err and "Traceback" not in err


@pytest.mark.parametrize("op", ["-", "*"])
def test_main_long_operator_chain_is_usage_error(capsys, tmp_path, op):
    # a left-associative chain is as deep as it is long
    path = tmp_path / "F.json"
    path.write_text(json.dumps({"F1": op.join(["h1"] * 3000),
                                "F2": "0", "F3": "0"}))
    assert main(["run", "--suites", "flat", "--n", "2",
                 "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nesting deeper than" in err
    assert "line 1, column 303" in err and "Traceback" not in err


def test_main_too_many_nodes_is_usage_error(capsys, tmp_path):
    # a shallow sum of MAX_NODES + 1 nodes
    terms = ["(" + "+".join(["h0"] * 50) + ")"] * (sf.MAX_NODES // 99 + 1)
    path = tmp_path / "F.json"
    path.write_text(json.dumps({"F1": "+".join(terms), "F2": "0", "F3": "0"}))
    assert main(["run", "--suites", "flat", "--n", "2",
                 "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"more than {sf.MAX_NODES} nodes" in err
    assert "line 1, column" in err and "Traceback" not in err


@pytest.mark.parametrize("expression", ["h1/0", "0^-1"])
def test_main_constant_zero_denominator_is_usage_error(capsys, tmp_path,
                                                       expression):
    # the smart constructors fold these while parsing
    path = tmp_path / "F.json"
    path.write_text(json.dumps({"F1": expression, "F2": "0", "F3": "0"}))
    assert main(["run", "--suites", "flat", "--n", "2",
                 "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "F1" in err and "Traceback" not in err


def test_main_huge_exponent_is_usage_error(capsys, tmp_path):
    # at float points this power underflows to a residual of 0.0
    path = tmp_path / "F.json"
    path.write_text('{"F1": "(h0+1/3)^2000000", "F2": "0", "F3": "0"}')
    assert main(["run", "--suites", "flat", "--n", "2", "--trials", "5",
                 "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "exponent larger than" in err and "line 1, column 10" in err


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_serialized_family_parses(tmp_path, seed):
    solution = swann.explicit_solution_family(
        _random_constants(random.Random(seed)))
    path = tmp_path / "F.json"
    path.write_text(serialize_solution(solution))
    parsed = ingest_user_F(str(path))
    point = (0.7, -0.4, 1.1, 0.3)
    assert sf.evaluator(parsed.F)(point) == sf.evaluator(solution.F)(point)


def test_user_solution_with_no_evaluable_point_fails(capsys, tmp_path):
    # F1 is undefined on the whole fiber: every sample is rejected, so
    # there is no evidence for a pass
    path = tmp_path / "F.json"
    path.write_text('{"F1": "sqrt(-1-h0^2)", "F2": "0", "F3": "0"}')
    report, code = run(RunConfig(ns=(2,), suites=("flat",), seed=5,
                                 trials=7, input_path=str(path)))
    assert code == 1
    check, = [c for c in report.checks if c.name == "user-solution-residuals"]
    assert not check.passed
    assert check.witness == {"evaluated": 0, "rejected": 64}
    assert main(["run", "--suites", "flat", "--n", "2",
                 "--input", str(path)]) == 1
    assert "[FAIL] flat/user-solution-residuals" in capsys.readouterr().out


def test_cli_import_leaves_numpy_unloaded():
    # numpy is loaded lazily by the curvature kernel, so fiber-only runs
    # never pay for it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsh_lab.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_fiber_run_leaves_numpy_unloaded():
    # the fiber, flat and symspace suites run no linear-model code, so the
    # fiber-input workload never imports numpy (its set-up time and peak
    # memory depend on that)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from qsh_lab.cli import main; "
         f"code = main(['run', '--suites', 'fiber,flat,symspace', '--n', '2', "
         f"'--trials', '3', '--input', {str(GOLDEN_F)!r}]); "
         "print(code, 'numpy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qsh_lab.cli", "run", "--suites", "model",
         "--n", "2", "--seed", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout


def _user_check(tmp_path, F, trials=100):
    path = tmp_path / "F.json"
    path.write_text(json.dumps(F))
    report, code = run(RunConfig(ns=(2,), suites=("flat",), seed=5,
                                 trials=trials, input_path=str(path)))
    check, = [c for c in report.checks if c.name == "user-solution-residuals"]
    return check, code


def test_user_solution_with_tiny_derivatives_fails_nested_sqrt(tmp_path,
                                                              monkeypatch):
    # F1 = h0^(2^-99): its derivative is about 1e-28, far below an absolute
    # 1e-8, but the residual is all of the partial it sums
    draws = []
    draw = forms.sample_point

    def recorded(rng):
        draws.append(draw(rng))
        return draws[-1]
    monkeypatch.setattr(forms, "sample_point", recorded)
    F = {"F1": "sqrt(" * 99 + "h0" + ")" * 99, "F2": "0", "F3": "0"}
    check, code = _user_check(tmp_path, F)
    assert code == 1 and not check.passed
    assert check.residual < 1e-20
    assert "relative residual 1" in check.detail
    # negative h0 is outside the domain: those draws were redrawn, and the
    # witness is an evaluated point
    assert len(draws) > 100 and any(p[0] < 0 for p in draws)
    assert check.witness["point"][0] > 0
    assert check.witness["residuals"][0] > 0


def test_user_solution_with_tiny_derivatives_fails_nested_exp(tmp_path):
    F = {"F1": "exp(-" * 50 + "h0" + ")" * 50, "F2": "0", "F3": "0"}
    check, code = _user_check(tmp_path, F)
    assert code == 1 and not check.passed
    assert check.residual < 1e-8
    assert "relative residual 1" in check.detail
    assert set(check.witness) == {"point", "residuals"}


def test_user_solution_with_cancelling_large_partials_fails(tmp_path):
    # residual 1 is F1,0 - F3,2 = 1 everywhere: only 1e-9 of the partials
    # it sums, so the relative bound alone would pass it; the absolute
    # bound must hold too
    F = {"F1": "1000000001*h0", "F2": "0", "F3": "1000000000*h2"}
    check, code = _user_check(tmp_path, F)
    assert code == 1 and not check.passed
    assert check.residual == 1.0
    assert "relative residual 1e-09" in check.detail
    assert check.witness["residuals"] == [1.0, 0.0, 0.0, 0.0]


def test_user_solution_underflowing_everywhere_has_no_evidence(capsys, tmp_path):
    # F1 and every partial of exp(-1000-h0^2) are exactly 0.0 at every
    # float point, although F1,0 is not structurally zero: no point is
    # evidence, so the check fails instead of passing with residual 0.0
    F = {"F1": "exp(-1000-h0^2)", "F2": "0", "F3": "0"}
    check, code = _user_check(tmp_path, F)
    assert code == 1 and not check.passed and check.residual is None
    assert check.witness == {"evaluated": 0, "rejected": 100}
    assert check.detail.startswith("no evidence: ")
    assert "100 underflow" in check.detail
    path = tmp_path / "F.json"
    assert main(["run", "--suites", "flat", "--n", "2",
                 "--input", str(path)]) == 1
    assert "[FAIL] flat/user-solution-residuals" in capsys.readouterr().out



def test_user_solution_nan_residual_is_reported_as_inf(tmp_path):
    # each product overflows to inf, so residual 1 is inf - inf = nan at
    # every point; a nan counts as inf, not as the 0.0 that max keeps
    X = "1" + "0" * 200
    F = {"F1": f"({X}*h0)*({X}*h1) - ({X}*h0)*({X}*h1) + h1", "F2": "0", "F3": "0"}
    path, out = tmp_path / "F.json", tmp_path / "report.json"
    path.write_text(json.dumps(F))
    assert main(["run", "--suites", "flat", "--n", "2", "--input", str(path),
                 "--output", str(out)]) == 1
    record, = [c for c in json.loads(out.read_text())["checks"]
               if c["name"] == "user-solution-residuals"]
    assert record["status"] == "fail" and record["residual"] == "inf"

def test_user_solution_structurally_zero_partials_are_evidence(tmp_path):
    # every partial of a constant F is structurally zero: an all-zero point
    # is then an exact pass, not an underflow
    check, code = _user_check(tmp_path, {"F1": "1", "F2": "0", "F3": "-2/3"})
    assert code == 0 and check.passed and check.residual == 0.0


def test_user_solution_relative_rule_passes_exact_and_sampled_solutions(tmp_path):
    # every partial of (h1, -h2, 0) is constant: the residuals are exactly 0
    check, code = _user_check(tmp_path, {"F1": "h1", "F2": "-h2", "F3": "0"})
    assert code == 0 and check.passed and check.residual == 0.0
    F = json.loads(GOLDEN_F.read_text())
    check, code = _user_check(tmp_path, F)
    assert code == 0 and check.passed and check.witness is None


def test_non_ascii_digit_is_usage_error(capsys, tmp_path):
    # U+0663 is a decimal digit to str.isdecimal, but not in the grammar
    with pytest.raises(sf.ParseError) as err:
        sf.parse("h0*٣")
    assert (err.value.line, err.value.col) == (1, 4)
    path = tmp_path / "F.json"
    path.write_text(json.dumps({"F1": "h0*٣", "F2": "0", "F3": "0"}))
    assert main(["run", "--suites", "flat", "--n", "2",
                 "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 1, column 4" in err


def test_sampling_error_is_one_failed_record():
    from qsh_lab.suites import _run

    def no_evidence():
        list(forms.sample((sf.sqrt(sf.sub(sf.const(-1), sf.pow_(sf.H0, 2))),),
                          3, random.Random(0)))
    check = _run("flat", "no-evidence", "anchor", no_evidence)
    assert not check.passed and check.residual is None
    assert check.witness == {"evaluated": 0, "rejected": 64}
    assert "64 ValueError" in check.detail


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("selected, input_path, tasks", [
    (("all",), None, 4),  # the linear suites are one task
    (("fiber", "flat", "symspace"), str(GOLDEN_F), 3),
    (("flat",), str(GOLDEN_F), 1)])
def test_report_does_not_depend_on_the_lane_count(monkeypatch, selected,
                                                  input_path, tasks):
    forks, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", spy)
    texts = set()
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        forks.clear()
        report, code = run(RunConfig(ns=(2,), seed=42, suites=selected,
                                     input_path=input_path))
        assert code == 0
        assert len(forks) == min(tasks, cpus) - 1
        texts.add(report.to_json(omit_timing=True))
    assert len(texts) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("failure", ["raise", "exit", "system-exit",
                                     "raise-here"])
def test_a_failed_lane_fails_the_run(monkeypatch, tmp_path, failure):
    # two tasks in two lanes: one runner fails in the forked lane (or, for
    # raise-here, in this one), the other returns no checks
    here, claimed = os.getpid(), tmp_path / "claimed"
    ran_here = []

    def runner(name):
        def run_suite(ctx):
            if os.getpid() == here:
                ran_here.append(name)
                if failure == "raise-here":
                    raise RuntimeError("set-up failed")
                deadline = time.monotonic() + 30
                while not claimed.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)  # until the other lane has a task
                return []
            claimed.touch()
            if failure == "raise":
                raise RuntimeError("set-up failed")
            if failure == "exit":
                os._exit(3)
            if failure == "system-exit":  # must not return into pytest
                raise SystemExit(0)
            time.sleep(0.2)  # still running when this lane fails
            return []
        return run_suite
    for name in ("fiber", "flat"):
        monkeypatch.setitem(suites.SUITE_RUNNERS, name, runner(name))
    _cpus(monkeypatch, 2)
    out = tmp_path / "r.json"
    with pytest.raises(RuntimeError) as err:
        run(RunConfig(ns=(2,), suites=("fiber", "flat"), output_path=str(out)))
    if failure == "raise-here":
        assert str(err.value) == "set-up failed"
    else:  # a forked lane that raises or exits returns no checks
        lost, = {"fiber", "flat"} - set(ran_here)
        assert str(err.value) == \
            f"a lane ended without the checks of suites ['{lost}']"
    assert not out.exists()
    _assert_no_child_left()


# an os.fork spy that records the OS threads of the forking process, and
# two CPUs for run_suites
_FORK_SPY = """
import os
forks, fork = [], os.fork
def spy():
    forks.append(len(os.listdir("/proc/self/task")))
    return fork()
os.fork = spy
os.sched_getaffinity = lambda pid: {0, 1}
from qsh_lab.cli import RunConfig, run
"""


def _python(code, **env):
    """The stdout of `code` in a fresh interpreter, whose environment sets
    OPENBLAS_NUM_THREADS only if `env` does."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code], env={**environ, **env},
                          capture_output=True, text=True, check=True).stdout


def test_cli_run_forks_lanes_from_one_thread():
    # cli.run without cli.main: the linear run loads numpy, then the fiber
    # run forks one lane, which must not copy a BLAS thread
    out = _python(_FORK_SPY + f"""
run(RunConfig(ns=(2,), suites=("model", "liealg", "curvature")))
run(RunConfig(ns=(2,), suites=("fiber", "flat", "symspace"),
              input_path={str(GOLDEN_F)!r}))
print(forks)
""")
    assert out.strip() == "[1]"


def test_a_threaded_process_forks_no_lane(monkeypatch):
    # numpy loaded before qsh_lab with two BLAS threads: every task runs in
    # the one process, and the report is the one-lane report
    config = RunConfig(ns=(2,), seed=42, trials=3, input_path=str(GOLDEN_F))
    out = _python("""
import json, os
import numpy
threads = len(os.listdir("/proc/self/task"))
""" + _FORK_SPY + f"""
report, _ = run(RunConfig(ns=(2,), seed=42, trials=3,
                          input_path={str(GOLDEN_F)!r}))
print(json.dumps([threads, forks, report.to_json(omit_timing=True)]))
""", OPENBLAS_NUM_THREADS="2")
    threads, forks, text = json.loads(out)
    if threads == 1:
        pytest.skip("numpy started no BLAS thread on this host")
    assert forks == []
    _cpus(monkeypatch, 1)
    assert text == run(config)[0].to_json(omit_timing=True)

"""The record classes: constructors, repr, equality, hashing, immutability,
validation and pickling, one test per class.  The repr strings are the
ones the package printed when its records were dataclasses; reports and
failure details print them, and `bench/spans.py` hashes them."""

import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from qsh_lab import forms
from qsh_lab import scalarfield as sf
from qsh_lab import swann
from qsh_lab.cli import RunConfig, UsageError
from qsh_lab.curvature import CurvParams
from qsh_lab.liealg import LieBasis
from qsh_lab.linmodel import FlatModel
from qsh_lab.quaternion import Quaternion
from qsh_lab.report import CheckResult, Report

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _frozen(record, field):
    """Assigning or deleting a field of `record` raises AttributeError."""
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)


def _unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


def _pickled(record):
    """`record` after a pickle round trip, with the same class and repr."""
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and repr(copy) == repr(record)
    return copy


# modules whose import costs every process start and that no import of the
# package needs: numpy loads lazily with the linear kernel, the records
# generate no code, and the lanes fork without a pool
HEAVY_MODULES = {"numpy", "dataclasses", "inspect", "multiprocessing",
                 "concurrent.futures", "subprocess", "asyncio"}


def test_import_loads_no_dataclasses_or_inspect():
    # the set-up probe's imports, in a fresh interpreter that compiles every
    # module from source and sees no site-packages
    code = ("import sys; from qsh_lab import cli, liealg, linmodel; "
            f"print(sorted({HEAVY_MODULES!r} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_quaternion_record():
    q = Quaternion.of(1, Fraction(1, 2), -3, 0)
    assert repr(q) == ("Quaternion(h0=Fraction(1, 1), h1=Fraction(1, 2), "
                       "h2=Fraction(-3, 1), h3=Fraction(0, 1))")
    assert q == Quaternion(Fraction(1), Fraction(1, 2), Fraction(-3), Fraction(0))
    assert q != Quaternion.unit(0) and q != (1, Fraction(1, 2), -3, 0)
    assert hash(q) == hash((q.h0, q.h1, q.h2, q.h3))
    assert Quaternion(h0=1, h1=0, h2=0, h3=0) == Quaternion.unit(0)
    _frozen(q, "h0")
    assert _pickled(q) == q


def test_const_and_var_records():
    c = sf.const(Fraction(3, 4))
    assert repr(c) == "Const(value=Fraction(3, 4))"
    assert repr(sf.const(0.5)) == "Const(value=0.5)"
    assert repr(sf.ONE) == "Const(value=Fraction(1, 1))"
    assert repr(sf.var(2)) == "Var(index=2)"
    assert c == sf.Const(Fraction(3, 4)) and hash(c) == hash((Fraction(3, 4),))
    assert sf.Const(Fraction(1)) == sf.Const(1.0)  # as their values compare
    assert sf.Var(1) == sf.H1 and hash(sf.H1) == hash((1,))
    assert sf.Const(1) != sf.Var(1) and sf.Var(1) != 1
    assert str(c) == "3/4" and str(sf.H3) == "h3"  # Field's str, not the repr
    for record, field in ((c, "value"), (sf.H0, "index")):
        _frozen(record, field)
        assert _pickled(record) == record


def test_flat_model_record(model2):
    assert repr(model2) == (f"FlatModel(n=2, J={model2.J!r}, omega={model2.omega!r}, "
                            f"g={model2.g!r})")
    rebuilt = FlatModel(model2.n, model2.J, model2.omega, model2.g)
    assert rebuilt == model2
    assert FlatModel(n=2, J=model2.J, omega=model2.g[0], g=model2.g) != model2
    _unhashable(model2)  # QArray is unhashable, as the field tuple is
    _frozen(model2, "omega")
    assert _pickled(model2) == model2


def test_lie_basis_record(model2, basis2):
    copy = LieBasis(model=model2, so_basis=basis2.so_basis, sp_basis=basis2.sp_basis)
    assert copy == basis2 and len(copy.elements()) == 9
    assert LieBasis(model2, basis2.so_basis[1:], basis2.sp_basis) != basis2
    assert repr(basis2) == (f"LieBasis(model={model2!r}, so_basis={basis2.so_basis!r}, "
                            f"sp_basis={basis2.sp_basis!r})")
    _unhashable(basis2)
    _frozen(basis2, "model")
    assert _pickled(basis2) == basis2


def test_curv_params_record():
    p = CurvParams.pinned(1, 2)
    assert repr(p) == ("CurvParams(kappa=Fraction(1, 1), c1=Fraction(2, 1), "
                       "c2=Fraction(2, 1))")
    assert repr(CurvParams(1, 0, Fraction(-1, 3))) == (
        "CurvParams(kappa=Fraction(1, 1), c1=Fraction(0, 1), c2=Fraction(-1, 3))")
    assert p == CurvParams(kappa=Fraction(1), c1=Fraction(2), c2=Fraction(2))
    assert p != CurvParams.pinned(1, 3) and hash(p) == hash((p.kappa, p.c1, p.c2))
    with pytest.raises(ValueError, match="kappa must be nonzero"):
        CurvParams(Fraction(0), Fraction(1), Fraction(1))
    _frozen(p, "kappa")
    assert _pickled(p) == p


def test_run_config_record():
    config = RunConfig(ns=(3, 2, 3), kappa=Fraction(-3, 7))
    assert config.ns == (3, 2)  # a repeated --n runs once, at its first place
    assert repr(config) == (
        "RunConfig(ns=(3, 2), kappa=Fraction(-3, 7), seed=42, trials=100, "
        "tolerance=1e-10, suites=('all',), input_path=None, output_path=None, "
        "fmt='json')")
    assert RunConfig() == RunConfig((2, 3), Fraction(1), 42, 100, 1e-10, ("all",),
                                    None, None, "json")
    assert config != RunConfig() and hash(RunConfig(ns=(2, 2))) == hash(RunConfig(ns=(2,)))
    with pytest.raises(UsageError, match="every --n"):
        RunConfig(ns=(2, 1))
    with pytest.raises(UsageError, match="--kappa"):
        RunConfig(kappa=0)
    _frozen(config, "ns")
    assert _pickled(config) == config


def test_check_result_record():
    record = CheckResult(suite="fiber", name="x", anchor="anchor", passed=True,
                         residual=0.0, witness={"p": (1, 2)})
    assert repr(record) == (
        "CheckResult(suite='fiber', name='x', anchor='anchor', passed=True, "
        "residual=0.0, witness={'p': (1, 2)}, detail='', wall_time=0.0)")
    assert record == CheckResult("fiber", "x", "anchor", True, 0.0, {"p": (1, 2)}, "", 0.0)
    assert record != CheckResult("fiber", "x", "anchor", True, 0.0, {"p": (1, 2)}, "", 1.0)
    record.wall_time = 0.5  # records of a run are mutable
    assert record.wall_time == 0.5
    _unhashable(record)


def test_check_result_with_records_pickles():
    # a lane sends its records through a pipe, witnesses included
    witness = {"got": [swann.TorsionClass("X57"), swann.TorsionClass("torsion-free", True)],
               "constants": swann.SolutionConstants(C9=Fraction(3)),
               "point": Quaternion.of(1, 2, 3, 4), "field": sf.const(Fraction(1, 3))}
    record = CheckResult("flat", "torsion-classification", "anchor", False,
                         witness=witness, detail="d", wall_time=0.25)
    copy = _pickled(record)
    assert copy == record and copy.witness["got"][1].degenerate
    assert repr(CheckResult(suite="flat", name="torsion-classification", anchor="a",
                            passed=False, witness={"got": [swann.TorsionClass("X57")]})) == (
        "CheckResult(suite='flat', name='torsion-classification', anchor='a', "
        "passed=False, residual=None, witness={'got': [TorsionClass(kind='X57', "
        "degenerate=False)]}, detail='', wall_time=0.0)")


def test_report_record():
    report = Report({"a": 1})
    assert repr(report) == "Report(config={'a': 1}, checks=[], wall_time=0.0)"
    assert report.checks is not Report({"a": 1}).checks  # a fresh list each
    record = CheckResult("model", "x", "anchor", True)
    full = Report(config={"a": 1}, checks=[record], wall_time=1.5)
    assert full == Report({"a": 1}, [record], 1.5) and full != report
    _unhashable(report)
    assert _pickled(full) == full


def test_vertical_form_record():
    form = forms.VerticalForm("dh", 1, {(0,): sf.H1, (1,): sf.ZERO})
    assert form.terms == {(0,): sf.H1}  # zero coefficients are dropped
    assert repr(form) == "VerticalForm(coframe='dh', degree=1, terms={(0,): Var(index=1)})"
    assert forms.VerticalForm("dh", 2).terms == {}
    assert form == forms.VerticalForm(coframe="dh", degree=1, terms={(0,): sf.H1})
    assert form != forms.VerticalForm("alpha", 1, {(0,): sf.H1})
    _unhashable(form)
    assert _pickled(form) == form


def test_equality_report_record():
    report = forms.EqualityReport(False, 0.5, (Fraction(1, 2), 0.25, 1.0, -2.0))
    assert repr(report) == ("EqualityReport(equal=False, max_residual=0.5, "
                            "witness=(Fraction(1, 2), 0.25, 1.0, -2.0))")
    assert repr(forms.EqualityReport(True, 0.0)) == \
        "EqualityReport(equal=True, max_residual=0.0, witness=None)"
    assert report == forms.EqualityReport(equal=False, max_residual=0.5,
                                          witness=(Fraction(1, 2), 0.25, 1.0, -2.0))
    _unhashable(report)
    assert _pickled(report) == report


def test_flat_solution_record():
    solution = swann.FlatSolution(F=(sf.H0, sf.ZERO, sf.const(2)))
    assert repr(solution) == ("FlatSolution(F=(Var(index=0), Const(value=Fraction(0, 1)), "
                              "Const(value=Fraction(2, 1))))")
    assert solution == swann.FlatSolution((sf.var(0), sf.const(0), sf.const(2)))
    assert hash(solution) == hash((solution.F,))
    with pytest.raises(ValueError, match="unknown variables"):
        swann.FlatSolution(F=(sf.Var(4), sf.ZERO, sf.ZERO))
    _frozen(solution, "F")
    assert _pickled(solution) == solution


def test_solution_constants_record():
    k = swann.SolutionConstants()
    zero = "Fraction(0, 1)"
    assert repr(k) == ("SolutionConstants(" + ", ".join(
        [f"C{i}={zero}" for i in range(1, 11)]
        + ["s1=Fraction(1, 1)", "s2=Fraction(1, 1)", f"s3={zero}", f"C14={zero}"]) + ")")
    custom = swann.SolutionConstants(C9=Fraction(3), s3=Fraction(1, 2))
    assert "C9=Fraction(3, 1)" in repr(custom) and "s3=Fraction(1, 2)" in repr(custom)
    assert (k.C11, k.C12, k.C13) == (1, 1, 0)
    assert k == swann.SolutionConstants(*[Fraction(0)] * 10, Fraction(1), Fraction(1),
                                        Fraction(0), Fraction(0))
    assert k != custom and hash(k) == hash(swann.SolutionConstants())
    _frozen(k, "C1")
    assert _pickled(custom) == custom


def test_torsion_class_record():
    t = swann.TorsionClass("X57")
    assert repr(t) == "TorsionClass(kind='X57', degenerate=False)"
    assert repr(swann.TorsionClass(kind="torsion-free", degenerate=True)) == \
        "TorsionClass(kind='torsion-free', degenerate=True)"
    assert t == swann.TorsionClass("X57", False) and t != swann.TorsionClass("X57", True)
    assert hash(t) == hash(("X57", False))
    _frozen(t, "kind")
    assert _pickled(t) == t


def test_sym_space_params_record():
    p = swann.SymSpaceParams(c=Fraction(-3, 2), n=2, c1=Fraction(1), c2=Fraction(0),
                             c3=Fraction(2, 5))
    assert repr(p) == ("SymSpaceParams(c=Fraction(-3, 2), n=2, c1=Fraction(1, 1), "
                       "c2=Fraction(0, 1), c3=Fraction(2, 5), c4=Fraction(0, 1))")
    assert p == swann.SymSpaceParams(Fraction(-3, 2), 2, Fraction(1), Fraction(0),
                                     Fraction(2, 5), Fraction(0))
    assert hash(p) == hash((p.c, p.n, p.c1, p.c2, p.c3, p.c4))
    with pytest.raises(ValueError, match="must be nonzero"):
        swann.SymSpaceParams(c=Fraction(1), n=2, c1=0, c2=0, c3=0)
    with pytest.raises(ValueError, match="n >= 2"):
        swann.SymSpaceParams(c=Fraction(1), n=1, c1=1, c2=0, c3=0)
    _frozen(p, "c")
    assert _pickled(p) == p


def test_obstruction_report_record():
    report = swann.ObstructionReport(True)
    assert repr(report) == "ObstructionReport(implication_holds=True, witness=None)"
    full = swann.ObstructionReport(implication_holds=False, witness={"sum": 1.0})
    assert full == swann.ObstructionReport(False, {"sum": 1.0}) and full != report
    _unhashable(report)
    assert _pickled(full) == full

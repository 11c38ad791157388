"""Tests of the benchmark itself: run with `python -m pytest bench/tests`."""

import json
import math
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _trace(rows, names):
    """A dumped trace from (name index, parent, start, end) rows."""
    return {"run_id": "t", "names": names,
            "name": [r[0] for r in rows], "parent": [r[1] for r in rows],
            "start": [r[2] for r in rows], "end": [r[3] for r in rows],
            "errors": {}, "keys": {}}


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] > inner [1, 3] > leaf [1.5, 2.5]; inner [4, 8]
    names = ["m.outer", "m.inner", "n.leaf"]
    trace = _trace([(0, -1, 0.0, 10.0), (1, 0, 1.0, 3.0), (2, 1, 1.5, 2.5),
                    (1, 0, 4.0, 8.0)], names)
    totals = spans.span_totals(trace)
    assert totals["m.outer"]["self_s"] == pytest.approx(10 - 2 - 4)
    assert totals["m.inner"]["self_s"] == pytest.approx(1 + 4)
    assert totals["n.leaf"]["self_s"] == pytest.approx(1)
    assert totals["m.inner"]["calls"] == 2
    assert spans.layer_value("m.self_s", totals) == pytest.approx(4 + 5)
    assert spans.layer_value("m.inner.s", totals) == pytest.approx(6)
    assert spans.layer_value("m.gone.calls", totals) == 0


def test_recursive_span_is_counted_once_inclusive():
    tracer = spans.Tracer("t")

    def fact(k):
        return 1 if k <= 1 else k * wrapped(k - 1)

    wrapped = tracer.wrap("m.fact", fact)
    assert wrapped(5) == 120
    totals = spans.span_totals(tracer.to_dict())
    t = totals["m.fact"]
    assert t["calls"] == 5
    assert tracer.parent.tolist() == [-1, 0, 1, 2, 3]
    outer = tracer.end[0] - tracer.start[0]
    assert t["s"] == pytest.approx(outer)
    assert t["self_s"] == pytest.approx(outer)


def test_errors_and_input_keys_give_the_ratios():
    tracer = spans.Tracer("t")
    inv = tracer.wrap("m.inv", lambda x: 1 / x, key=lambda x: str(abs(x)))
    for x in (1, -1, 2, 0):
        try:
            inv(x)
        except ZeroDivisionError:
            pass
    totals = spans.span_totals(tracer.to_dict())
    assert spans.layer_value("m.inv.fail_ratio", totals) == pytest.approx(1 / 4)
    assert spans.layer_value("m.inv.distinct_ratio", totals) == pytest.approx(3 / 4)


def _bindings():
    """Every function object reachable where the tracer patches."""
    from qsh_lab import cli, report, scalarfield, suites  # noqa: F401

    seen = {}
    for name, module in sorted(sys.modules.items()):
        if name == "qsh_lab" or name.startswith("qsh_lab."):
            for attr, value in vars(module).items():
                if callable(value):
                    seen[(name, attr)] = value
    seen["Field.evaluate"] = vars(scalarfield.Field)["evaluate"]
    seen["Report.to_json"] = vars(report.Report)["to_json"]
    for suite, runner in suites.SUITE_RUNNERS.items():
        seen[("SUITE_RUNNERS", suite)] = runner
    return seen


def test_tracer_patches_imported_names_and_restores_every_original():
    from qsh_lab import cli, linmodel, scalarfield, suites

    before = _bindings()
    original = linmodel.build_flat_model
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        assert suites.build_flat_model is not original  # from-import binding
        assert linmodel.build_flat_model is suites.build_flat_model
        assert suites.SUITE_RUNNERS["model"] is not before[("SUITE_RUNNERS", "model")]
        assert vars(scalarfield.Field)["evaluate"] is not before["Field.evaluate"]
        report, code = cli.run(cli.RunConfig(ns=(2,), suites=("model",), seed=5))
    finally:
        tracer.restore()
    assert code == 0
    assert _bindings() == before
    totals = spans.span_totals(tracer.to_dict())
    assert totals["suites.model"]["calls"] == 1
    assert totals["linmodel.build_flat_model"]["calls"] >= 1
    assert sum(1 for p in tracer.parent if p == -1) == 1  # all under the suite


def test_workload_inputs_are_deterministic_in_the_seed():
    for name in workloads.NAMES:
        assert workloads.make(name, 7) == workloads.make(name, 7)
    assert workloads.make("fiber-input", 7) != workloads.make("fiber-input", 8)
    assert workloads.make("kappa-wide", 7) != workloads.make("kappa-wide", 8)


def test_wide_kappa_is_coprime_thirteen_digit():
    for seed in range(20):
        argv = workloads.make("kappa-wide", seed).argv
        p, q = map(int, argv[argv.index("--kappa") + 1].split("/"))
        assert len(str(p)) == len(str(q)) == 13
        assert math.gcd(p, q) == 1


def test_generated_input_passes_ingest(tmp_path):
    from qsh_lab import cli

    for seed in range(5):
        wl = workloads.make("fiber-input", seed)
        path = tmp_path / workloads.INPUT_FILE
        path.write_text(wl.files[workloads.INPUT_FILE])
        solution = cli.ingest_user_F(str(path))
        assert cli.serialize_solution(solution) == wl.files[workloads.INPUT_FILE]


def test_report_digest_ignores_only_timing():
    doc = {"schema": 1, "config": {"seed": 1, "wall_time_s": 1.5},
           "summary": {"total": 1, "passed": 1, "failed": 0},
           "checks": [{"name": "a", "status": "pass", "wall_time_s": 0.25}]}
    retimed = json.loads(json.dumps(doc))
    retimed["config"]["wall_time_s"] = 9.0
    retimed["checks"][0]["wall_time_s"] = 3.0
    assert run.report_digest(doc) == run.report_digest(retimed)
    retimed["checks"][0]["status"] = "fail"
    assert run.report_digest(doc) != run.report_digest(retimed)


def test_a_crashed_sample_counts_its_checks_as_failed():
    ok = run.Sample(wall_s=1.0, cpu_s=1.0, rss_mb=1.0, code=0, digest="d",
                    total=10, failed=0)
    crashed = run.Sample(wall_s=1.0, cpu_s=1.0, rss_mb=1.0, code=-9,
                         digest=None, total=0, failed=0)
    assert run.tally([ok, crashed]) == (20, 10)


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {m: spans.unit_of(m) for m in spans.PER_LAYER}
    expected["trace.overhead_s"] = "s"
    assert layer == expected


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "default", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""

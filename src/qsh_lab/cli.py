"""Command-line verification harness.

    qsh-lab run [--n N]... [--kappa P/Q] [--seed S] [--trials T]
                [--tolerance EPS] [--suites LIST] [--input F.json]
                [--output PATH] [--format json|markdown]

Runs the selected check suites deterministically for the given seed and
writes a schema-versioned report.  Exit codes: 0 when every check
passes, 1 when a check fails (witnesses are in the report), 2 on a
usage error.

--input points at a JSON file {"F1": ..., "F2": ..., "F3": ...} whose
values are expressions in the documented grammar over h0..h3; the flat
suite then also verifies the user-supplied coefficients.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from qsh_lab import scalarfield as sf
from qsh_lab import suites as suites_mod
from qsh_lab.report import Report, write_atomic
from qsh_lab.swann import FlatSolution

VALID_SUITES = suites_mod.SUITE_NAMES + ("all",)


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    ns: tuple = (2, 3)
    kappa: Fraction = Fraction(1)
    seed: int = 42
    trials: int = 100
    tolerance: float = 1e-10
    suites: tuple = ("all",)
    input_path: str = None
    output_path: str = None
    fmt: str = "json"

    def __post_init__(self):
        # a repeated --n runs once, at its first place, as a suite does
        object.__setattr__(self, "ns", tuple(dict.fromkeys(self.ns)))
        if not self.ns or any(n < 2 for n in self.ns):
            raise UsageError("every --n must be an integer >= 2")
        if self.kappa == 0:
            raise UsageError("--kappa must be nonzero")
        if self.trials < 1:
            raise UsageError("--trials must be >= 1")
        if not 0 < self.tolerance < float("inf"):  # also refuses nan
            raise UsageError("--tolerance must be positive and finite")
        if not self.suites:
            raise UsageError("--suites selects no suite; valid: "
                             f"{', '.join(VALID_SUITES)}")
        unknown = set(self.suites) - set(VALID_SUITES)
        if unknown:
            raise UsageError(f"unknown suites {sorted(unknown)}; "
                             f"valid: {', '.join(VALID_SUITES)}")
        if self.fmt not in ("json", "markdown"):
            raise UsageError("--format must be json or markdown")

    def selected_suites(self):
        if "all" in self.suites:
            return list(suites_mod.SUITE_NAMES)
        return list(dict.fromkeys(self.suites))

    def as_dict(self) -> dict:
        return {
            "ns": list(self.ns),
            "kappa": str(self.kappa),
            "seed": self.seed,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "suites": self.selected_suites(),
            "input": self.input_path,
        }


def ingest_user_F(path: str) -> FlatSolution:
    """Load three coefficient expressions from a JSON file.

    The file must be an object with keys F1, F2, F3; each value parses in
    the scalar-field grammar and may only use the variables h0..h3."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
            raise UsageError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError(f"{path}: expected an object with keys F1, F2, F3")
    fields = []
    for key in ("F1", "F2", "F3"):
        if key not in payload:
            raise UsageError(f"{path}: missing key {key}")
        if not isinstance(payload[key], str):
            raise UsageError(f"{path}: {key} must be an expression string")
        try:
            fields.append(sf.parse(payload[key]))
        except (sf.ParseError, ZeroDivisionError) as exc:  # h1/0 folds at parse
            raise UsageError(f"{path}: {key}: {exc}") from exc
    return FlatSolution(F=tuple(fields))


def serialize_solution(solution: FlatSolution) -> str:
    return json.dumps({f"F{i + 1}": solution.F[i].to_str() for i in range(3)},
                      indent=2) + "\n"


def run(config: RunConfig):
    """Execute the selected suites; returns (Report, exit_code)."""
    if config.output_path:  # refused before any check runs
        if os.path.isdir(config.output_path):
            raise UsageError(f"--output {config.output_path}: is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(config.output_path))):
            raise UsageError(f"--output {config.output_path}: no such directory")
    user_solution = None
    if config.input_path is not None:
        user_solution = ingest_user_F(config.input_path)
    ctx = suites_mod.SuiteContext(
        seed=config.seed, ns=config.ns, kappa=config.kappa,
        trials=config.trials, tolerance=config.tolerance,
        user_solution=user_solution)
    selected = config.selected_suites()
    started = time.perf_counter()
    checks = suites_mod.run_suites(ctx, selected)
    checks.sort(key=lambda c: (selected.index(c.suite), c.name))
    report = Report(config=config.as_dict(), checks=checks,
                    wall_time=time.perf_counter() - started)
    if config.output_path:
        text = report.to_json() if config.fmt == "json" else report.to_markdown()
        write_atomic(config.output_path, text)
    return report, (0 if report.passed else 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsh-lab",
        description="verification harness for the flat quaternionic "
                    "skew-Hermitian model and its fiber calculus")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser(
        "run", help="run verification suites",
        description="Runs the selected suites and writes a report. "
                    "The curvature suite always includes an n=3 Ricci "
                    "dichotomy pass: at n=2 the two Ricci coefficients "
                    "coincide, so only n=3 separates them.")
    runp.add_argument("--n", dest="ns", action="append", type=int,
                      metavar="N", help="model size, repeatable "
                      "(default: 2 and 3)")
    runp.add_argument("--kappa", default="1", metavar="P/Q",
                      help="nonzero curvature normalization (rational); "
                           "give a negative one as --kappa=-3/7")
    runp.add_argument("--seed", type=int, default=42, metavar="U64")
    runp.add_argument("--trials", type=int, default=100, metavar="T",
                      help="sample count for randomized identity checks")
    runp.add_argument("--tolerance", type=float, default=1e-10, metavar="EPS")
    runp.add_argument("--suites", default="all", metavar="LIST",
                      help="comma-separated subset of "
                           f"{{{', '.join(VALID_SUITES)}}}")
    runp.add_argument("--input", dest="input_path", metavar="PATH",
                      help="JSON file with user-supplied F1, F2, F3")
    runp.add_argument("--output", dest="output_path", metavar="PATH",
                      help="write the report here (atomic)")
    runp.add_argument("--format", dest="fmt", default="json",
                      choices=("json", "markdown"))
    return parser


def _config_from_args(args) -> RunConfig:
    try:
        kappa = Fraction(args.kappa)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--kappa: not a rational: {args.kappa!r}") from exc
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    return RunConfig(ns=tuple(args.ns) if args.ns else (2, 3), kappa=kappa,
                     seed=args.seed, trials=args.trials,
                     tolerance=args.tolerance, suites=suites,
                     input_path=args.input_path, output_path=args.output_path,
                     fmt=args.fmt)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        report, code = run(config)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = report.summary()
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        residual = ""
        if isinstance(check.residual, float) and check.residual:
            residual = f"  (residual {check.residual:.3e})"
        print(f"[{status}] {check.suite}/{check.name}{residual}")
    print(f"{summary['passed']}/{summary['total']} checks passed "
          f"in {round(report.wall_time, 3)}s")
    if config.output_path:
        print(f"report written to {config.output_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())

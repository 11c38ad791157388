#!/usr/bin/env python3
"""Regenerate the golden reports under tests/golden/, with every timing
field stripped:

- report_seed42_linear.json: the report of
  `qsh-lab run --seed 42 --suites model,liealg,curvature --n 2 --n 3`
- F_seed42.json: one member of the closed-form exp/sin family, drawn
  from seed 42 and written by `cli.serialize_solution`
- report_seed42_fiber.json: the report of
  `qsh-lab run --seed 42 --suites fiber,flat,symspace --n 2
  --input F_seed42.json`, with the input path reduced to its file name
- report_seed7_kappa_wide_linear.json: the report of
  `qsh-lab run --seed 7 --suites model,liealg,curvature --n 2 --n 4
  --kappa 4567891234567/1234567891237`, whose wide kappa takes the
  Python-int path of QArray at n = 4

Run only when a report is meant to change on purpose; the regression
tests compare byte-for-byte and never rewrite the files."""

import json
import math
import pathlib
import random
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qsh_lab import swann
from qsh_lab.cli import RunConfig, run, serialize_solution

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

# No coefficient is 0 or +-1 and no doubled rate is 1, so the smart
# constructors fold nothing away.
_COEFFS = tuple(Fraction(v) for v in ("-3", "-2", "-3/2", "3/2", "2", "3"))
_RATES = tuple(Fraction(v) for v in ("1/4", "1/3", "2/3"))


def family_member(seed: int) -> swann.FlatSolution:
    """A closed-form solution whose sqrt(C11 + C12 + C13) stays irrational."""
    rng = random.Random(seed)
    while True:
        coeffs = {f"C{i}": rng.choice(_COEFFS) for i in (*range(1, 11), 14)}
        rates = {f"s{i}": rng.choice(_RATES) for i in (1, 2, 3)}
        k = swann.SolutionConstants(**coeffs, **rates)
        total = k.C11 + k.C12 + k.C13
        if not all(math.isqrt(v) ** 2 == v
                   for v in (total.numerator, total.denominator)):
            return swann.explicit_solution_family(k)


def stripped(config: RunConfig) -> str:
    report, code = run(config)
    if code != 0:
        raise SystemExit(f"golden run failed: {config}")
    payload = report.to_dict(omit_timing=True)
    if payload["config"]["input"] is not None:
        payload["config"]["input"] = pathlib.Path(payload["config"]["input"]).name
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main() -> int:
    outputs = {}
    outputs["report_seed42_linear.json"] = stripped(RunConfig(
        ns=(2, 3), seed=42, suites=("model", "liealg", "curvature")))
    f_path = GOLDEN / "F_seed42.json"
    f_path.write_text(serialize_solution(family_member(42)))
    print(f"wrote {f_path}")
    outputs["report_seed42_fiber.json"] = stripped(RunConfig(
        ns=(2,), seed=42, suites=("fiber", "flat", "symspace"),
        input_path=str(f_path)))
    outputs["report_seed7_kappa_wide_linear.json"] = stripped(RunConfig(
        ns=(2, 4), seed=7, suites=("model", "liealg", "curvature"),
        kappa=Fraction(4567891234567, 1234567891237)))
    for name, text in outputs.items():
        (GOLDEN / name).write_text(text)
        print(f"wrote {GOLDEN / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

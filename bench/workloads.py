"""Seeded workloads of the benchmark.

Each workload is the argument list of one `qsh-lab run` plus the files it
reads.  Both are made from the benchmark seed alone, through public
functions of `qsh_lab`, so the same seed always gives the same argv and
the same file bytes; the program sees only argv and files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

# BENCHMARK.json lists default and fiber-input.  kappa-wide (curvature on
# wide rationals) stays runnable by hand: with one `default` run costing two
# samples of 20-30 s, a third workload does not fit the benchmark's time budget.
NAMES = ("default", "fiber-input", "kappa-wide")

INPUT_FILE = "F.json"

# Coefficient values of the closed-form family.  None of them is 0 or +-1
# and no doubled rate is 1, so the smart constructors of `scalarfield` fold
# nothing away and every seed gives expression trees of the same shape.
_COEFFS = tuple(Fraction(v) for v in ("-3", "-2", "-3/2", "3/2", "2", "3"))
_RATES = tuple(Fraction(v) for v in ("1/4", "1/3", "2/3"))


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # arguments after `qsh-lab run`, without --output
    files: dict  # file name -> text, written next to the report
    setup_ns: tuple  # sizes n whose flat model and basis setup_s builds


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"qsh-lab-bench:{name}:{seed}")


def solution_constants(rng: random.Random):
    """Constants of one member of the closed-form exp/sin family."""
    from qsh_lab import swann

    while True:
        coeffs = {f"C{i}": rng.choice(_COEFFS) for i in (*range(1, 11), 14)}
        rates = {f"s{i}": rng.choice(_RATES) for i in (1, 2, 3)}
        k = swann.SolutionConstants(**coeffs, **rates)
        # a rational sqrt(C11 + C12 + C13) would fold to a constant
        total = k.C11 + k.C12 + k.C13
        if not (_is_square(total.numerator) and _is_square(total.denominator)):
            return k


def _is_square(v: int) -> bool:
    return math.isqrt(v) ** 2 == v


def wide_kappa(rng: random.Random) -> str:
    """p/q with p and q coprime 13-digit integers."""
    while True:
        p = rng.randrange(10 ** 12, 10 ** 13)
        q = rng.randrange(10 ** 12, 10 ** 13)
        if math.gcd(p, q) == 1:
            return f"{p}/{q}"


def make(name: str, seed: int) -> Workload:
    rng = _rng(name, seed)
    common = ("--seed", str(seed))
    if name == "default":
        return Workload(name, ("--suites", "all", "--n", "2", "--n", "3",
                               "--trials", "100", "--kappa", "1", *common),
                        {}, (2, 3))
    if name == "fiber-input":
        from qsh_lab import cli, swann

        solution = swann.explicit_solution_family(solution_constants(rng))
        return Workload(name, ("--suites", "fiber,flat,symspace", "--n", "2",
                               "--trials", "1000", "--input", INPUT_FILE,
                               *common),
                        {INPUT_FILE: cli.serialize_solution(solution)}, ())
    if name == "kappa-wide":
        # the curvature suite always adds an n = 3 Ricci dichotomy pass
        return Workload(name, ("--suites", "curvature", "--n", "2",
                               "--kappa", wide_kappa(rng), *common),
                        {}, (2, 3))
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")

#!/usr/bin/env python3
"""Regenerate tests/golden/report_seed42_linear.json: the report of
`qsh-lab run --seed 42 --suites model,liealg,curvature --n 2 --n 3`
with every timing field stripped.  Run only when a report is meant to
change on purpose; the regression test compares byte-for-byte and never
rewrites the file."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from qsh_lab.cli import RunConfig, run


def main() -> int:
    target = (pathlib.Path(__file__).resolve().parent.parent
              / "tests" / "golden" / "report_seed42_linear.json")
    report, _ = run(RunConfig(ns=(2, 3), seed=42,
                              suites=("model", "liealg", "curvature")))
    payload = report.to_dict(omit_timing=True)
    payload["config"].pop("wall_time_s")
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

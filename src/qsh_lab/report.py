"""Machine-readable verification reports.

A report is a list of per-check records {suite, name, anchor, status,
residual, witness, wall_time}; the anchor states the identity the check
verifies.  JSON output is schema-versioned and written atomically
(temp file + rename), and is byte-identical across runs with the same
configuration once timing fields are stripped.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

SCHEMA_VERSION = 1


def jsonable(value):
    """Recursively convert check payloads to JSON-safe values; exact
    rationals become 'p/q' strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, float):
        return value
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


@dataclass
class CheckResult:
    suite: str
    name: str
    anchor: str
    passed: bool
    residual: float = None
    witness: object = None
    detail: str = ""
    wall_time: float = 0.0

    def record(self, omit_timing: bool = False) -> dict:
        rec = {
            "suite": self.suite,
            "name": self.name,
            "anchor": self.anchor,
            "status": "pass" if self.passed else "fail",
            "residual": jsonable(self.residual),
            "witness": jsonable(self.witness),
            "detail": self.detail,
        }
        if not omit_timing:
            rec["wall_time_s"] = round(self.wall_time, 6)
        return rec


@dataclass
class Report:
    config: dict
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict:
        failed = [c for c in self.checks if not c.passed]
        return {
            "total": len(self.checks),
            "passed": len(self.checks) - len(failed),
            "failed": len(failed),
        }

    def to_dict(self, omit_timing: bool = False) -> dict:
        config = jsonable(self.config)
        if not omit_timing:
            config["wall_time_s"] = round(self.wall_time, 3)
        return {
            "schema": SCHEMA_VERSION,
            "config": config,
            "summary": self.summary(),
            "checks": [c.record(omit_timing) for c in self.checks],
        }

    def to_json(self, omit_timing: bool = False) -> str:
        return json.dumps(self.to_dict(omit_timing), indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        lines = ["# Verification report", ""]
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} checks passed.")
        lines.append("")
        lines.append("| suite | check | status | residual | time (s) |")
        lines.append("|---|---|---|---|---|")
        for c in self.checks:
            residual = "" if c.residual is None else f"{c.residual:.3e}" \
                if isinstance(c.residual, float) else str(c.residual)
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"| {c.suite} | {c.name} | {status} | {residual} "
                         f"| {c.wall_time:.3f} |")
        failed = [c for c in self.checks if not c.passed]
        if failed:
            lines.append("")
            lines.append("## Failures")
            for c in failed:
                lines.append("")
                lines.append(f"### {c.suite}/{c.name}")
                lines.append(f"- verifies: {c.anchor}")
                if c.detail:
                    lines.append(f"- detail: {c.detail}")
                if c.witness is not None:
                    lines.append(f"- witness: `{json.dumps(jsonable(c.witness))}`")
        lines.append("")
        return "\n".join(lines)


def write_atomic(path: str, text: str):
    """Write via a temp file in the target directory, then rename, so a
    crash can never leave a partial report."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

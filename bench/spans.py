"""Outside-in tracer for `qsh_lab`.

`Tracer.install` wraps the public functions named in `TARGETS` (and the
`suites.SUITE_RUNNERS` entries) without touching the program's source:
it patches the module attribute, every name bound to the same function
by `from ... import` in another `qsh_lab` module, class attributes for
methods, and the runner dict.  Each call records a span (name, parent
span, start, end) in memory; `dump` writes them once at the end and
`restore` puts every original back.

`span_totals` and `layer_value` turn a dumped trace into the per-layer
metrics.  The program runs single-threaded under the benchmark
(QSH_LAB_THREADS is unset), so one span stack describes the nesting.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from array import array

# (span name, module under qsh_lab, class or None, attribute)
TARGETS = (
    ("cli.ingest_user_F", "cli", None, "ingest_user_F"),
    ("scalarfield.parse", "scalarfield", None, "parse"),
    ("scalarfield.Field.evaluate", "scalarfield", "Field", "evaluate"),
    ("linmodel.build_flat_model", "linmodel", None, "build_flat_model"),
    ("linmodel.sp1_conjugate_frame", "linmodel", None, "sp1_conjugate_frame"),
    ("liealg.enumerate_so_star_basis", "liealg", None, "enumerate_so_star_basis"),
    ("liealg.symplectic_defect", "liealg", None, "symplectic_defect"),
    ("liealg.commutation_defect", "liealg", None, "commutation_defect"),
    ("liealg.decompose", "liealg", None, "decompose"),
    ("liealg.project_ZQ", "liealg", None, "project_ZQ"),
    ("liealg.project_Q", "liealg", None, "project_Q"),
    ("liealg.circle_map", "liealg", None, "circle_map"),
    ("curvature.curvature_of", "curvature", None, "curvature_of"),
    ("curvature.curvature_13", "curvature", None, "curvature_13"),
    ("curvature.bianchi_residual", "curvature", None, "bianchi_residual"),
    ("curvature.ricci_of", "curvature", None, "ricci_of"),
    ("curvature.ricci_closed_form", "curvature", None, "ricci_closed_form"),
    ("curvature.is_Q_hermitian", "curvature", None, "is_Q_hermitian"),
    ("curvature.curvature_map_rank", "curvature", None, "curvature_map_rank"),
    ("curvature.curvature_map_rank_float", "curvature", None,
     "curvature_map_rank_float"),
    ("matrices.mat_mul", "matrices", None, "mat_mul"),
    ("matrices.mat_vec", "matrices", None, "mat_vec"),
    ("matrices.sparse_apply", "matrices", None, "sparse_apply"),
    ("matrices.rref", "matrices", None, "rref"),
    ("forms.equal", "forms", None, "equal"),
    ("forms.d", "forms", None, "d"),
    ("forms.sample_point", "forms", None, "sample_point"),
    ("swann.torsion_type", "swann", None, "torsion_type"),
    ("swann.symspace_primitive_check", "swann", None, "symspace_primitive_check"),
    ("swann.general_obstruction_check", "swann", None,
     "general_obstruction_check"),
    ("report.to_json", "report", "Report", "to_json"),
    ("report.write_atomic", "report", None, "write_atomic"),
)

# Per-layer metrics: `<span>.calls` counts calls, `<span>.s` is inclusive
# time, `<span>.self_s` and `<module>.self_s` are time outside child spans.
PER_LAYER = (
    "suites.model.s", "suites.liealg.s", "suites.curvature.s", "suites.fiber.s",
    "suites.flat.s", "suites.symspace.s", "suites.self_s",
    "cli.ingest_user_F.self_s", "scalarfield.parse.self_s",
    "linmodel.build_flat_model.calls", "linmodel.build_flat_model.self_s",
    "linmodel.sp1_conjugate_frame.s", "linmodel.self_s",
    "liealg.enumerate_so_star_basis.calls", "liealg.enumerate_so_star_basis.s",
    "liealg.symplectic_defect.s", "liealg.commutation_defect.s",
    "liealg.decompose.calls", "liealg.decompose.s", "liealg.project_ZQ.s",
    "liealg.project_Q.s", "liealg.circle_map.s", "liealg.self_s",
    "curvature.curvature_of.calls", "curvature.curvature_of.s",
    "curvature.curvature_of.distinct_ratio", "curvature.curvature_13.s",
    "curvature.bianchi_residual.s", "curvature.ricci_of.s",
    "curvature.ricci_closed_form.s", "curvature.is_Q_hermitian.s",
    "curvature.curvature_map_rank.s", "curvature.curvature_map_rank_float.s",
    "curvature.self_s",
    "matrices.mat_mul.calls", "matrices.mat_mul.self_s",
    "matrices.mat_vec.calls", "matrices.mat_vec.self_s",
    "matrices.sparse_apply.calls", "matrices.sparse_apply.self_s",
    "matrices.rref.self_s", "matrices.self_s",
    "scalarfield.Field.evaluate.calls", "scalarfield.Field.evaluate.self_s",
    "scalarfield.Field.evaluate.fail_ratio", "scalarfield.self_s",
    "forms.equal.calls", "forms.equal.s", "forms.d.calls", "forms.d.s",
    "forms.sample_point.calls", "forms.self_s",
    "swann.torsion_type.s", "swann.symspace_primitive_check.s",
    "swann.general_obstruction_check.s", "swann.self_s",
    "report.to_json.self_s", "report.write_atomic.self_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"


# errors that a sampled evaluation rejects instead of failing on
SAMPLE_ERRORS = ("ZeroDivisionError", "ValueError", "OverflowError")


def curvature_input_key(model, basis, a, params) -> str:
    """Identity of a curvature_of input by value, for the distinct ratio."""
    text = repr((model.n, a, params))
    return hashlib.sha1(text.encode()).hexdigest()


INPUT_KEYS = {"curvature.curvature_of": curvature_input_key}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.name_of = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.errors = {}  # span index -> exception type name
        self.keys = {}  # span index -> input key
        self._stack = []
        self._patches = []  # (holder, attribute or dict key, original)

    def wrap(self, name: str, fn, key=None):
        """Return fn wrapped so each call records a span called name."""
        code = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        errors, keys, stack = self.errors, self.keys, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            input_key = None if key is None else key(*args, **kwargs)
            i = len(start)
            if input_key is not None:
                keys[i] = input_key
            name_of.append(code)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[i] = type(exc).__name__
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _set(self, holder, attr, value):
        if isinstance(holder, dict):
            self._patches.append((holder, attr, holder[attr]))
            holder[attr] = value
        else:
            self._patches.append((holder, attr, getattr(holder, attr)))
            setattr(holder, attr, value)

    def install(self):
        """Wrap every target that exists in the loaded program."""
        suites = importlib.import_module("qsh_lab.suites")
        importlib.import_module("qsh_lab.cli")  # loads every module it binds
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "qsh_lab" or k.startswith("qsh_lab.")]
        for name, module_name, owner, attr in TARGETS:
            module = importlib.import_module(f"qsh_lab.{module_name}")
            holder = getattr(module, owner, None) if owner else module
            original = vars(holder).get(attr) if holder is not None else None
            if original is None:  # not part of this version of the program
                continue
            wrapper = self.wrap(name, original, INPUT_KEYS.get(name))
            if owner:
                self._set(holder, attr, wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, bound, wrapper)
        for suite, runner in list(suites.SUITE_RUNNERS.items()):
            self._set(suites.SUITE_RUNNERS, suite, self.wrap(f"suites.{suite}", runner))

    def restore(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "names": self.names,
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "errors": {str(i): e for i, e in self.errors.items()},
            "keys": {str(i): k for i, k in self.keys.items()},
        }

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def span_totals(trace: dict) -> dict:
    """Per span name: calls, inclusive time, self time, errors, input keys.

    Inclusive time counts only the outermost span of a name, so a
    recursive call is not counted twice.  Self time is a span's duration
    minus the durations of its direct children, which on one thread never
    overlap one another."""
    names, name_of, parent = trace["names"], trace["name"], trace["parent"]
    start, end = trace["start"], trace["end"]
    count = len(start)
    child_time = [0.0] * count
    ancestors = [0] * count  # bit mask of the names open above each span
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
            ancestors[i] = ancestors[p] | (1 << name_of[p])
    totals = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": [], "keys": set()}
              for n in names}
    for i in range(count):
        t = totals[names[name_of[i]]]
        duration = end[i] - start[i]
        t["calls"] += 1
        t["self_s"] += duration - child_time[i]
        if not ancestors[i] >> name_of[i] & 1:
            t["s"] += duration
    for i, err in trace["errors"].items():
        totals[names[name_of[int(i)]]]["errors"].append(err)
    for i, key in trace["keys"].items():
        totals[names[name_of[int(i)]]]["keys"].add(key)
    return totals


def layer_value(metric: str, totals: dict):
    """Value of one per-layer metric.

    `<module>.self_s` is the self time of all spans of that module;
    `<module>.<function>.<stat>` is one statistic of one span name.  A span
    the run never entered reads 0."""
    base, _, stat = metric.rpartition(".")
    if "." not in base:
        return sum(t["self_s"] for span, t in totals.items()
                   if span.startswith(base + "."))
    return _span_stat(totals.get(base, _NEVER_CALLED), stat)


_NEVER_CALLED = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": [], "keys": set()}


def _span_stat(t: dict, stat: str):
    calls = t["calls"]
    if stat in ("calls", "s", "self_s"):
        return t[stat]
    if stat == "distinct_ratio":
        return len(t["keys"]) / calls if calls else 0.0
    if stat == "fail_ratio":
        failed = sum(1 for e in t["errors"] if e in SAMPLE_ERRORS)
        return failed / calls if calls else 0.0
    raise ValueError(f"unknown statistic {stat!r}")

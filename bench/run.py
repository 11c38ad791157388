"""Benchmark of `qsh-lab run`.

    python3 bench/run.py --workload default --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Each sample is one fresh `python -m qsh_lab.cli run`
process, started only after the previous one exited (a closed loop with
one client).  A run takes at least MIN_SAMPLES samples, and more while
one more of the mean length fits in --seconds.

--trace 0 reports the end-to-end metrics (tracing off):
  report_s          wall time from launch to exit of a run
  setup_s           import plus model and basis set-up, in fresh processes
  cpu_s             user + system CPU time of a run
  peak_rss_mb       peak resident memory of a run process alone
  check_pass_ratio  checks passed / checks attempted

--trace 1 runs one untraced and one traced sample and reports the
per-layer metrics of `spans.PER_LAYER` plus trace.overhead_s.

Every sample's report is checked: exit code 0, no failed check, and one
digest of the report with timing fields stripped for all samples (traced
and untraced).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "report_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_ratio": "ratio",
}
SETUP_REPEATS = 3
MIN_SAMPLES = 2  # so no median is one process's time
CHILD_TIMEOUT_S = 150
WORK_DIR = ".bench_work"
REPORT_FILE = "report.json"


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    digest: str | None  # of the report with timing stripped; None if absent
    total: int  # checks in the report
    failed: int


class Runner:
    """Starts the program's processes in one work directory and environment."""

    def __init__(self, src: Path, work: Path):
        self.work = work
        # an inherited QSH_LAB_THREADS would change the program measured
        self.env = {k: v for k, v in os.environ.items() if k != "QSH_LAB_THREADS"}
        self.env["PYTHONPATH"] = str(src)

    def spawn(self, cmd, stdout=subprocess.DEVNULL):
        """Run cmd to completion; returns (wall s, rusage, exit code)."""
        with open(self.work / "stderr.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=stdout, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                # the child's own rusage; RUSAGE_CHILDREN would mix children
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = (self.work / "stderr.txt").read_text()[-2000:]
            print(f"exit code {code} from {' '.join(cmd[1:3])}:\n{tail}",
                  file=sys.stderr)
        return wall, usage, code

    def sample(self, cmd) -> Sample:
        report = self.work / REPORT_FILE
        report.unlink(missing_ok=True)
        wall, usage, code = self.spawn(cmd)
        digest, total, failed = None, 0, 0
        if code in (0, 1) and report.exists():
            doc = json.loads(report.read_text())
            digest = report_digest(doc)
            total, failed = doc["summary"]["total"], doc["summary"]["failed"]
        return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss * 1024 / 1e6, code=code,
                      digest=digest, total=total, failed=failed)

    def setup_seconds(self, ns) -> float:
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *map(str, ns)]
        out = self.work / "setup.txt"
        with open(out, "w") as fh:
            _, _, code = self.spawn(cmd, stdout=fh)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        return float(out.read_text())


def report_digest(doc: dict) -> str:
    """sha256 of the report without its timing fields.

    `Report.to_dict(omit_timing=True)` keeps config.wall_time_s, so both
    that and every check's wall_time_s are dropped here."""
    doc = dict(doc, config={k: v for k, v in doc["config"].items()
                            if k != "wall_time_s"},
               checks=[{k: v for k, v in c.items() if k != "wall_time_s"}
                       for c in doc["checks"]])
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_command(workload: workloads.Workload):
    return [sys.executable, "-m", "qsh_lab.cli", "run", *workload.argv,
            "--output", REPORT_FILE]


def traced_command(workload: workloads.Workload, run_id: str):
    return [sys.executable, str(BENCH_DIR / "traced_run.py"), "spans.json",
            run_id, "--", *workload.argv, "--output", REPORT_FILE]


def tally(samples):
    """(attempted, failed) checks; a run that crashed or left no report
    counts every check it should have made as failed."""
    expected = max((s.total for s in samples), default=0) or 1
    attempted = failed = 0
    for s in samples:
        if s.digest is None:
            attempted += expected
            failed += expected
        else:
            attempted += s.total
            failed += s.failed
    return attempted, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(runner, workload, seconds):
    setups = [runner.setup_seconds(workload.setup_ns) for _ in range(SETUP_REPEATS)]
    samples = []
    started = time.perf_counter()
    # past MIN_SAMPLES, the next sample starts only if one more of the mean
    # length still fits in the time given
    while len(samples) < MIN_SAMPLES or (time.perf_counter() - started) \
            * (len(samples) + 1) / len(samples) <= seconds:
        samples.append(runner.sample(run_command(workload)))
    attempted, failed = tally(samples)
    series = {
        "report_s": [s.wall_s for s in samples],
        "setup_s": setups,
        "cpu_s": [s.cpu_s for s in samples],
        "peak_rss_mb": [s.rss_mb for s in samples],
    }
    metrics = {name: statistics.median(v) for name, v in series.items()}
    metrics["check_pass_ratio"] = (attempted - failed) / attempted
    for name, values in series.items():
        q1, q3 = quartiles(values)
        print(f"  {name:<18} median {metrics[name]:.6g} {END_TO_END[name]}"
              f"  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    print("  (no tail percentile: fewer than 10 samples would lie beyond it)")
    return samples, attempted, failed, {m: (metrics[m], unit)
                                         for m, unit in END_TO_END.items()}


def per_layer(runner, workload, run_id):
    plain = runner.sample(run_command(workload))
    traced = runner.sample(traced_command(workload, run_id))
    samples = [plain, traced]
    attempted, failed = tally(samples)
    trace_file = runner.work / "spans.json"
    # a run that left no trace reads 0 everywhere and is already incorrect
    totals = (spans.span_totals(json.loads(trace_file.read_text()))
              if traced.digest is not None and trace_file.exists() else {})
    metrics = {name: (spans.layer_value(name, totals), spans.unit_of(name))
               for name in spans.PER_LAYER}
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    print(f"  untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s")
    return samples, attempted, failed, metrics


def provenance(root: Path, src: Path) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "src_sha256": source_digest(src),
    }


def git_commit(root: Path):
    """HEAD of the checkout, or None when it is not a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the program's source files, to tell two trees apart."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qsh_lab" / "cli.py").is_file():
        print(f"error: no qsh_lab source under {src}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))  # the generators use qsh_lab's public API
    workload = workloads.make(args.workload, args.seed)

    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR))
    try:
        for name, text in workload.files.items():
            (work / name).write_text(text)
        runner = Runner(src, work)
        info = provenance(root, src)
        print("provenance: " + ", ".join(f"{k} {v}" for k, v in info.items()))
        print(f"workload {workload.name}, seed {args.seed}: qsh-lab run "
              + " ".join(workload.argv))
        for name, text in workload.files.items():
            sha = hashlib.sha256(text.encode()).hexdigest()
            print(f"  input {name}: sha256 {sha}")
        if args.trace:
            run_id = f"{workload.name}-{args.seed}-{os.getpid()}"
            samples, attempted, failed, metrics = per_layer(runner, workload, run_id)
        else:
            samples, attempted, failed, metrics = end_to_end(runner, workload,
                                                             args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:  # another run still uses it
            pass

    digests = {s.digest for s in samples}
    correct = (all(s.code == 0 for s in samples) and failed == 0
               and len(digests) == 1 and None not in digests)
    print(f"report digest (timing stripped): {', '.join(sorted(map(str, digests)))}"
          f" over {len(samples)} samples")
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

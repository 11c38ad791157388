"""Run `qsh-lab run` in this process under the tracer, then write the spans.

    python traced_run.py SPANS_PATH RUN_ID -- RUN_ARGS...

Exits with the exit code of the run.  `qsh_lab` must be importable
(PYTHONPATH pointing at the source tree).
"""

import sys

import spans


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    path, run_id, run_args = argv[0], argv[1], argv[3:]
    from qsh_lab import cli

    tracer = spans.Tracer(run_id)
    tracer.install()
    try:
        code = cli.main(["run", *run_args])
    finally:
        tracer.restore()
    tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

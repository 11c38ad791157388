"""Time the set-up a run pays before its checks: import the CLI, then build
the flat model and enumerate the so*(2n) basis for every size given.

    python setup_probe.py [N ...]

Prints the elapsed seconds.  `qsh_lab` must be importable.
"""

import sys
import time


def main(ns) -> int:
    start = time.perf_counter()
    from qsh_lab import cli, liealg, linmodel  # noqa: F401  (import is timed)

    for n in ns:
        liealg.enumerate_so_star_basis(linmodel.build_flat_model(n))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]]))

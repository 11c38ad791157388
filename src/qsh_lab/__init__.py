"""Verification toolkit for the flat quaternionic skew-Hermitian model.

The package is organised bottom-up:

  record       plain immutable __slots__ records: field-wise repr,
               equality, hashing and pickling
  quaternion   exact quaternion arithmetic, the fiber coordinate type
  matrices     QArray, the one exact matrix/vector type (integer arrays
               with a rational scale), and Fraction elimination (RREF,
               nullspace, rank, solve, symmetric signature)
  linmodel     the flat model (J_1, J_2, J_3, omega_0, g_a) on R^{4n}
  liealg       basis enumeration for so*(2n) (+) sp(1), invariant
               projections and the equivariant circle map
  curvature    the formal curvature map A -> R_A on one exact integer
               kernel, Bianchi residuals, Ricci formulas
  scalarfield  expression trees in the fiber coordinates h0..h3
  forms        exterior calculus over the 4-dimensional vertical coframe
  swann        fiber geometry: beta forms, the flat PDE system and its
               closed-form solutions, the symmetric-space primitive
  serialize    JSON schema for exact matrices and so*(2n) basis exports
  report       check records and schema-versioned reports, written
               atomically as JSON or markdown
  suites       the named checks, grouped into suites, and the lanes that
               run them
  cli          verification harness with JSON/markdown reports
"""

import os

# one BLAS thread before numpy loads: lanes fork only from a single-threaded
# process (`suites.run_suites`), and BLAS threads gain nothing on small matrices
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

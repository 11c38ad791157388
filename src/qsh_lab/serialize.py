"""JSON schema for exact matrices and basis exports.

A matrix is serialized row-major with every entry an exact rational
string "p/q" (denominator always present):

    {"rows": R, "cols": C, "entries": [["0/1", "1/1", ...], ...]}

A basis export bundles the enumerated so*(2n) basis with the three
structure matrices:

    {"schema": 1, "n": n, "so_star": [matrix, ...], "sp1": [matrix x3]}

Used for golden-file regression of the deterministic enumeration.
"""

from __future__ import annotations

import json

from qsh_lab.liealg import LieBasis
from qsh_lab.matrices import QArray

SCHEMA_VERSION = 1


def matrix_to_dict(m: QArray) -> dict:
    rows, cols = m.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[f"{x.numerator}/{x.denominator}" for x in row] for row in m],
    }


def basis_to_dict(basis: LieBasis) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": basis.model.n,
        "so_star": [matrix_to_dict(m) for m in basis.so_basis],
        "sp1": [matrix_to_dict(m) for m in basis.sp_basis],
    }


def basis_to_json(basis: LieBasis) -> str:
    return json.dumps(basis_to_dict(basis), indent=1, sort_keys=True) + "\n"

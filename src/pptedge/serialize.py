"""JSON matrix files and canonical report serialization.

A matrix file stores the tensor dimensions, the operator entries as
``[re, im]`` pairs in row-major order over the composite index, and an
optional metadata block. Floats are written in Python's shortest
round-tripping decimal form, so write-then-read reproduces the operator
bit-exactly, and serialization of equal inputs is byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .bipartite import BipartiteOperator
from .exceptions import MatrixFileError

__all__ = [
    "dumps_canonical",
    "matrix_payload",
    "parse_matrix_payload",
    "read_matrix_file",
    "write_matrix_file",
]


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed indentation, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def matrix_payload(op: BipartiteOperator, metadata: dict | None = None) -> dict:
    payload = {
        "dims": [op.dim_a, op.dim_b],
        "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in op.matrix],
    }
    if metadata:
        payload["metadata"] = metadata
    return payload


def _is_int(x) -> bool:
    """True for a JSON integer; ``bool`` subclasses ``int`` but is not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    """True for a JSON number that converts to a finite float."""
    if not (_is_int(x) or isinstance(x, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def parse_matrix_payload(payload) -> tuple[BipartiteOperator, dict]:
    """Decode a matrix payload; raises :class:`MatrixFileError` on any malformation."""
    if not isinstance(payload, dict):
        raise MatrixFileError("matrix file must contain a JSON object")
    try:
        dims = payload["dims"]
        rows = payload["matrix"]
    except (KeyError, TypeError) as exc:
        raise MatrixFileError(f"matrix file is missing field {exc}") from None
    if not (isinstance(dims, list) and len(dims) == 2 and all(_is_int(d) and d > 0 for d in dims)):
        raise MatrixFileError(f"dims must be two positive integers, got {dims!r}")
    d = dims[0] * dims[1]
    if not isinstance(rows, list) or len(rows) != d:
        raise MatrixFileError(f"matrix must have {d} rows")
    mat = np.empty((d, d), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise MatrixFileError(f"row {i} must have {d} entries")
        for j, pair in enumerate(row):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise MatrixFileError(f"entry ({i}, {j}) must be a [re, im] pair")
            re, im = pair
            if not all(_is_finite_number(x) for x in (re, im)):
                raise MatrixFileError(f"entry ({i}, {j}) must hold finite numbers")
            mat[i, j] = complex(re, im)
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise MatrixFileError("metadata must be an object")
    return BipartiteOperator(mat, dims[0], dims[1]), metadata


def write_matrix_file(path, op: BipartiteOperator, metadata: dict | None = None) -> None:
    Path(path).write_text(dumps_canonical(matrix_payload(op, metadata)))


def read_matrix_file(path) -> tuple[BipartiteOperator, dict]:
    """Read and decode a matrix file; a file that is unreadable, not UTF-8, or not a payload raises :class:`MatrixFileError`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixFileError(f"cannot read matrix file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"matrix file {path} is not UTF-8: {exc}") from exc
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # malformed JSON, an integer past the digit limit, or nesting past the recursion limit
        raise MatrixFileError(f"matrix file {path} is not valid JSON: {exc}") from exc
    return parse_matrix_payload(payload)

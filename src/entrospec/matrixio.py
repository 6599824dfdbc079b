"""Reading and writing complex matrices as JSON files.

The on-disk schema keeps real and imaginary parts as separate nested
arrays, so files stay human-writable and there is no complex-literal
ambiguity:

    {"n": 2, "re": [[0.5, 0.25], [0.25, 0.5]], "im": [[0, 0], [0, 0]]}

Floats are serialized through repr, which round-trips every finite double
exactly.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import ParseError
from .states import ComplexMatrix, as_complex_matrix


def _check_grid(name: str, grid, n: int) -> list[list[float]]:
    if not isinstance(grid, list) or len(grid) != n:
        raise ParseError(f"field '{name}' must be a list of {n} rows")
    rows = []
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(
                f"field '{name}', row {i}: expected {n} entries, "
                f"got {len(row) if isinstance(row, list) else type(row).__name__}"
            )
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ParseError(
                    f"field '{name}', row {i}, column {j}: not a number: {entry!r}"
                )
            # an exact int/float comparison: float() of a larger int overflows
            if not abs(entry) <= sys.float_info.max:
                raise ParseError(
                    f"field '{name}', row {i}, column {j}: non-finite or out-of-range value"
                )
        rows.append([float(x) for x in row])
    return rows


def parse_matrix_file(text: str) -> ComplexMatrix:
    """Parse a matrix file's text; every problem raises ParseError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too-long ints, deep nesting
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object with keys n, re, im")
    missing = [key for key in ("n", "re", "im") if key not in doc]
    if missing:
        raise ParseError(f"missing required field(s): {', '.join(missing)}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f"field 'n' must be a positive integer, got {n!r}")
    # assembled componentwise, and only from a checked grid: re + 1j*im
    # would turn -0.0 into +0.0, and n alone may ask for any size
    out = np.array(_check_grid("re", doc["re"], n), dtype=np.complex128)
    out.imag = _check_grid("im", doc["im"], n)
    return out


def load_matrix(path: str) -> ComplexMatrix:
    """Read a matrix file; every parse problem raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_file(text)


def save_matrix(path: str, matrix) -> None:
    """Write a matrix file that load_matrix reads back bit-exactly.

    Raises ValueError on a non-finite entry, which the format cannot hold,
    before the file is opened.
    """
    m = as_complex_matrix(matrix)
    if not np.isfinite(m).all():
        raise ValueError("cannot save a matrix with non-finite entries")
    doc = {
        "n": m.shape[0],
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
        handle.write("\n")

"""Row-by-row CSV reference, the test suite's oracle for ``smfrft.io_csv``.

The library formats its CSV files with a numpy formatter and parses them
with numpy's C parser, or with a row-by-row pass for the files that
parser refuses or could read differently. This module keeps the per-row
arithmetic of the formatter and the parser's contract: one ``repr``
f-string per row, joined in memory, and one ``float`` call per field
with the checks made row by row. The library must write the same bytes,
parse the same doubles and name the same offending row, so agreement is
evidence for both. The one intended difference: this reader rejects
empty lines at the end of a file, which the library ignores.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from smfrft import InvalidParameterError


def format_row(axis_value: float, value: complex) -> str:
    return f"{axis_value!r},{value.real!r},{value.imag!r}"


def write(path, header: str, axis, values) -> None:
    lines = [header]
    lines.extend(format_row(float(a), complex(v))
                 for a, v in zip(axis, values))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def parse(path, header: str) -> tuple[np.ndarray, np.ndarray]:
    text = Path(path).read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise InvalidParameterError(
            f"{path}: expected header {header!r}, got {lines[0]!r}"
            if lines else f"{path}: empty file"
        )
    axis = np.empty(len(lines) - 1, dtype=np.float64)
    values = np.empty(len(lines) - 1, dtype=np.complex128)
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise InvalidParameterError(f"{path}: row {i}: expected 3 columns")
        try:
            a, re, im = (float(p) for p in parts)
        except ValueError as exc:
            raise InvalidParameterError(f"{path}: row {i}: {exc}") from None
        if not (np.isfinite(a) and np.isfinite(re) and np.isfinite(im)):
            raise InvalidParameterError(f"{path}: row {i}: non-finite value")
        axis[i - 2] = a
        values[i - 2] = complex(re, im)
    return axis, values

"""Exact power-of-two scaling and plain-text exports: full-precision matrices and CSV tables."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


def exact_scale(v) -> float:
    """The power of two above max|v|, 1 for a zero v: division by it is exact and leaves |entries| < 1."""
    return float(np.ldexp(1.0, np.frexp(np.abs(v).max(initial=0.0))[1]))


def save_matrix_txt(path, array) -> None:
    """Write a matrix as plain text, one row per line, full precision."""
    arr = np.atleast_2d(np.asarray(array))
    np.savetxt(path, arr, fmt="%.17g")


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of mixed scalars as CSV; floats at full round-trip precision."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value

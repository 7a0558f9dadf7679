"""Exact power-of-two scaling and plain-text exports: full-precision matrices and CSV tables."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


def exact_scale(v) -> float:
    """The power of two above max|v| up to 2**1023, 1 for a zero v: division by it is exact, |entries| < 2."""
    return float(np.ldexp(1.0, min(np.frexp(np.abs(v).max(initial=0.0))[1], 1023)))


def scaled_norm(v, axis=None):
    """Euclidean norm of v, over `axis` or of all of v, with v scaled by
    exact_scale first: nothing overflows below the largest float, and the
    result is inf only where the norm itself exceeds it."""
    scale = exact_scale(v)
    return scale * np.linalg.norm(v / scale, axis=axis)


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

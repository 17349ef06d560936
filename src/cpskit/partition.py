"""Dyadic interval partitions of the real line and the induced taxonomy."""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .core import _NUMBER, Columns

__all__ = [
    "h_schedule",
    "cell_index",
    "cells",
    "scalar_predictor",
    "scalar_column",
    "histogram_taxonomy",
]


_MAX = sys.float_info.max


def h_schedule(n: int) -> float:
    """Cell width used with ``n`` training observations.

    Returns ``2 ** -floor(log2(n) / 3)``: always a power of 2, non-increasing
    in ``n``, shrinking to 0 while ``n * h_schedule(n)`` grows like
    ``n ** (2/3)``.  Consecutive widths divide each other, so the partitions
    are nested as ``n`` grows.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2.0 ** -((n.bit_length() - 1) // 3)


def cell_index(x: float, h: float) -> int:
    """Index ``k`` of the half-open cell ``[k*h, (k+1)*h)`` containing ``x``.

    Raises ValueError, as ``cells`` does, when ``x / h`` overflows.
    """
    # Division by a power of 2 is exact for doubles, so the boundary x == k*h
    # lands in the right-hand cell reliably.
    try:
        return math.floor(x / h)
    except OverflowError:
        raise ValueError(f"predictor too large for cells of width {h!r}") from None


def cells(xs, n: int) -> np.ndarray:
    """``cell_index`` of every entry of ``xs`` at width ``h_schedule(n)``, the
    partition of ``n`` training observations, as integral float64 values.

    Raises ValueError when ``x / h`` overflows, where ``cell_index`` has no
    integer to return.
    """
    h = h_schedule(n)
    xs = np.asarray(xs, dtype=np.float64)
    # Dividing by a power of 2 shifts the exponent, so ``x / h`` overflows
    # exactly when ``|x| > max * h``; NaN fails the comparison as well.
    if xs.size and not (xs.min() >= -_MAX * h and xs.max() <= _MAX * h):
        raise ValueError(f"predictor too large for cells of width {h!r}")
    labels = xs / h
    return np.floor(labels, out=labels)


def _not_scalar(d: int) -> ValueError:
    return ValueError(
        f"scalar predictors required, got dimension {d}; "
        "map multivariate predictors to the line first"
    )


def scalar_column(columns) -> np.ndarray:
    """The predictor column of :class:`~cpskit.core.Columns` with ``d = 1``."""
    if columns.d != 1:
        raise _not_scalar(columns.d)
    return columns.xs[:, 0]


def scalar_predictor(item) -> float:
    """Extract a scalar predictor from a number, 1-vector, or observation."""
    x = getattr(item, "x", item)
    if isinstance(x, _NUMBER):
        return float(x)
    if len(x) != 1:
        raise _not_scalar(len(x))
    return float(x[0])


def histogram_taxonomy(xs: Sequence | Columns) -> list[int] | np.ndarray:
    """Cell labels for a sequence of ``n + 1`` scalar predictors.

    Items may be bare scalars or observations; ``Columns`` are labelled by
    ``cells``, as the histogram builders label them, in integral floats.  The
    partition width is ``h_schedule(len(xs) - 1)``; equal label means same
    cell.  Labels depend only on predictors, never on responses, and
    permuting ``xs`` permutes the labels identically.
    """
    n = len(xs) - 1
    if n < 1:
        raise ValueError("taxonomy needs at least 2 items (n >= 1)")
    if isinstance(xs, Columns):
        return cells(scalar_column(xs), n)
    h = h_schedule(n)
    return [cell_index(scalar_predictor(x), h) for x in xs]

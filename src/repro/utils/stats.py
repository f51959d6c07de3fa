"""Small statistics helpers used by metrics, experiments and benchmarks.

These are intentionally dependency-light (numpy only) and operate on plain
Python sequences so experiment code stays readable.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple, Sequence

import numpy as np

from repro.utils.columns import ColumnStore


def percentile(values: Sequence[float], q: float) -> float:
    """Return the ``q``-th percentile (0-100) of ``values``.

    Uses linear interpolation, matching ``numpy.percentile`` defaults.
    Raises ``ValueError`` on an empty input because a silent 0.0 would skew
    experiment tables.
    """
    if len(values) == 0:
        raise ValueError("cannot take a percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(np.asarray(values, dtype=float), q))


class CdfPoint(NamedTuple):
    """One point of a CDF: ``fraction`` of the mass lies at or below ``value``."""

    value: float
    fraction: float


class CdfSeries(ColumnStore[CdfPoint]):
    """A CDF sorted by value, as two ``array('d')`` columns (16 bytes a
    point, where a ``(float, float)`` tuple in a list costs 112)."""

    __slots__ = CdfPoint._fields
    ROW = CdfPoint
    KINDS = ("d", "d")
    value: array[float]
    fraction: array[float]


def cdf_points(values: Sequence[float]) -> CdfSeries:
    """Return the empirical CDF of ``values`` as ``(value, fraction)`` points.

    The output is sorted by value; the last fraction is always 1.0 for a
    non-empty input.  Used by the Figure 1/15 reproductions.
    """
    if len(values) == 0:
        return CdfSeries()
    ordered = np.sort(np.asarray(values, dtype=float))
    fractions = np.arange(1, len(ordered) + 1) / len(ordered)
    return CdfSeries(array("d", ordered.tobytes()), array("d", fractions.tobytes()))


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Return a standard summary (count/mean/min/median/p90/p99/max) of values."""
    if len(values) == 0:
        return {
            "count": 0,
            "mean": math.nan,
            "min": math.nan,
            "p50": math.nan,
            "p90": math.nan,
            "p99": math.nan,
            "max": math.nan,
        }
    arr = np.asarray(values, dtype=float)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }

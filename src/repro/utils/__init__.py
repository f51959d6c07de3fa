"""Shared utilities: byte/time unit helpers, statistics, deterministic RNG."""

from repro.utils.units import (
    KB,
    MB,
    GB,
    KIB,
    MIB,
    GIB,
    MILLISECOND,
    SECOND,
    MINUTE,
    HOUR,
    DAY,
    format_bytes,
    format_duration,
)
from repro.utils.stats import (
    cdf_points,
    percentile,
    summarize,
)
from repro.utils.rng import SeededRNG, derive_seed

__all__ = [
    "KB",
    "MB",
    "GB",
    "KIB",
    "MIB",
    "GIB",
    "MILLISECOND",
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "format_bytes",
    "format_duration",
    "cdf_points",
    "percentile",
    "summarize",
    "SeededRNG",
    "derive_seed",
]

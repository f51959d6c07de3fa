"""Pluggable data collectors: replay outcome → flat metric dict.

A collector is a function ``(ScenarioOutcome) -> dict[str, float]``; a grid
declares which collectors run by name (``ScenarioGrid.collectors``), and the
runner merges each collector's metrics into the cell result under
``<collector>.<metric>`` keys.  Collector outputs feed both the grid summary
table and the deterministic metric digest that the differential and golden
suites pin, so collectors must be pure functions of the outcome — no clocks,
no ambient randomness.

Register additional collectors with :func:`register_collector`; icarus-style
experiment configs name them in ``DATA_COLLECTORS``.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.exceptions import ConfigurationError
from repro.scenarios.execute import ScenarioOutcome
from repro.utils.stats import percentile

__all__ = [
    "DATA_COLLECTORS",
    "register_collector",
    "resolve_collectors",
    "metric_digest",
]

Collector = Callable[[ScenarioOutcome], dict[str, float]]

#: Name → collector registry; grids reference collectors by these names.
DATA_COLLECTORS: dict[str, Collector] = {}


def register_collector(name: str) -> Callable[[Collector], Collector]:
    """Decorator registering a collector under ``name`` (unique)."""

    def deco(fn: Collector) -> Collector:
        if name in DATA_COLLECTORS:
            raise ConfigurationError(f"collector {name!r} is already registered")
        DATA_COLLECTORS[name] = fn
        return fn

    return deco


def resolve_collectors(names: tuple[str, ...] | list[str]) -> dict[str, Collector]:
    """Resolve collector names, raising on unknowns (typo safety)."""
    unknown = [name for name in names if name not in DATA_COLLECTORS]
    if unknown:
        raise ConfigurationError(
            f"unknown collectors {unknown}; registered: {sorted(DATA_COLLECTORS)}"
        )
    return {name: DATA_COLLECTORS[name] for name in names}


@register_collector("requests")
def _requests(outcome: ScenarioOutcome) -> dict[str, float]:
    report = outcome.report
    return {
        "offered": float(outcome.offered_requests),
        "completed": float(report.requests),
        "hits": float(report.hits),
        "misses": float(report.misses),
        "hit_ratio": report.hit_ratio,
        "resets": float(report.resets),
    }


@register_collector("latency")
def _latency(outcome: ScenarioOutcome) -> dict[str, float]:
    latencies = outcome.report.latency_values()
    if not latencies:
        return {"count": 0.0, "mean_ms": math.nan, "p50_ms": math.nan,
                "p90_ms": math.nan, "p99_ms": math.nan, "max_ms": math.nan}
    return {
        "count": float(len(latencies)),
        "mean_ms": 1e3 * sum(latencies) / len(latencies),
        "p50_ms": 1e3 * percentile(latencies, 50),
        "p90_ms": 1e3 * percentile(latencies, 90),
        "p99_ms": 1e3 * percentile(latencies, 99),
        "max_ms": 1e3 * max(latencies),
    }


@register_collector("cost")
def _cost(outcome: ScenarioOutcome) -> dict[str, float]:
    report = outcome.report
    metrics = {"total_usd": report.total_cost}
    for category, amount in sorted(report.cost_breakdown.items()):
        metrics[f"{category}_usd"] = amount
    return metrics


@register_collector("throughput")
def _throughput(outcome: ScenarioOutcome) -> dict[str, float]:
    report = outcome.report
    return {
        "total_mib": report.total_bytes / 2**20,
        "duration_s": report.duration_s,
        "aggregate_mibps": report.aggregate_throughput_bps / 2**20,
        "peak_active_flows": float(report.peak_active_flows),
    }


@register_collector("resilience")
def _resilience(outcome: ScenarioOutcome) -> dict[str, float]:
    report = outcome.report
    metrics = {
        "recoveries": float(report.recoveries),
        "degraded_hits": float(report.degraded_hits),
    }
    for counter, value in sorted(report.resilience.items()):
        metrics[counter] = value
    return metrics


def metric_digest(metrics: dict[str, float]) -> str:
    """Deterministic digest of a collector metric dict.

    Floats are rounded to 9 significant decimal digits via ``repr`` of a
    12-decimal rounding, so the digest is stable across platforms while
    still catching any behavioural drift.
    """
    import hashlib

    parts = []
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, float) and math.isnan(value):
            token = "nan"
        else:
            token = repr(round(float(value), 12))
        parts.append(f"{key}={token}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]

"""Figure 14 — timeline of InfiniCache's fault-tolerance activities.

For each InfiniCache setting of the production replay the paper plots, per
hour: how many Lambda functions were reclaimed, how many degraded reads were
repaired by erasure-coded recovery, and how many RESETs (full object losses
re-fetched from the backing store) occurred.  The headline numbers: 5,720
RESETs under the all-object workload, 1,085 under large-only (95.4 %
availability), 3,912 without backup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.experiments.production import ProductionResults
from repro.utils.report import format_table
from repro.utils.units import HOUR
from repro.workload.replay import ConcurrentReplayReport


@dataclass
class Figure14Result:
    """Per-setting fault-tolerance activity."""

    #: setting -> (total resets, total recoveries, availability)
    totals: dict[str, tuple[int, int, float]] = field(default_factory=dict)
    #: setting -> per-hour RESET counts
    resets_per_hour: dict[str, list[float]] = field(default_factory=dict)
    #: setting -> per-hour recovery counts
    recoveries_per_hour: dict[str, list[float]] = field(default_factory=dict)
    #: per-replay driver fingerprints (golden differential suite)
    fingerprints: dict[str, str] = field(default_factory=dict)


def _availability(report: ConcurrentReplayReport) -> float:
    """Fraction of GETs that did not require a RESET."""
    if report.requests == 0:
        return 1.0
    return 1.0 - report.resets / report.requests


def _per_hour(
    report: ConcurrentReplayReport, duration_hours: float
) -> tuple[list[float], list[float]]:
    # Events are stamped when their outcome becomes known (miss detection /
    # GET completion), so one belonging to a request still in flight at the
    # trace horizon lands just past it; extend the bucketed window to the
    # next whole hour covering the last event so the hourly series always
    # sums to the report's totals.
    end = duration_hours * HOUR
    for series in (report.reset_events, report.recovery_events):
        if series.times and series.times[-1] >= end:
            end = HOUR * (math.floor(series.times[-1] / HOUR) + 1)
    resets = report.reset_events.bucket(HOUR, end_time=end, aggregate="count")
    recoveries = report.recovery_events.bucket(HOUR, end_time=end, aggregate="count")
    return resets, recoveries


def from_production(results: ProductionResults) -> Figure14Result:
    """Project the production replay onto Figure 14's series."""
    figure = Figure14Result()
    settings = {
        "all objects": results.infinicache_all,
        "large only": results.infinicache_large,
        "large no backup": results.infinicache_large_no_backup,
    }
    for label, report in settings.items():
        figure.totals[label] = (report.resets, report.recoveries, _availability(report))
        resets, recoveries = _per_hour(report, results.scale.duration_hours)
        figure.resets_per_hour[label] = resets
        figure.recoveries_per_hour[label] = recoveries
    figure.fingerprints = dict(results.fingerprints)
    return figure


def format_report(result: Figure14Result) -> str:
    """Render the fault-tolerance activity summary."""
    rows = []
    for label, (resets, recoveries, availability) in result.totals.items():
        rows.append([label, resets, recoveries, f"{availability:.2%}"])
    return format_table(
        ["setting", "RESETs", "recoveries", "availability"],
        rows,
        title="Figure 14 — fault-tolerance activities over the replay",
    )

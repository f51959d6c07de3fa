"""Figure 15 — end-to-end latency CDFs: InfiniCache vs ElastiCache vs S3.

Two panels over the production replay: (a) all objects and (b) objects larger
than 10 MB.  The shapes to preserve: ElastiCache is fastest for small
objects, InfiniCache matches ElastiCache within a small factor for large
objects, and both caches beat S3 by orders of magnitude for the large-object
panel (the paper reports >=100x improvement for ~60 % of large requests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.production import ProductionResults
from repro.experiments.report import format_cdf_summary
from repro.utils.stats import CdfSeries, cdf_points
from repro.utils.units import MB
from repro.workload.replay import ConcurrentReplayReport


@dataclass
class Figure15Result:
    """Latency CDFs per system, for the all-object and large-object panels."""

    #: system -> CDF of latency seconds (all objects)
    all_objects: dict[str, CdfSeries] = field(default_factory=dict)
    #: system -> CDF of latency seconds (objects > 10 MB)
    large_objects: dict[str, CdfSeries] = field(default_factory=dict)
    #: fraction of large requests where InfiniCache is at least 100x faster than S3
    large_speedup_100x_fraction: float = 0.0
    #: per-replay driver fingerprints (golden differential suite)
    fingerprints: dict[str, str] = field(default_factory=dict)


def _latencies(report: ConcurrentReplayReport, min_size: int = 0) -> list[float]:
    return [latency for size, latency in report.latencies if size >= min_size]


def from_production(results: ProductionResults) -> Figure15Result:
    """Project the production replay onto Figure 15's CDFs."""
    figure = Figure15Result()
    systems = {
        "InfiniCache": results.infinicache_all,
        "ElastiCache": results.elasticache_all,
        "AWS S3": results.s3_all,
    }
    for label, report in systems.items():
        figure.all_objects[label] = cdf_points(_latencies(report))
        figure.large_objects[label] = cdf_points(_latencies(report, min_size=10 * MB))

    # Speedup estimate for large objects: compare per-request latencies of the
    # cache replay against the S3 model for the same object size.
    store = results.s3_all
    s3_by_size: dict[int, float] = {}
    for size, latency in store.latencies:
        s3_by_size[size] = latency
    speedups = []
    for size, latency in results.infinicache_all.latencies:
        if size < 10 * MB or latency <= 0:
            continue
        s3_latency = s3_by_size.get(size)
        if s3_latency is not None:
            speedups.append(s3_latency / latency)
    if speedups:
        figure.large_speedup_100x_fraction = sum(1 for s in speedups if s >= 100) / len(speedups)
    figure.fingerprints = dict(results.fingerprints)
    return figure


def format_report(result: Figure15Result) -> str:
    """Render latency CDF summaries for both panels."""
    lines = ["Figure 15 — latency CDFs (seconds)"]
    lines.append("\n(a) all objects")
    for label, cdf in result.all_objects.items():
        lines.append("  " + format_cdf_summary(label, cdf))
    lines.append("\n(b) objects > 10 MB")
    for label, cdf in result.large_objects.items():
        lines.append("  " + format_cdf_summary(label, cdf))
    lines.append(
        f"\nlarge requests where InfiniCache beats S3 by >=100x: "
        f"{result.large_speedup_100x_fraction:.1%}"
    )
    return "\n".join(lines)

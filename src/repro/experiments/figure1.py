"""Figure 1 — characteristics of the Docker-registry workload.

Four CDFs over the (synthetic) London and Dallas traces:

* (a) object-size CDF — sizes span many orders of magnitude, >20 % above 10 MB;
* (b) byte-footprint CDF — bytes are dominated (>95 %) by objects >10 MB;
* (c) access-count CDF for objects >10 MB — long-tailed popularity;
* (d) reuse-interval CDF for objects >10 MB — 37-46 % of reuses within 1 hour.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from repro.utils.fanout import fan_out
from repro.utils.report import format_cdf_summary
from repro.utils.stats import CdfSeries, cdf_points
from repro.utils.units import HOUR, MB
from repro.workload.docker_registry import DockerRegistryTraceGenerator
from repro.workload.trace import Trace


@dataclass
class Figure1Result:
    """CDF series for one datacentre trace."""

    name: str
    object_size_cdf: CdfSeries = field(default_factory=CdfSeries)
    byte_fraction_cdf: CdfSeries = field(default_factory=CdfSeries)
    access_count_cdf: CdfSeries = field(default_factory=CdfSeries)
    reuse_interval_hours_cdf: CdfSeries = field(default_factory=CdfSeries)
    large_object_fraction: float = 0.0
    large_byte_fraction: float = 0.0
    reuse_within_hour_fraction: float = 0.0


def _byte_fraction_cdf(sizes: list[int]) -> CdfSeries:
    """CDF of cumulative byte footprint ordered by object size (Figure 1b)."""
    if not sizes:
        return CdfSeries()
    ordered = np.sort(np.asarray(sizes, dtype=float))
    cumulative = np.cumsum(ordered)
    fractions = cumulative / cumulative[-1]
    return CdfSeries(array("d", ordered.tobytes()), array("d", fractions.tobytes()))


def analyze_trace(trace: Trace, large_threshold: int = 10 * MB) -> Figure1Result:
    """Compute the four Figure 1 CDFs for one trace."""
    sizes = trace.object_sizes()
    access_counts = trace.access_counts(min_size_bytes=large_threshold)
    reuse_intervals = trace.reuse_intervals_s(min_size_bytes=large_threshold)
    reuse_hours = [interval / HOUR for interval in reuse_intervals]
    large_objects = sum(1 for size in sizes if size > large_threshold)
    large_bytes = sum(size for size in sizes if size > large_threshold)
    within_hour = sum(1 for interval in reuse_intervals if interval <= HOUR)
    return Figure1Result(
        name=trace.name,
        object_size_cdf=cdf_points([size / MB for size in sizes]),
        byte_fraction_cdf=_byte_fraction_cdf(sizes),
        access_count_cdf=cdf_points(access_counts),
        reuse_interval_hours_cdf=cdf_points(reuse_hours),
        large_object_fraction=large_objects / len(sizes) if sizes else 0.0,
        large_byte_fraction=large_bytes / sum(sizes) if sizes else 0.0,
        reuse_within_hour_fraction=within_hour / len(reuse_intervals) if reuse_intervals else 0.0,
    )


def _analyze_datacenter(unit: tuple[str, float]) -> Figure1Result:
    """Generate one ``(datacentre, duration_hours)`` trace and compute its
    series (a :func:`~repro.utils.fanout.fan_out` unit)."""
    name, duration_hours = unit
    generator = DockerRegistryTraceGenerator(name)
    if duration_hours != generator.config.duration_hours:
        generator = DockerRegistryTraceGenerator(
            replace(generator.config, duration_hours=duration_hours)
        )
    return analyze_trace(generator.generate())


def run(duration_hours: float = 50.0, datacenters: tuple[str, ...] = ("dallas", "london"),
        ) -> dict[str, Figure1Result]:
    """Generate the traces and compute every Figure 1 series, the
    datacentres side by side on every usable core."""
    results = fan_out(_analyze_datacenter, [(name, duration_hours) for name in datacenters])
    return dict(zip(datacenters, results))


def format_report(results: dict[str, Figure1Result]) -> str:
    """Render the Figure 1 reproduction as text."""
    lines = ["Figure 1 — Docker-registry workload characteristics"]
    for name, result in results.items():
        lines.append(f"\n[{name}]")
        lines.append(
            f"  objects >10MB: {result.large_object_fraction:.1%} of objects, "
            f"{result.large_byte_fraction:.1%} of bytes"
        )
        lines.append(
            f"  large-object reuses within 1 hour: {result.reuse_within_hour_fraction:.1%}"
        )
        lines.append("  " + format_cdf_summary("(a) object size (MB)", result.object_size_cdf))
        lines.append("  " + format_cdf_summary("(c) access count", result.access_count_cdf))
        lines.append(
            "  " + format_cdf_summary("(d) reuse interval (h)", result.reuse_interval_hours_cdf)
        )
    return "\n".join(lines)

"""Figure 16 — latency normalised to ElastiCache, grouped by object size.

For four object-size buckets (<1 MB, 1-10 MB, 10-100 MB, >=100 MB) the paper
plots each system's latency normalised to ElastiCache's for the same
requests.  The shapes to preserve:

* InfiniCache is markedly slower than ElastiCache for sub-1 MB objects (the
  ~13 ms invocation overhead dominates);
* InfiniCache is on par with ElastiCache for 1-100 MB objects;
* InfiniCache is *faster* than ElastiCache for >=100 MB objects thanks to
  parallel chunk I/O;
* S3 is far slower across every bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.production import ProductionResults
from repro.utils.report import format_table
from repro.utils.stats import summarize


@dataclass
class Figure16Result:
    """Median normalised latency per (system, size bucket)."""

    buckets: list[str] = field(default_factory=list)
    #: system -> bucket -> median latency normalised to ElastiCache
    normalized_median: dict[str, dict[str, float]] = field(default_factory=dict)
    #: system -> bucket -> raw median latency (seconds)
    raw_median: dict[str, dict[str, float]] = field(default_factory=dict)
    #: per-replay driver fingerprints (golden differential suite)
    fingerprints: dict[str, str] = field(default_factory=dict)


def _bucket_medians(report) -> dict[str, float]:
    medians = {}
    for bucket, latencies in report.latencies_by_size_bucket().items():
        medians[bucket] = summarize(latencies)["p50"] if latencies else float("nan")
    return medians


def from_production(results: ProductionResults) -> Figure16Result:
    """Project the production replay onto Figure 16's normalised buckets."""
    figure = Figure16Result()
    systems = {
        "ElastiCache": results.elasticache_all,
        "InfiniCache": results.infinicache_all,
        "AWS S3": results.s3_all,
    }
    medians = {label: _bucket_medians(report) for label, report in systems.items()}
    figure.buckets = list(next(iter(medians.values())).keys())
    figure.raw_median = medians
    reference = medians["ElastiCache"]
    for label, per_bucket in medians.items():
        figure.normalized_median[label] = {}
        for bucket, value in per_bucket.items():
            ref = reference.get(bucket)
            if ref and ref > 0 and value == value:  # value==value filters NaN
                figure.normalized_median[label][bucket] = value / ref
            else:
                figure.normalized_median[label][bucket] = float("nan")
    figure.fingerprints = dict(results.fingerprints)
    return figure


def format_report(result: Figure16Result) -> str:
    """Render the normalised latency table."""
    rows = []
    for label, per_bucket in result.normalized_median.items():
        row: list[object] = [label]
        for bucket in result.buckets:
            row.append(per_bucket.get(bucket, float("nan")))
        rows.append(row)
    return format_table(
        ["system"] + result.buckets,
        rows,
        title="Figure 16 — median latency normalised to ElastiCache, by object size",
    )

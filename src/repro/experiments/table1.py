"""Table 1 — working-set size, throughput, and cache hit ratios.

The paper's table compares, for the all-object and large-object-only
workloads: the working-set size (WSS), the average GET throughput per hour,
and the hit ratio achieved by ElastiCache, InfiniCache, and InfiniCache
without backup.  The shape to preserve: ElastiCache's hit ratio is a few
points above InfiniCache's (RESETs after chunk losses cost InfiniCache some
hits), and disabling backup costs several more points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.production import ProductionResults, replay_elasticache_large
from repro.experiments.report import format_table
from repro.utils.units import GB


@dataclass
class Table1Result:
    """One row per workload setting."""

    #: workload -> {"wss_gb", "gets_per_hour", "ec_hit", "ic_hit", "ic_no_backup_hit"}
    rows: dict[str, dict[str, float]] = field(default_factory=dict)
    #: per-replay driver fingerprints (golden differential suite)
    fingerprints: dict[str, str] = field(default_factory=dict)


def from_production(results: ProductionResults) -> Table1Result:
    """Project the production replay onto Table 1."""
    table = Table1Result()
    # ElastiCache hit ratio for the large-object workload needs its own replay
    # (the shared run only replays ElastiCache under all objects); it goes
    # through the same open-loop baseline driver as the shared replays.
    elasticache_large = replay_elasticache_large(results)
    table.rows["All objects"] = {
        "wss_gb": results.trace_all.working_set_bytes() / GB,
        "gets_per_hour": results.trace_all.gets_per_hour(),
        "ec_hit": results.elasticache_all.hit_ratio,
        "ic_hit": results.infinicache_all.hit_ratio,
        "ic_no_backup_hit": float("nan"),
    }
    table.rows["Large obj. only"] = {
        "wss_gb": results.trace_large.working_set_bytes() / GB,
        "gets_per_hour": results.trace_large.gets_per_hour(),
        "ec_hit": elasticache_large.hit_ratio,
        "ic_hit": results.infinicache_large.hit_ratio,
        "ic_no_backup_hit": results.infinicache_large_no_backup.hit_ratio,
    }
    table.fingerprints = dict(results.fingerprints)
    table.fingerprints["elasticache.large"] = elasticache_large.fingerprint()
    return table


def format_report(result: Table1Result) -> str:
    """Render Table 1."""
    rows = []
    for workload, values in result.rows.items():
        rows.append(
            [
                workload,
                values["wss_gb"],
                values["gets_per_hour"],
                f"{values['ec_hit']:.1%}",
                f"{values['ic_hit']:.1%}",
                "-" if values["ic_no_backup_hit"] != values["ic_no_backup_hit"]
                else f"{values['ic_no_backup_hit']:.1%}",
            ]
        )
    return format_table(
        ["workload", "WSS (GB)", "GETs/hour", "EC hit", "IC hit", "IC w/o backup"],
        rows,
        title="Table 1 — working sets, throughput, and hit ratios",
    )

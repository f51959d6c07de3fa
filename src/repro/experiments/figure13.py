"""Figure 13 — monetary cost of InfiniCache vs ElastiCache over the replay.

* (a) total accumulated cost of the four deployments: ElastiCache, InfiniCache
  with all objects, InfiniCache with large objects only, and InfiniCache with
  large objects only and backup disabled.  The paper's headline: $518.40 vs
  $20.52 / $16.51 / $5.41 — a 31-96x improvement.
* (b)-(d) the hourly cost breakdown of the three InfiniCache settings into
  PUT/GET serving, warm-up, and backup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.production import ProductionResults
from repro.utils.report import format_table


@dataclass
class Figure13Result:
    """Total costs, improvement factors, and hourly breakdowns."""

    total_costs: dict[str, float] = field(default_factory=dict)
    improvement_over_elasticache: dict[str, float] = field(default_factory=dict)
    #: setting -> {category -> dollars per hour list}
    hourly_breakdown: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    cost_breakdown: dict[str, dict[str, float]] = field(default_factory=dict)
    #: per-replay driver fingerprints (golden differential suite)
    fingerprints: dict[str, str] = field(default_factory=dict)


def from_production(results: ProductionResults) -> Figure13Result:
    """Project the shared production replay onto Figure 13's series."""
    figure = Figure13Result()
    figure.total_costs = {
        "ElastiCache": results.elasticache_all.total_cost,
        "IC (all objects)": results.infinicache_all.total_cost,
        "IC (large only)": results.infinicache_large.total_cost,
        "IC (large no backup)": results.infinicache_large_no_backup.total_cost,
    }
    elasticache_cost = figure.total_costs["ElastiCache"]
    for label, cost in figure.total_costs.items():
        if label == "ElastiCache" or cost <= 0:
            continue
        figure.improvement_over_elasticache[label] = elasticache_cost / cost
    figure.hourly_breakdown = {
        "all objects": results.infinicache_all.hourly_cost,
        "large only": results.infinicache_large.hourly_cost,
        "large no backup": results.infinicache_large_no_backup.hourly_cost,
    }
    figure.cost_breakdown = {
        "all objects": results.infinicache_all.cost_breakdown,
        "large only": results.infinicache_large.cost_breakdown,
        "large no backup": results.infinicache_large_no_backup.cost_breakdown,
    }
    figure.fingerprints = dict(results.fingerprints)
    return figure


def format_report(result: Figure13Result) -> str:
    """Render Figure 13(a) totals and the per-setting cost composition."""
    rows = []
    for label, cost in result.total_costs.items():
        improvement = result.improvement_over_elasticache.get(label)
        rows.append([label, cost, f"{improvement:.1f}x" if improvement else "-"])
    sections = [
        format_table(
            ["deployment", "total cost ($)", "improvement vs ElastiCache"],
            rows,
            title="Figure 13(a) — total cost over the replay",
        )
    ]
    breakdown_rows = []
    for setting, breakdown in result.cost_breakdown.items():
        total = breakdown.get("total", 0.0)
        for category in ("serving", "warmup", "backup"):
            dollars = breakdown.get(category, 0.0)
            share = dollars / total if total else 0.0
            breakdown_rows.append([setting, category, dollars, f"{share:.1%}"])
    sections.append(
        format_table(
            ["setting", "category", "cost ($)", "share"],
            breakdown_rows,
            title="Figure 13(b)-(d) — InfiniCache cost composition",
        )
    )
    return "\n\n".join(sections)

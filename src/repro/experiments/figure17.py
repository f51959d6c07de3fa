"""Figure 17 — hourly cost vs access rate: when does InfiniCache stop winning?

Using the Section 4.3 cost model with the Section 5.2 configuration (400
Lambdas of 1.5 GB, 1-minute warm-up, 5-minute backup), the paper sweeps the
access rate from 0 to 320 K requests/hour and finds the InfiniCache cost
curve crosses the flat ElastiCache (cache.r5.24xlarge) line at roughly 312 K
requests/hour (~86 requests/second) — the reason small-object-intensive
workloads should stay on a conventional IMOC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cost_model import CostModel
from repro.experiments.report import format_table

#: The sweep: 17 evenly spaced object access rates from 0 to 320 K per hour.
MAX_RATE = 320_000
STEPS = 17

#: Lambda invocations per object GET: RS(10+2) fans out to 12 chunks.
CHUNKS_PER_OBJECT = 12

#: The flat ElastiCache line the paper compares against.
ELASTICACHE_INSTANCE = "cache.r5.24xlarge"


@dataclass
class Figure17Result:
    """Hourly costs for both systems over the access-rate sweep."""

    access_rates: list[float] = field(default_factory=list)
    infinicache_hourly: list[float] = field(default_factory=list)
    elasticache_hourly: float = 0.0
    crossover_rate: float = 0.0


def run() -> Figure17Result:
    """Sweep the *object* access rate and locate the cost crossover.

    The cost model's defaults are the Section 5.2 configuration.  Every
    object GET fans out to :data:`CHUNKS_PER_OBJECT` Lambda invocations,
    which is what makes the serving cost climb steeply enough to cross
    ElastiCache's flat line around 312 K requests/hour.
    """
    model = CostModel()
    result = Figure17Result()
    result.elasticache_hourly = model.elasticache_hourly_cost(ELASTICACHE_INSTANCE)
    fixed = model.warmup_cost_per_hour() + model.backup_cost_per_hour()
    for step in range(STEPS):
        rate = MAX_RATE * step / (STEPS - 1)
        result.access_rates.append(rate)
        result.infinicache_hourly.append(
            fixed + model.serving_cost_for_object_rate(rate, CHUNKS_PER_OBJECT)
        )
    result.crossover_rate = model.crossover_access_rate(
        ELASTICACHE_INSTANCE, chunks_per_object=CHUNKS_PER_OBJECT
    )
    return result


def format_report(result: Figure17Result) -> str:
    """Render the cost sweep and the crossover point."""
    rows = []
    for rate, cost in zip(result.access_rates, result.infinicache_hourly):
        rows.append([f"{rate / 1000:.0f}K", cost, result.elasticache_hourly,
                     "InfiniCache" if cost < result.elasticache_hourly else "ElastiCache"])
    table = format_table(
        ["access rate (req/h)", "InfiniCache ($/h)", "ElastiCache ($/h)", "cheaper"],
        rows,
        title="Figure 17 — hourly cost vs access rate",
    )
    return table + f"\n\ncrossover at ~{result.crossover_rate / 1000:.0f}K requests/hour"

"""Cluster-scale experiment: multi-tenant replay on the orchestrated cluster.

This experiment goes beyond the paper's single-tenant evaluation and
exercises the :mod:`repro.cluster` subsystem end to end.  Several tenants
with different working sets and quotas share one autoscaling cluster:

* ``media`` — an unconstrained tenant with a large, Zipf-skewed working set;
  it supplies the memory pressure that drives the autoscaler up;
* ``api`` — a latency-sensitive tenant with a small hot set but a strict
  request-rate quota, so a burst of its traffic is throttled rather than
  allowed to crowd out the others;
* ``batch`` — a bulk tenant with a byte quota well under its working set,
  so its PUTs are rejected once it reaches its cap.

The execution body lives in :mod:`repro.scenarios.cluster` — this module is
the experiment-facing wrapper: it builds a
:class:`~repro.scenarios.spec.ClusterScenarioSpec`, runs it, and renders
the report.  The scenario engine runs the same replay body as the one-cell
``cluster_scale`` library grid (``repro scenarios run cluster_scale``),
seeded from the cell's coordinates.
"""

from __future__ import annotations

from repro.cluster import AutoscalerConfig
from repro.experiments.harness import ExperimentHarness
from repro.experiments.report import format_table
from repro.faas.billing import UNATTRIBUTED_TENANT
from repro.scenarios.cluster import (
    ClusterScaleResult,
    TenantOutcome,
    TenantSpec,
    default_tenants,
    run_cluster_scale,
)
from repro.scenarios.spec import ClusterScenarioSpec
from repro.utils.units import MB

__all__ = [
    "TenantSpec",
    "TenantOutcome",
    "ClusterScaleResult",
    "default_tenants",
    "run",
    "format_report",
]


def run(
    tenants: list[TenantSpec] | None = None,
    duration_s: float = 600.0,
    seed: int = 2020,
    autoscaler_config: AutoscalerConfig | None = None,
    harness: ExperimentHarness | None = None,
) -> ClusterScaleResult:
    """Replay the multi-tenant mix against an autoscaling cluster."""
    spec = ClusterScenarioSpec(
        tenants=tuple(tenants if tenants is not None else default_tenants()),
        duration_s=duration_s,
        autoscaler=autoscaler_config or AutoscalerConfig(interval_s=30.0),
    )
    return run_cluster_scale(spec, seed=seed, harness=harness)


def format_report(result: ClusterScaleResult) -> str:
    """Render the per-tenant table plus the autoscaling summary."""
    rows = []
    for tenant_id in sorted(result.tenants):
        outcome = result.tenants[tenant_id]
        latency = outcome.latency_summary()
        rows.append([
            tenant_id,
            outcome.requests_issued,
            outcome.hit_ratio,
            latency.get("p50", 0.0) * 1000.0,
            latency.get("p99", 0.0) * 1000.0,
            outcome.throttled,
            outcome.rejected_puts,
            outcome.bytes_stored / MB,
            outcome.billed_gb_seconds,
            outcome.billed_cost,
        ])
    table = format_table(
        ["tenant", "requests", "hit_ratio", "p50_ms", "p99_ms",
         "throttled", "rejected", "stored_MB", "gb_seconds", "cost_$"],
        rows,
        title="Multi-tenant cluster replay (autoscaling InfiniCache)",
    )
    scale_ups = result.counters.get("cluster.autoscaler.scale_ups", 0.0)
    scale_downs = result.counters.get("cluster.autoscaler.scale_downs", 0.0)
    migrated = result.counters.get("cluster.rebalance.chunks_moved", 0.0)
    unattributed = result.chargeback.get(UNATTRIBUTED_TENANT, {}).get("cost", 0.0)
    lines = [
        table,
        "",
        f"pool size: start={result.initial_pool_size} "
        f"peak={result.peak_pool_size} final={result.final_pool_size} "
        f"(scale-ups={scale_ups:g}, scale-downs={scale_downs:g}, "
        f"chunks migrated={migrated:g})",
        f"total cost: ${result.total_cost:.6f} "
        f"(rebalance ${result.cost_breakdown.get('rebalance', 0.0):.6f}, "
        f"unattributed ${unattributed:.6f})",
        f"chargeback conservation: per-tenant sum ${result.chargeback_total_cost:.6f} "
        f"== cluster bill ${result.total_cost:.6f}",
    ]
    return "\n".join(lines)

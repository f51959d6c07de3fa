"""Autoscaler policy comparison: reactive watermarks vs. predictive EWMA
(with and without a Holt trend term).

The cluster's GB-second bill and its hit ratio both depend on how the pool
is sized: a pool that grows late serves misses (RESETs through the backing
store) while one that grows early pays for warm-up and idle cycles.  This
experiment replays the *same* multi-tenant workload (same seed, same
request schedule) once per scaling policy and reports, per policy and per
tenant, the chargeback cost and the miss rate — the trade-off the ROADMAP's
"reactive watermarks vs. predictive" question asks about.

Both runs reuse :mod:`repro.experiments.cluster_scale`, so the chargeback
conservation property (per-tenant GB-seconds summing to the cluster bill)
holds for every row of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import AutoscalerConfig
from repro.experiments import cluster_scale
from repro.experiments.harness import ExperimentHarness
from repro.faas.billing import UNATTRIBUTED_TENANT
from repro.obs.metrics import MetricRegistry
from repro.utils.fanout import fan_out
from repro.utils.report import format_table

#: The autoscaling policies the experiment compares, by policy name.
DEFAULT_POLICIES: dict[str, AutoscalerConfig] = {
    "reactive": AutoscalerConfig(interval_s=30.0, policy="reactive"),
    "predictive": AutoscalerConfig(interval_s=30.0, policy="predictive"),
    "predictive_trend": AutoscalerConfig(interval_s=30.0, policy="predictive_trend"),
}


@dataclass
class PolicyComparisonResult:
    """One :mod:`cluster_scale` replay per policy, same workload."""

    duration_s: float
    runs: dict[str, cluster_scale.ClusterScaleResult]
    #: per-policy driver fingerprints (golden differential suite)
    fingerprints: dict[str, str] = field(default_factory=dict)

    def policy_names(self) -> list[str]:
        return list(self.runs)


def _run_policy(
    unit: tuple[AutoscalerConfig, float, int],
) -> cluster_scale.ClusterScaleResult:
    """Replay one ``(policy, duration_s, seed)`` unit of :func:`run` (a
    :func:`fan_out` unit) over ``cluster_scale``'s default tenant mix.

    Its harness publishes to a registry of its own: :func:`run` records the
    replay into the shared one, where it runs, so the ``--metrics`` export
    is the same whichever process replayed it.
    """
    autoscaler_config, duration_s, seed = unit
    return cluster_scale.run(
        duration_s=duration_s,
        seed=seed,
        autoscaler_config=autoscaler_config,
        harness=ExperimentHarness("cluster_scale", seed, metrics=MetricRegistry()),
    )


def run(duration_s: float = 600.0, seed: int = 2020) -> PolicyComparisonResult:
    """Replay the multi-tenant mix once per autoscaling policy, the policies
    side by side on every usable core."""
    results = fan_out(_run_policy, [
        (policy, duration_s, seed) for policy in DEFAULT_POLICIES.values()
    ])
    runs = dict(zip(DEFAULT_POLICIES, results))
    # One harness for the comparison, one run label per policy, so each
    # policy's ``--metrics`` series is its own, apart from ``cluster_scale``.
    harness = ExperimentHarness("autoscale_policies", seed)
    for name, run_result in runs.items():
        harness.record(f"{name}.replay", run_result.replay_report)
    return PolicyComparisonResult(
        duration_s=duration_s, runs=runs, fingerprints=harness.fingerprints
    )


def format_report(result: PolicyComparisonResult) -> str:
    """Render the cost vs. miss-rate table per policy per tenant."""
    rows = []
    for policy in result.policy_names():
        run_result = result.runs[policy]
        for tenant_id in sorted(run_result.tenants):
            outcome = run_result.tenants[tenant_id]
            rows.append([
                policy,
                tenant_id,
                outcome.requests_issued,
                outcome.miss_ratio,
                outcome.billed_gb_seconds,
                outcome.billed_cost,
            ])
        unattributed = run_result.chargeback.get(UNATTRIBUTED_TENANT, {})
        rows.append([
            policy,
            "(cluster)",
            0,
            0.0,
            unattributed.get("gb_seconds", 0.0),
            unattributed.get("cost", 0.0),
        ])
    table = format_table(
        ["policy", "tenant", "requests", "miss_rate", "gb_seconds", "cost_$"],
        rows,
        title="Autoscaler policy comparison (same workload, same seed)",
    )
    lines = [table, ""]
    for policy in result.policy_names():
        run_result = result.runs[policy]
        scale_ups = run_result.counters.get("cluster.autoscaler.scale_ups", 0.0)
        scale_downs = run_result.counters.get("cluster.autoscaler.scale_downs", 0.0)
        lines.append(
            f"{policy}: total ${run_result.total_cost:.6f} "
            f"(chargeback sum ${run_result.chargeback_total_cost:.6f}), "
            f"pool peak={run_result.peak_pool_size} final={run_result.final_pool_size}, "
            f"scale-ups={scale_ups:g}, scale-downs={scale_downs:g}"
        )
    return "\n".join(lines)

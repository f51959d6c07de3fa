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

Their requests inject **open-loop** at pre-drawn arrival timestamps, misses
RESET through a simulated backing store, and the result carries per-tenant
outcomes, the pool-size timeline, and the conservation-checked chargeback
decomposition of the bill.  ``repro chargeback`` and ``autoscale_policies``
call :func:`run` with their own tenants, durations and autoscaler policies.
The replay is not a scenario grid: the scenario runner seeds each cell
from its coordinates, and this replay is seeded with the experiment seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.baselines.s3 import ObjectStore
from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cluster import AutoscalerConfig, InfiniCacheCluster, TenantQuota
from repro.exceptions import ConfigurationError, QuotaExceededError, RateLimitedError
from repro.experiments.harness import ExperimentHarness
from repro.faas.billing import UNATTRIBUTED_TENANT
from repro.network.flows import FLOW_TRACE_LIMIT
from repro.utils.report import format_table
from repro.utils.rng import SeededRNG
from repro.utils.stats import summarize
from repro.utils.units import MB, MIB
from repro.workload.replay import ConcurrentReplayReport, OpenLoopDriver

__all__ = [
    "CLUSTER_DEPLOYMENT",
    "TENANT_ZIPF_EXPONENT",
    "TenantSpec",
    "default_tenants",
    "TenantOutcome",
    "ClusterScaleResult",
    "run",
    "format_report",
]

#: The cluster every replay starts: two proxies of eight 192 MiB Lambdas,
#: RS(4+2), autoscaled between 6 and 48 Lambdas per proxy, stragglers off.
#: A replay sets only its seed.
CLUSTER_DEPLOYMENT = InfiniCacheConfig(
    num_proxies=2,
    lambdas_per_proxy=8,
    lambda_memory_bytes=192 * MIB,
    data_shards=4,
    parity_shards=2,
    min_lambdas_per_proxy=6,
    max_lambdas_per_proxy=48,
    straggler=StragglerModel(probability=0.0),
    # Open-loop replays retire thousands of transfer intervals; the
    # experiment only consumes aggregate flow statistics, so retain a
    # bounded window instead of the whole run (peak/throughput numbers
    # are maintained independently of the retained trace).
    flow_trace_limit=FLOW_TRACE_LIMIT,
)

#: Zipf exponent of every tenant's key popularity.
TENANT_ZIPF_EXPONENT = 0.9


@dataclass(frozen=True)
class TenantSpec:
    """Workload and quota description of one tenant of a cluster replay."""

    tenant_id: str
    requests: int
    num_objects: int
    object_size: int
    quota: TenantQuota = field(default_factory=TenantQuota)

    def __post_init__(self):
        if not self.tenant_id:
            raise ConfigurationError("tenant_id must be non-empty")
        if self.requests < 1 or self.num_objects < 1 or self.object_size < 1:
            raise ConfigurationError(
                "tenant requests, num_objects and object_size must be positive"
            )


def default_tenants(requests_per_tenant: int = 300) -> list[TenantSpec]:
    """The canonical three-tenant mix of the ``cluster_scale`` experiment:
    an unconstrained ``media`` tenant supplying memory pressure, a
    rate-limited ``api`` tenant, and a byte-capped ``batch`` tenant."""
    return [
        TenantSpec(
            tenant_id="media",
            requests=requests_per_tenant,
            num_objects=120,
            object_size=12 * MB,
        ),
        TenantSpec(
            tenant_id="api",
            requests=requests_per_tenant,
            num_objects=10,
            object_size=1 * MB,
            quota=TenantQuota(max_requests_per_s=1.0, burst_requests=5),
        ),
        TenantSpec(
            tenant_id="batch",
            requests=requests_per_tenant,
            num_objects=40,
            object_size=10 * MB,
            quota=TenantQuota(max_bytes=120 * MB),
        ),
    ]


@dataclass
class TenantOutcome:
    """Everything measured for one tenant during the replay."""

    tenant_id: str
    requests_issued: int = 0
    hits: int = 0
    misses: int = 0
    throttled: int = 0
    rejected_puts: int = 0
    latencies_s: list[float] = field(default_factory=list)
    bytes_stored: int = 0
    #: GB-seconds of Lambda time the billing pipeline attributed to this
    #: tenant's invocations (serving, warm-up, backup, rebalance, repair).
    billed_gb_seconds: float = 0.0
    #: Dollars charged back to this tenant; all tenants' costs plus the
    #: unattributed remainder sum to the cluster-wide bill.
    billed_cost: float = 0.0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def latency_summary(self) -> dict[str, float]:
        return summarize(self.latencies_s)


@dataclass
class ClusterScaleResult:
    """Outcome of the multi-tenant cluster replay."""

    duration_s: float
    tenants: dict[str, TenantOutcome]
    pool_size_timeline: list[tuple[float, float]]
    initial_pool_size: int
    peak_pool_size: int
    final_pool_size: int
    total_cost: float
    cost_breakdown: dict[str, float]
    counters: dict[str, float]
    #: Full chargeback decomposition of the bill, including the
    #: ``UNATTRIBUTED_TENANT`` row for maintenance no tenant caused.
    chargeback: dict[str, dict[str, float]] = field(default_factory=dict)
    #: The open-loop driver's report (request samples + flow intervals).
    replay_report: ConcurrentReplayReport | None = None
    #: Driver fingerprints (golden differential suite).
    fingerprints: dict[str, str] = field(default_factory=dict)

    @property
    def chargeback_total_cost(self) -> float:
        """Sum of the chargeback rows — equals ``total_cost`` (conservation)."""
        return sum(row["cost"] for row in self.chargeback.values())


def run(
    tenants: list[TenantSpec] | None = None,
    duration_s: float = 600.0,
    seed: int = 2020,
    autoscaler_config: AutoscalerConfig | None = None,
    harness: ExperimentHarness | None = None,
) -> ClusterScaleResult:
    """Replay the tenant mix (default: :func:`default_tenants`) against a
    :data:`CLUSTER_DEPLOYMENT` cluster seeded with ``seed``."""
    specs = list(tenants if tenants is not None else default_tenants())
    if not specs:
        raise ConfigurationError("a cluster replay needs at least one tenant")
    ids = [ts.tenant_id for ts in specs]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate tenant ids: {ids}")
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise ConfigurationError("duration must be positive and finite")
    harness = harness or ExperimentHarness("cluster_scale", seed)
    config = replace(CLUSTER_DEPLOYMENT, seed=seed)
    cluster = InfiniCacheCluster(
        config, autoscaler_config=autoscaler_config or AutoscalerConfig(interval_s=30.0)
    )
    cluster.start()
    backing_store = ObjectStore()

    rng = SeededRNG(seed).child("cluster_scale")
    clients = {ts.tenant_id: cluster.register_tenant(ts.tenant_id, ts.quota)
               for ts in specs}
    outcomes = {ts.tenant_id: TenantOutcome(ts.tenant_id) for ts in specs}

    # All tenants' requests interleave in timestamp order on one event loop;
    # keys are pre-drawn in arrival order so the schedule (and the RNG
    # stream) is identical however the in-flight requests overlap.
    schedule: list[tuple[float, TenantSpec]] = []
    for ts in specs:
        tenant_rng = rng.child(ts.tenant_id)
        times = sorted(tenant_rng.uniform(0.0, duration_s) for _ in range(ts.requests))
        schedule.extend((time, ts) for time in times)
    schedule.sort(key=lambda item: item[0])
    key_rngs = {ts.tenant_id: rng.child(ts.tenant_id, "keys") for ts in specs}
    keyed_schedule: list[tuple[float, TenantSpec, str]] = []
    for timestamp, ts in schedule:
        rank = key_rngs[ts.tenant_id].bounded_zipf(ts.num_objects, TENANT_ZIPF_EXPONENT)
        keyed_schedule.append((timestamp, ts, f"obj-{rank:05d}"))

    env = cluster.deployment.request_env
    loop = cluster.simulator
    report = ConcurrentReplayReport(
        system="infinicache-cluster", mode="open-loop", clients=len(specs),
    )

    def request_process(ts: TenantSpec, key: str):
        outcome = outcomes[ts.tenant_id]
        client = clients[ts.tenant_id]
        start = env.now
        outcome.requests_issued += 1
        report.requests += 1
        try:
            result = yield from client.get_process(key, env)
        except RateLimitedError:
            outcome.throttled += 1
            return
        if result.hit:
            outcome.hits += 1
            report.hits += 1
            report.total_bytes += result.size
            outcome.latencies_s.append(result.latency_s)
            report.samples.append(
                ts.tenant_id, key, ts.object_size, start, env.now, True,
                recovery=result.recovery_performed,
                hosts_touched=result.hosts_touched,
            )
            return
        outcome.misses += 1
        report.misses += 1
        reset = result.data_lost
        if reset:
            report.resets += 1
        # RESET: fetch from the backing store and re-insert (quota permitting).
        backing_store.put(f"{ts.tenant_id}/{key}", ts.object_size)
        _size, store_latency = backing_store.get(f"{ts.tenant_id}/{key}")
        yield store_latency
        try:
            yield from client.put_sized_process(key, ts.object_size, env)
        except QuotaExceededError:
            outcome.rejected_puts += 1
        except RateLimitedError:
            outcome.throttled += 1
        outcome.latencies_s.append(env.now - start)
        report.total_bytes += ts.object_size
        report.samples.append(
            ts.tenant_id, key, ts.object_size, start, env.now, False, reset=reset,
        )

    arrivals = [
        (
            timestamp,
            f"cluster_scale.{ts.tenant_id}",
            lambda s=ts, k=key: request_process(s, k),
        )
        for timestamp, ts, key in keyed_schedule
    ]
    driver = OpenLoopDriver(cluster.deployment, backing_store=backing_store)
    driver.run_schedule(arrivals, report, finalize=False)
    cluster.run_until(max(duration_s, loop.now))
    cluster.stop()

    tenant_report = cluster.tenant_report()
    chargeback = cluster.chargeback_report()
    total_cost = cluster.total_cost()
    cost_breakdown = cluster.cost_breakdown()
    # ``finalize=False`` leaves the costs to this caller: set them before the
    # harness publishes the report's cost gauge.
    report.total_cost = total_cost
    report.cost_breakdown = cost_breakdown
    harness.record("replay", report)
    for outcome in outcomes.values():
        outcome.bytes_stored = int(tenant_report[outcome.tenant_id]["bytes_stored"])
        row = chargeback.get(outcome.tenant_id, {})
        outcome.billed_gb_seconds = row.get("gb_seconds", 0.0)
        outcome.billed_cost = row.get("cost", 0.0)

    timeline: list[tuple[float, float]] = []
    for proxy_id in sorted(cluster.pool_sizes()):
        series = cluster.metrics.series(f"cluster.pool_size.{proxy_id}")
        timeline.extend(zip(series.times, series.values))
    timeline.sort()
    pool_total_by_time: dict[float, float] = {}
    for time, size in timeline:
        pool_total_by_time[time] = pool_total_by_time.get(time, 0.0) + size
    pool_timeline = sorted(pool_total_by_time.items())
    initial_pool = config.num_proxies * config.lambdas_per_proxy
    sizes = [size for _time, size in pool_timeline] or [float(initial_pool)]

    return ClusterScaleResult(
        duration_s=duration_s,
        tenants=outcomes,
        pool_size_timeline=pool_timeline,
        initial_pool_size=initial_pool,
        peak_pool_size=int(max(sizes)),
        final_pool_size=int(sizes[-1]),
        total_cost=total_cost,
        cost_breakdown=cost_breakdown,
        counters=cluster.metrics.counters(),
        chargeback=chargeback,
        replay_report=report,
        fingerprints=harness.fingerprints,
    )


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

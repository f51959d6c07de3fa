"""The multi-tenant autoscaling-cluster replay, driven by a scenario spec.

This is the execution body of the ``cluster_scale`` experiment, behind
:class:`~repro.scenarios.spec.ClusterScenarioSpec` so the scenario engine
can run it as a grid cell.  ``cluster_scale.run`` builds a spec and calls
:func:`run_cluster_scale`; ``autoscale_policies`` calls ``cluster_scale.run``
once per policy.

Several tenants with different working sets and quotas share one
autoscaling cluster; their requests inject **open-loop** at pre-drawn
arrival timestamps, misses RESET through a simulated backing store, and
the report carries per-tenant outcomes, the pool-size timeline, and the
conservation-checked chargeback decomposition of the bill.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.baselines.s3 import ObjectStore
from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cluster import InfiniCacheCluster
from repro.exceptions import QuotaExceededError, RateLimitedError
from repro.experiments.harness import ExperimentHarness
from repro.scenarios.execute import FLOW_TRACE_LIMIT
from repro.scenarios.spec import ClusterScenarioSpec, TenantSpec, default_tenants
from repro.utils.rng import SeededRNG
from repro.utils.stats import summarize
from repro.utils.units import MIB
from repro.workload.replay import ConcurrentReplayReport, OpenLoopDriver

__all__ = [
    "CLUSTER_DEPLOYMENT",
    "TENANT_ZIPF_EXPONENT",
    "TenantSpec",
    "default_tenants",
    "TenantOutcome",
    "ClusterScaleResult",
    "run_cluster_scale",
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


def run_cluster_scale(
    spec: ClusterScenarioSpec,
    seed: int = 2020,
    harness: ExperimentHarness | None = None,
) -> ClusterScaleResult:
    """Replay the spec's tenant mix against a :data:`CLUSTER_DEPLOYMENT`
    cluster seeded with ``seed``."""
    harness = harness or ExperimentHarness("cluster_scale", seed)
    specs = list(spec.tenants)
    duration_s = spec.duration_s
    config = replace(CLUSTER_DEPLOYMENT, seed=seed)
    cluster = InfiniCacheCluster(config, autoscaler_config=spec.autoscaler)
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

"""QUARANTINED: the original synchronous (sequential-facade) trace replayer.

Every experiment has been ported onto the event-driven drivers in
:mod:`repro.workload.replay` — this module must not be imported by anything
under :mod:`repro.experiments`.  It survives for exactly one purpose: the
driver test suite replays small traces through both paths and asserts the
drivers' request accounting degenerates to the sequential result when
concurrency is one (``tests/test_workload_drivers.py``).

The facade replays strictly one request at a time by advancing the
simulator to each record's timestamp; requests never overlap, chunk
transfers collapse to static-snapshot latency estimates, and no flow
intervals are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.baselines.elasticache import ElastiCacheCluster
from repro.baselines.s3 import ObjectStore
from repro.cache.deployment import InfiniCacheDeployment
from repro.exceptions import WorkloadError
from repro.obs.metrics import TimeSeries
from repro.utils.stats import summarize
from repro.workload.replay import bucket_latencies, hourly_costs
from repro.workload.trace import Trace


@dataclass
class ReplayReport:
    """Everything measured during one sequential-facade trace replay."""

    system: str
    trace_name: str
    requests: int = 0
    hits: int = 0
    misses: int = 0
    #: Misses caused by reclamation-induced data loss (the paper's RESETs);
    #: compulsory/capacity misses are counted in ``misses`` but not here.
    resets: int = 0
    recoveries: int = 0
    #: (object size, latency seconds) for every GET, hit or miss.
    latencies: list[tuple[int, float]] = field(default_factory=list)
    reset_events: TimeSeries = field(default_factory=lambda: TimeSeries("resets"))
    recovery_events: TimeSeries = field(default_factory=lambda: TimeSeries("recoveries"))
    total_cost: float = 0.0
    cost_breakdown: dict[str, float] = field(default_factory=dict)
    hourly_cost: dict[str, list[float]] = field(default_factory=dict)

    @property
    def hit_ratio(self) -> float:
        """Fraction of GETs served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def latency_values(self) -> list[float]:
        """All latency samples in seconds."""
        return [latency for _size, latency in self.latencies]

    def latency_summary(self) -> dict[str, float]:
        """Percentile summary of the latency samples."""
        return summarize(self.latency_values())

    def latencies_by_size_bucket(self) -> dict[str, list[float]]:
        """Latencies grouped into the paper's Figure 16 size buckets."""
        return bucket_latencies(self.latencies)


class TraceReplayer:
    """Replays a trace against InfiniCache, ElastiCache, or the bare object store."""

    def __init__(self, backing_store: Optional[ObjectStore] = None):
        self.backing_store = backing_store or ObjectStore()

    def _populate_backing_store(self, trace: Trace) -> None:
        for key, size in trace.unique_objects().items():
            self.backing_store.put(key, size)

    # ------------------------------------------------------------------ InfiniCache
    def replay_infinicache(
        self,
        trace: Trace,
        deployment: InfiniCacheDeployment,
        insert_on_miss: bool = True,
    ) -> ReplayReport:
        """Replay the trace against a started InfiniCache deployment."""
        if not trace.records:
            raise WorkloadError("cannot replay an empty trace")
        self._populate_backing_store(trace)
        deployment.start()
        client = deployment.new_client("replayer")
        report = ReplayReport(system="infinicache", trace_name=trace.name)

        for record in trace.records:
            deployment.run_until(record.timestamp)
            if record.operation == "PUT":
                client.invalidate(record.key)
                client.put_sized(record.key, record.size)
                continue
            report.requests += 1
            result = client.get(record.key)
            if result.hit:
                report.hits += 1
                latency = result.latency_s
                if result.recovery_performed:
                    report.recoveries += 1
                    report.recovery_events.record(record.timestamp, 1.0)
            else:
                report.misses += 1
                if result.data_lost:
                    report.resets += 1
                    report.reset_events.record(record.timestamp, 1.0)
                fetched = self.backing_store.get(record.key)
                if fetched is None:
                    raise WorkloadError(
                        f"object {record.key!r} is missing from the backing store"
                    )
                _size, store_latency = fetched
                latency = store_latency
                if insert_on_miss:
                    put_result = client.put_sized(record.key, record.size)
                    latency += put_result.latency_s
            report.latencies.append((record.size, latency))

        deployment.run_until(trace.records[-1].timestamp)
        deployment.stop()
        report.total_cost = deployment.total_cost()
        report.cost_breakdown = deployment.cost_breakdown()
        report.hourly_cost = hourly_costs(
            deployment.metrics, trace.records[-1].timestamp
        )
        return report

    # ------------------------------------------------------------------ ElastiCache
    def replay_elasticache(
        self, trace: Trace, cluster: ElastiCacheCluster, insert_on_miss: bool = True
    ) -> ReplayReport:
        """Replay the trace against an ElastiCache cluster."""
        if not trace.records:
            raise WorkloadError("cannot replay an empty trace")
        self._populate_backing_store(trace)
        report = ReplayReport(system="elasticache", trace_name=trace.name)
        for record in trace.records:
            now = record.timestamp
            if record.operation == "PUT":
                cluster.put(record.key, record.size, now)
                continue
            report.requests += 1
            latency = cluster.get(record.key, now)
            if latency is None:
                # ElastiCache misses are compulsory or capacity misses; the
                # provider never reclaims its memory, so they are not RESETs.
                report.misses += 1
                fetched = self.backing_store.get(record.key)
                if fetched is None:
                    raise WorkloadError(
                        f"object {record.key!r} is missing from the backing store"
                    )
                _size, store_latency = fetched
                total_latency = store_latency
                if insert_on_miss:
                    total_latency += cluster.put(record.key, record.size, now)
                report.latencies.append((record.size, total_latency))
            else:
                report.hits += 1
                report.latencies.append((record.size, latency))
        duration = trace.records[-1].timestamp
        report.total_cost = cluster.cost_for_duration(duration)
        report.cost_breakdown = {"capacity": report.total_cost, "total": report.total_cost}
        return report

    # ------------------------------------------------------------------ bare object store
    def replay_object_store(self, trace: Trace) -> ReplayReport:
        """Replay the trace directly against the backing store (the S3 baseline)."""
        if not trace.records:
            raise WorkloadError("cannot replay an empty trace")
        self._populate_backing_store(trace)
        report = ReplayReport(system="s3", trace_name=trace.name)
        for record in trace.records:
            if record.operation == "PUT":
                self.backing_store.put(record.key, record.size)
                continue
            report.requests += 1
            fetched = self.backing_store.get(record.key)
            if fetched is None:
                raise WorkloadError(f"object {record.key!r} is missing from the backing store")
            _size, latency = fetched
            report.hits += 1
            report.latencies.append((record.size, latency))
        report.total_cost = self.backing_store.request_cost()
        report.cost_breakdown = {"requests": report.total_cost, "total": report.total_cost}
        return report

"""Trace-replay accounting on all three systems, through the event drivers.

The cache replays through :class:`OpenLoopDriver`, ElastiCache and the raw
object store through :class:`OpenLoopBaselineDriver`; the traces here space
arrivals a second apart, wider than any request, so the accounting is the
one-request-at-a-time accounting: first touch misses, re-reads hit.
"""

import pytest

from repro.baselines.elasticache import ElastiCacheCluster
from repro.baselines.s3 import ObjectStore
from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.exceptions import WorkloadError
from repro.faas.reclamation import ZipfBurstReclamationPolicy
from repro.utils.rng import SeededRNG
from repro.utils.units import MB, MIB, MINUTE
from repro.workload.replay import (
    ConcurrentReplayReport,
    ElastiCacheTarget,
    ObjectStoreTarget,
    OpenLoopBaselineDriver,
    OpenLoopDriver,
)
from repro.workload.trace import Trace, TraceRecord


def build_trace(repeats: int = 3, objects: int = 5, size: int = 5 * MB) -> Trace:
    """Each object is requested ``repeats`` times, one request per second."""
    records = []
    timestamp = 0.0
    for round_index in range(repeats):
        for obj in range(objects):
            records.append(
                TraceRecord(timestamp=timestamp, operation="GET",
                            key=f"obj-{obj}", size=size)
            )
            timestamp += 1.0
    return Trace(records, name="unit")


def build_deployment(reclamation_policy=None) -> InfiniCacheDeployment:
    config = InfiniCacheConfig(
        lambdas_per_proxy=12,
        lambda_memory_bytes=1536 * MIB,
        data_shards=4,
        parity_shards=2,
        straggler=StragglerModel(probability=0.0),
        seed=1,
    )
    return InfiniCacheDeployment(config, reclamation_policy=reclamation_policy)


def replay_infinicache(trace: Trace, deployment: InfiniCacheDeployment) -> ConcurrentReplayReport:
    return OpenLoopDriver(deployment).run(trace)


def replay_elasticache(trace: Trace, cluster: ElastiCacheCluster) -> ConcurrentReplayReport:
    return OpenLoopBaselineDriver(ElastiCacheTarget(cluster)).run(trace)


def replay_object_store(trace: Trace) -> ConcurrentReplayReport:
    """Replay directly against the backing store (the S3 baseline)."""
    store = ObjectStore()
    return OpenLoopBaselineDriver(ObjectStoreTarget(store), backing_store=store).run(trace)


class TestInfiniCacheReplay:
    def test_compulsory_misses_then_hits(self):
        report = replay_infinicache(build_trace(repeats=3, objects=5), build_deployment())
        assert report.requests == 15
        assert report.misses == 5          # first touch of each object
        assert report.hits == 10
        assert report.resets == 0          # compulsory misses are not RESETs
        assert report.hit_ratio == pytest.approx(10 / 15)
        assert len(report.latencies) == 15
        assert report.total_cost > 0
        assert "serving" in report.cost_breakdown

    def test_miss_latency_includes_backing_store(self):
        report = replay_infinicache(build_trace(repeats=2, objects=3), build_deployment())
        # First 3 requests are misses (S3 fetch + insert), later ones are hits.
        samples = sorted(report.samples, key=lambda sample: sample.started_at)
        assert [sample.hit for sample in samples] == [False] * 3 + [True] * 3
        miss_latencies = [sample.latency_s for sample in samples[:3]]
        hit_latencies = [sample.latency_s for sample in samples[3:]]
        assert min(miss_latencies) > max(hit_latencies)

    def test_resets_counted_under_reclamation(self):
        policy = ZipfBurstReclamationPolicy(
            SeededRNG(3), burst_probability=0.9, max_burst=12, sibling_correlation=1.0
        )
        trace_records = []
        for minute in range(30):
            trace_records.append(
                TraceRecord(timestamp=minute * MINUTE, operation="GET",
                            key=f"obj-{minute % 3}", size=20 * MB)
            )
        trace = Trace(trace_records, name="churn")
        deployment = build_deployment(reclamation_policy=policy)
        report = replay_infinicache(trace, deployment)
        assert report.resets > 0
        assert report.resets + report.hits + (report.misses - report.resets) == report.requests
        assert len(report.reset_events) == report.resets

    def test_hourly_cost_covers_duration(self):
        report = replay_infinicache(build_trace(), build_deployment())
        assert set(report.hourly_cost) == {"serving", "warmup", "backup", "total"}
        assert len(report.hourly_cost["total"]) >= 1

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError):
            replay_infinicache(Trace(), build_deployment())

    def test_put_records_insert_objects(self):
        records = [
            TraceRecord(timestamp=0.0, operation="PUT", key="preloaded", size=5 * MB),
            TraceRecord(timestamp=1.0, operation="GET", key="preloaded", size=5 * MB),
        ]
        trace = Trace(records)
        report = replay_infinicache(trace, build_deployment())
        assert report.requests == 1
        assert report.hits == 1


class TestElastiCacheReplay:
    def test_hits_after_first_touch(self):
        report = replay_elasticache(build_trace(repeats=2, objects=4), ElastiCacheCluster())
        assert report.requests == 8
        assert report.misses == 4
        assert report.hits == 4
        assert report.resets == 0
        assert report.total_cost > 0

    def test_capacity_billing_is_duration_based(self):
        short = replay_elasticache(build_trace(repeats=1, objects=2), ElastiCacheCluster())
        assert short.total_cost == pytest.approx(10.368)  # one partial hour

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError):
            replay_elasticache(Trace(), ElastiCacheCluster())


class TestObjectStoreReplay:
    def test_every_get_served(self):
        report = replay_object_store(build_trace())
        assert report.requests == 15
        assert report.hits == 15
        assert report.misses == 0

    def test_latency_reflects_size(self):
        small = Trace(
            [TraceRecord(timestamp=0.0, operation="GET", key="s", size=1 * MB)]
        )
        large = Trace(
            [TraceRecord(timestamp=0.0, operation="GET", key="l", size=100 * MB)]
        )
        small_latency = replay_object_store(small).latencies[0][1]
        large_latency = replay_object_store(large).latencies[0][1]
        assert large_latency > 10 * small_latency


class TestReportHelpers:
    def test_latency_buckets(self):
        report = replay_object_store(
            Trace(
                [
                    TraceRecord(timestamp=0.0, operation="GET", key="a", size=500_000),
                    TraceRecord(timestamp=1.0, operation="GET", key="b", size=5 * MB),
                    TraceRecord(timestamp=2.0, operation="GET", key="c", size=50 * MB),
                    TraceRecord(timestamp=3.0, operation="GET", key="d", size=500 * MB),
                ]
            )
        )
        buckets = report.latencies_by_size_bucket()
        assert all(len(values) == 1 for values in buckets.values())

    def test_latency_summary(self):
        report = replay_object_store(build_trace())
        summary = report.latency_summary()
        assert summary["count"] == 15
        assert summary["p50"] > 0

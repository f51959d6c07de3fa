#!/usr/bin/env python3
"""Docker-registry scenario: cache a registry's large blobs in InfiniCache.

This is the workload that motivates the paper: a container registry stores
image layers (many of them tens to hundreds of megabytes) in an object store,
and a look-aside in-memory cache absorbs the hot reads.  The example:

1. synthesises a Dallas-style registry trace (object sizes and locality
   matched to the published characteristics of the IBM trace);
2. replays three hours of it open-loop against an InfiniCache deployment —
   every record injected at its arrival timestamp on the event loop, with
   an S3-style object store behind it serving misses (RESET path);
3. replays the same trace against an ElastiCache-style cluster and directly
   against the object store, through the same open-loop arrival path;
4. prints the hit ratios, latency distributions, and what each option costs.

Run:  python examples/docker_registry_cache.py
"""

from __future__ import annotations

from repro.baselines.elasticache import ElastiCacheCluster
from repro.baselines.s3 import ObjectStore
from repro.cache import InfiniCacheConfig, InfiniCacheDeployment
from repro.faas.reclamation import ZipfBurstReclamationPolicy
from repro.utils.rng import SeededRNG
from repro.utils.units import GB, MB, MIB
from repro.workload.docker_registry import DockerRegistryTraceGenerator, RegistryTraceConfig
from repro.workload.replay import (
    ElastiCacheTarget,
    ObjectStoreTarget,
    OpenLoopBaselineDriver,
    OpenLoopDriver,
)


def build_trace():
    """A three-hour, scaled-down Dallas trace (large objects only)."""
    config = RegistryTraceConfig(
        name="dallas",
        duration_hours=3.0,
        catalogue_size=900,
        base_requests_per_hour=1_500.0,
        seed=42,
    )
    trace = DockerRegistryTraceGenerator(config).generate()
    return trace.large_objects_only(10 * MB)


def build_infinicache() -> InfiniCacheDeployment:
    config = InfiniCacheConfig(
        num_proxies=1,
        lambdas_per_proxy=48,
        lambda_memory_bytes=1536 * MIB,
        data_shards=10,
        parity_shards=2,
    )
    # A bursty reclamation regime, as observed in the paper's measurement study.
    policy = ZipfBurstReclamationPolicy(SeededRNG(7), burst_probability=0.12, max_burst=8)
    return InfiniCacheDeployment(config, reclamation_policy=policy)


def main() -> None:
    trace = build_trace()
    print("== Docker-registry caching scenario ==")
    print(f"trace: {trace.request_count()} GETs over {trace.duration_s() / 3600:.1f} h, "
          f"working set {trace.working_set_bytes() / GB:.1f} GB "
          f"({len(trace.unique_objects())} blobs > 10 MB)\n")

    # --- InfiniCache -------------------------------------------------------------
    infinicache_report = OpenLoopDriver(build_infinicache()).run(trace)
    # --- ElastiCache -------------------------------------------------------------
    elasticache_report = OpenLoopBaselineDriver(
        ElastiCacheTarget(ElastiCacheCluster("cache.r5.24xlarge"))
    ).run(trace)
    # --- plain object store -------------------------------------------------------
    s3_store = ObjectStore()
    s3_report = OpenLoopBaselineDriver(
        ObjectStoreTarget(s3_store), backing_store=s3_store
    ).run(trace)

    print(f"{'system':<14} {'hit ratio':>9} {'p50 (ms)':>10} {'p99 (s)':>9} {'cost ($)':>9}")
    for report in (infinicache_report, elasticache_report, s3_report):
        summary = report.latency_summary()
        print(f"{report.system:<14} {report.hit_ratio:>9.1%} "
              f"{summary['p50'] * 1000:>10.1f} {summary['p99']:>9.2f} "
              f"{report.total_cost:>9.2f}")

    print("\nInfiniCache fault-tolerance activity during the replay:")
    print(f"  RESETs (objects lost to reclamation): {infinicache_report.resets}")
    print(f"  degraded reads repaired via erasure coding: {infinicache_report.recoveries}")
    saving = elasticache_report.total_cost / max(infinicache_report.total_cost, 1e-9)
    print(f"\nTenant-side cost saving vs ElastiCache: {saving:.0f}x")


if __name__ == "__main__":
    main()

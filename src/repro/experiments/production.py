"""Shared production-trace replay used by Figures 13-16 and Table 1.

The paper replays the first 50 hours of the Dallas Docker-registry trace
against three systems (InfiniCache, ElastiCache, raw S3) and three
InfiniCache settings (all objects, large objects only, large objects without
backup).  All of those figures and tables read different projections of the
same runs, so this module performs the replays once (memoised per parameter
set within a process, the five side by side on every usable core) and hands
the reports out.

Each replay is one :func:`~repro.utils.fanout.fan_out` unit, and a unit
ships its digest and what the parent reads: it fixes the report's
fingerprint over the whole run where the flow intervals were recorded, then
releases them (``flow_intervals_dropped`` counts them).  Samples, counters,
costs, the hourly cost series and ``peak_active_flows`` come back; no
figure reads an interval, so none is pickled, re-hashed or memoised here.

Every replay is **event-driven and open-loop**: trace records are injected
at their arrival timestamps through
:class:`~repro.workload.replay.OpenLoopDriver` (the cache) and
:class:`~repro.workload.replay.OpenLoopBaselineDriver` (ElastiCache and the
raw object store), so slow RESETs overlap later arrivals, chunk fetches
race first-d-of-n through the flow-level network model, and every run is
pinned by a deterministic fingerprint (the golden differential suite).

Scale: the defaults are reduced — a shorter trace and a smaller Lambda pool —
so the whole benchmark suite runs in minutes.  ``ProductionScale.paper()``
restores the full-scale parameters (50 hours, 400 x 1.5 GB Lambdas, ~1 TB
working set); the relative shapes (cost ratios, hit ratios, who wins where)
hold at either scale.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from functools import lru_cache

from repro.baselines.elasticache import ElastiCacheCluster
from repro.baselines.s3 import ObjectStore
from repro.cache.config import InfiniCacheConfig
from repro.cache.deployment import InfiniCacheDeployment
from repro.exceptions import ConfigurationError
from repro.experiments.harness import ExperimentHarness
from repro.faas.reclamation import ZipfBurstReclamationPolicy
from repro.utils.fanout import fan_out
from repro.utils.rng import SeededRNG
from repro.utils.units import MB, MIB
from repro.workload.docker_registry import DockerRegistryTraceGenerator, RegistryTraceConfig
from repro.workload.replay import (
    ConcurrentReplayReport,
    ElastiCacheTarget,
    ObjectStoreTarget,
    OpenLoopBaselineDriver,
    OpenLoopDriver,
)
from repro.workload.trace import Trace

#: The paper's Section 5.2 functions and code at every scale: 1.5 GB
#: Lambdas, RS(10+2).
LAMBDA_MEMORY_MIB = 1536
DATA_SHARDS = 10
PARITY_SHARDS = 2

#: Zipf exponent of the reclamation burst sizes.
RECLAIM_BURST_EXPONENT = 1.7

#: The ElastiCache deployment the replays compare against.
ELASTICACHE_INSTANCE = "cache.r5.24xlarge"


@dataclass(frozen=True)
class ProductionScale:
    """Scale parameters for the production replay."""

    duration_hours: float = 6.0
    catalogue_size: int = 1_200
    base_requests_per_hour: float = 1_200.0
    lambdas_per_proxy: int = 60
    #: Probability per minute that the provider reclaims a burst of instances
    #: (the bursty regime of Figure 9 is what produces the paper's RESETs).
    reclaim_burst_probability: float = 0.15
    seed: int = 5050

    def __post_init__(self):
        # Written so that NaN fails too: a bad scale fails here, not once the
        # replay runs (numpy rejects a negative seed only when it draws).
        for name in ("duration_hours", "base_requests_per_hour"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
        for name, least in (
            ("catalogue_size", 1),
            ("lambdas_per_proxy", DATA_SHARDS + PARITY_SHARDS),
            ("seed", 0),
        ):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ConfigurationError(f"{name} must be an int >= {least}, got {value!r}")
        if not 0.0 <= self.reclaim_burst_probability <= 1.0:
            raise ConfigurationError(
                "reclaim_burst_probability must be in [0, 1], got "
                f"{self.reclaim_burst_probability!r}"
            )

    @property
    def reclaim_max_burst(self) -> int:
        """Largest burst the reclamation policy may take, scaled to the pool."""
        return max(6, self.lambdas_per_proxy // 6)

    @classmethod
    def paper(cls) -> "ProductionScale":
        """The paper's full-scale configuration (slow: hours of CPU time)."""
        return cls(
            duration_hours=50.0,
            catalogue_size=12_000,
            base_requests_per_hour=3_654.0,
            lambdas_per_proxy=400,
        )

    @classmethod
    def quick(cls) -> "ProductionScale":
        """A minimal configuration for unit tests (minutes of trace time)."""
        return cls(
            duration_hours=1.0,
            catalogue_size=200,
            base_requests_per_hour=600.0,
            lambdas_per_proxy=24,
            reclaim_burst_probability=0.10,
        )


@dataclass
class ProductionResults:
    """Replay reports for every system / setting combination."""

    scale: ProductionScale
    trace_all: Trace
    trace_large: Trace
    infinicache_all: ConcurrentReplayReport
    infinicache_large: ConcurrentReplayReport
    infinicache_large_no_backup: ConcurrentReplayReport
    elasticache_all: ConcurrentReplayReport
    s3_all: ConcurrentReplayReport
    #: Per-replay driver fingerprints (golden differential suite).
    fingerprints: dict[str, str] = field(default_factory=dict)


def build_trace(scale: ProductionScale) -> Trace:
    """Generate the Dallas-style trace at the requested scale."""
    config = RegistryTraceConfig(
        name="dallas",
        duration_hours=scale.duration_hours,
        catalogue_size=scale.catalogue_size,
        base_requests_per_hour=scale.base_requests_per_hour,
        seed=scale.seed,
    )
    return DockerRegistryTraceGenerator(config).generate()


def build_deployment(scale: ProductionScale, backup_enabled: bool, seed_offset: int = 0,
                     ) -> InfiniCacheDeployment:
    """Build an InfiniCache deployment matching the paper's Section 5.2 setup."""
    config = InfiniCacheConfig(
        num_proxies=1,
        lambdas_per_proxy=scale.lambdas_per_proxy,
        lambda_memory_bytes=LAMBDA_MEMORY_MIB * MIB,
        data_shards=DATA_SHARDS,
        parity_shards=PARITY_SHARDS,
        backup_enabled=backup_enabled,
        seed=scale.seed + seed_offset,
    )
    policy = ZipfBurstReclamationPolicy(
        SeededRNG(scale.seed + 7 + seed_offset),
        exponent=RECLAIM_BURST_EXPONENT,
        max_burst=scale.reclaim_max_burst,
        burst_probability=scale.reclaim_burst_probability,
    )
    return InfiniCacheDeployment(config, reclamation_policy=policy)


def run(scale: ProductionScale) -> ProductionResults:
    """Run every replay needed by Figures 13-16 and Table 1."""
    return _run_cached(scale)


#: Every replay as ``label -> trace``, in the order they are recorded.
#: ``infinicache.all`` is the longest, so it is the first handed to a worker.
_REPLAYS = {
    "infinicache.all": "all",
    "infinicache.large": "large",
    "infinicache.large_no_backup": "large",
    "elasticache.all": "all",
    "s3.all": "all",
}
#: InfiniCache replay label -> (backup enabled, deployment seed offset).
INFINICACHE_SETTINGS = {
    "infinicache.all": (True, 1),
    "infinicache.large": (True, 2),
    "infinicache.large_no_backup": (False, 3),
}


def _replay(unit: tuple[str, Trace, ProductionScale]) -> ConcurrentReplayReport:
    """Run one ``(label, trace, scale)`` replay of :data:`_REPLAYS` (a
    :func:`~repro.utils.fanout.fan_out` unit), returning its report with the
    digest fixed and the flow intervals released."""
    label, trace, scale = unit
    # When the replays share a process, the previous one's deployment is one
    # big reference cycle, and this replay runs inside ``run*``, where the
    # loop pauses automatic collection: only this call frees it before the
    # next pool is built (``run(ProductionScale())`` in one process peaks
    # at 83.5 MiB with it, 115.0 without).
    gc.collect()
    if label in INFINICACHE_SETTINGS:
        backup, offset = INFINICACHE_SETTINGS[label]
        deployment = build_deployment(scale, backup_enabled=backup, seed_offset=offset)
        report = OpenLoopDriver(deployment).run(trace)
    elif label == "elasticache.all":
        target = ElastiCacheTarget(
            ElastiCacheCluster(instance_type_name=ELASTICACHE_INSTANCE)
        )
        report = OpenLoopBaselineDriver(target).run(trace)
    else:
        s3_store = ObjectStore()
        report = OpenLoopBaselineDriver(
            ObjectStoreTarget(s3_store), backing_store=s3_store
        ).run(trace)
    report.release_flow_intervals()
    return report


@lru_cache(maxsize=4)
def _run_cached(scale: ProductionScale) -> ProductionResults:
    harness = ExperimentHarness("production", scale.seed)
    trace_all = build_trace(scale)
    traces = {"all": trace_all, "large": trace_all.large_objects_only(10 * MB)}
    reports = fan_out(_replay, [
        (label, traces[trace], scale) for label, trace in _REPLAYS.items()
    ])
    # Recorded here, in label order, so the fingerprints and the metrics a
    # run publishes do not depend on where the replays ran; each report's
    # digest was fixed by the unit that ran it, so nothing is re-hashed.
    recorded = {
        label: harness.record(label, report) for label, report in zip(_REPLAYS, reports)
    }
    return ProductionResults(
        scale=scale,
        trace_all=trace_all,
        trace_large=traces["large"],
        infinicache_all=recorded["infinicache.all"],
        infinicache_large=recorded["infinicache.large"],
        infinicache_large_no_backup=recorded["infinicache.large_no_backup"],
        elasticache_all=recorded["elasticache.all"],
        s3_all=recorded["s3.all"],
        fingerprints=harness.fingerprints,
    )


def replay_elasticache_large(results: ProductionResults) -> ConcurrentReplayReport:
    """The large-object-only ElastiCache replay Table 1 additionally needs.

    The caller (``table1.from_production``) fingerprints the returned
    report itself, so no harness bookkeeping is involved here.
    """
    driver = OpenLoopBaselineDriver(
        ElastiCacheTarget(
            ElastiCacheCluster(instance_type_name=ELASTICACHE_INSTANCE)
        )
    )
    return driver.run(results.trace_large)

"""Workload generation and replay.

The paper evaluates InfiniCache with two kinds of workloads:

* **Microbenchmarks** (Section 5.1): synthetic GET-only runs over fixed-size
  objects (10-100 MB), sweeping the erasure code and the Lambda memory.
* **Production traces** (Section 5.2): 50 hours of the IBM Docker-registry
  trace (Dallas datacentre), replayed in real time against InfiniCache,
  ElastiCache, and S3.

The original traces are proprietary, so :mod:`repro.workload.docker_registry`
synthesises traces that match the published marginals of Figure 1: object
sizes spanning nine orders of magnitude with >20 % of objects above 10 MB,
large objects accounting for >95 % of bytes, a long-tailed access-count
distribution, and 37-46 % of large-object reuses within an hour.

Every replay runs on the event-driven drivers of :mod:`repro.workload.replay`
(closed loop, open loop, and the open-loop baseline driver); there is no
other replay path.
"""

from repro.workload.trace import TraceRecord, Trace
from repro.workload.arrivals import (
    ClosedLoopArrivals,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.workload.distributions import ObjectSizeDistribution, ZipfPopularity
from repro.workload.popularity import FlashCrowd, ScanMix, StaticZipf, ZipfChurn
from repro.workload.docker_registry import DockerRegistryTraceGenerator, RegistryTraceConfig
from repro.workload.replay import (
    ClientOp,
    ClosedLoopDriver,
    ConcurrentReplayReport,
    ElastiCacheTarget,
    ObjectStoreTarget,
    OpenLoopBaselineDriver,
    OpenLoopDriver,
    RequestSample,
    seed_fleet,
)

__all__ = [
    "TraceRecord",
    "Trace",
    "ClosedLoopArrivals",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "ObjectSizeDistribution",
    "ZipfPopularity",
    "StaticZipf",
    "ZipfChurn",
    "FlashCrowd",
    "ScanMix",
    "DockerRegistryTraceGenerator",
    "RegistryTraceConfig",
    "ClientOp",
    "ClosedLoopDriver",
    "OpenLoopDriver",
    "OpenLoopBaselineDriver",
    "ElastiCacheTarget",
    "ObjectStoreTarget",
    "ConcurrentReplayReport",
    "RequestSample",
    "seed_fleet",
]

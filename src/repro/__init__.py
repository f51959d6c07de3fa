"""InfiniCache reproduction: a serverless in-memory object cache.

This library reproduces *InfiniCache: Exploiting Ephemeral Serverless
Functions to Build a Cost-Effective Memory Cache* (Wang et al., FAST 2020)
as a pure-Python system running on a simulated AWS substrate.

The most common entry points:

* :class:`repro.cache.InfiniCacheConfig` and
  :class:`repro.cache.InfiniCacheDeployment` — configure and build a cache.
* :meth:`repro.cache.InfiniCacheDeployment.new_client` — obtain the
  application-facing GET/PUT client library.
* :class:`repro.workload.DockerRegistryTraceGenerator` plus the
  event-driven :class:`repro.workload.ClosedLoopDriver` /
  :class:`repro.workload.OpenLoopDriver` — synthesise and replay the
  production-style workload with genuinely overlapping requests.
* :class:`repro.cluster.InfiniCacheCluster` — the orchestrated multi-tenant
  cluster: pool autoscaling, tenant quotas, rebalancing, failure detection.
* :mod:`repro.analysis` — the availability and cost models of Section 4.3.
* :mod:`repro.experiments` — one module per figure/table of the paper.
"""

from repro.cache import (
    GetResult,
    InfiniCacheClient,
    InfiniCacheConfig,
    InfiniCacheDeployment,
    PutResult,
)
from repro.analysis import AvailabilityModel, CostModel, CostModelParams
from repro.cluster import (
    AutoscalerConfig,
    InfiniCacheCluster,
    TenantClient,
    TenantQuota,
)
from repro.erasure import ErasureCodec, ReedSolomon
from repro.workload import (
    ClosedLoopDriver,
    DockerRegistryTraceGenerator,
    OpenLoopDriver,
    Trace,
    TraceRecord,
)

__version__ = "1.0.0"

__all__ = [
    "InfiniCacheConfig",
    "InfiniCacheDeployment",
    "InfiniCacheClient",
    "GetResult",
    "PutResult",
    "AutoscalerConfig",
    "InfiniCacheCluster",
    "TenantClient",
    "TenantQuota",
    "AvailabilityModel",
    "CostModel",
    "CostModelParams",
    "ErasureCodec",
    "ReedSolomon",
    "DockerRegistryTraceGenerator",
    "Trace",
    "TraceRecord",
    "ClosedLoopDriver",
    "OpenLoopDriver",
    "__version__",
]

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
from repro.erasure import ErasureCodec, ReedSolomon
from repro.workload import (
    ClosedLoopDriver,
    DockerRegistryTraceGenerator,
    OpenLoopDriver,
    Trace,
    TraceRecord,
)

__version__ = "1.0.0"

#: Re-exported from :mod:`repro.cluster` on first use, so that importing a
#: package that does not orchestrate clusters (``repro.scenarios``, the
#: replay drivers) does not load the cluster subsystem.
_CLUSTER_EXPORTS = ("AutoscalerConfig", "InfiniCacheCluster", "TenantClient", "TenantQuota")


def __getattr__(name: str):
    if name in _CLUSTER_EXPORTS:
        import repro.cluster

        return getattr(repro.cluster, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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

"""InfiniCache reproduction: a serverless in-memory object cache.

This library reproduces *InfiniCache: Exploiting Ephemeral Serverless
Functions to Build a Cost-Effective Memory Cache* (Wang et al., FAST 2020)
as a pure-Python system running on a simulated AWS substrate.

The most common entry points:

* :class:`repro.cache.InfiniCacheConfig` and
  :class:`repro.cache.InfiniCacheDeployment` — configure and build a cache.
* :meth:`repro.cache.InfiniCacheDeployment.new_client` — obtain the
  application-facing GET/PUT client library.
* :class:`repro.workload.docker_registry.DockerRegistryTraceGenerator` plus the
  event-driven :class:`repro.workload.ClosedLoopDriver` /
  :class:`repro.workload.OpenLoopDriver` — synthesise and replay the
  production-style workload with genuinely overlapping requests.
* :class:`repro.cluster.InfiniCacheCluster` — the orchestrated multi-tenant
  cluster: pool autoscaling, tenant quotas, rebalancing, failure detection.
* :mod:`repro.analysis` — the availability and cost models of Section 4.3.
* :mod:`repro.experiments` — one module per figure/table of the paper.
"""

import importlib

__version__ = "1.0.0"

#: The public names, each with the module that defines it.  A name is
#: imported on first use (PEP 562), so ``import repro.sim`` or ``repro lint``
#: loads only what it runs and not the cache, the workload or numpy.
_EXPORTS = {
    "InfiniCacheConfig": "repro.cache.config",
    "InfiniCacheDeployment": "repro.cache.deployment",
    "InfiniCacheClient": "repro.cache.client",
    "GetResult": "repro.cache.client",
    "PutResult": "repro.cache.client",
    "AutoscalerConfig": "repro.cluster.autoscaler",
    "InfiniCacheCluster": "repro.cluster.cluster",
    "TenantClient": "repro.cluster.router",
    "TenantQuota": "repro.cluster.tenants",
    "AvailabilityModel": "repro.analysis.availability",
    "CostModel": "repro.analysis.cost_model",
    "CostModelParams": "repro.analysis.cost_model",
    "ErasureCodec": "repro.erasure.codec",
    "ReedSolomon": "repro.erasure.reed_solomon",
    "DockerRegistryTraceGenerator": "repro.workload.docker_registry",
    "Trace": "repro.workload.trace",
    "TraceRecord": "repro.workload.trace",
    "ClosedLoopDriver": "repro.workload.replay",
    "OpenLoopDriver": "repro.workload.replay",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [*_EXPORTS, "__version__"]

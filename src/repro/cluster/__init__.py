"""Cluster orchestration: autoscaling, multi-tenancy, and rebalancing.

The seed reproduced InfiniCache as one static deployment; this package turns
it into an orchestrated cluster, covering the elasticity and isolation
concerns the paper's production discussion (Section 6) leaves open:

* :mod:`repro.cluster.autoscaler` — grows/shrinks each proxy's Lambda pool
  from observed memory pressure and request rate, on the simulation loop.
* :mod:`repro.cluster.tenants` — tenant registry with namespaces, byte and
  request-rate quotas, and per-tenant metrics.
* :mod:`repro.cluster.router` — the tenant-aware routing layer in front of
  the client library's consistent-hash ring.
* :mod:`repro.cluster.rebalancer` — placement migration on proxy join/leave
  and pool resize, plus the proactive failure detector.
* :mod:`repro.cluster.cluster` — :class:`InfiniCacheCluster`, the wired
  top-level entry point.
"""

from repro.cluster.autoscaler import AutoscalerConfig
from repro.cluster.cluster import InfiniCacheCluster
from repro.cluster.tenants import UNATTRIBUTED_TENANT, TenantQuota

__all__ = [
    "AutoscalerConfig",
    "InfiniCacheCluster",
    "TenantQuota",
    "UNATTRIBUTED_TENANT",
]

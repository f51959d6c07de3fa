"""InfiniCache core: client library, proxy, and Lambda cache-node runtime.

The package mirrors the paper's three components plus the orchestration glue
that keeps a deployment alive:

* :mod:`repro.cache.client` — the client library: GET/PUT API, erasure
  encoding/decoding, consistent-hash load balancing over proxies, and
  first-d reconstruction.
* :mod:`repro.cache.proxy` — the proxy's request path: CLOCK-based LRU
  eviction at object granularity, parallel chunk I/O with first-d streaming.
* :mod:`repro.cache.ledger` — a proxy's pool ledger: the chunk-to-node
  mapping table and the byte totals kept with it (placed bytes per node per
  tenant, the pool total), plus draining, decommissioning, export and repair.
* :mod:`repro.cache.node` — one Lambda cache node: the runtime's chunk
  store (kept inside the simulated function instance's memory), the
  connection protocol's effect on a request (``NodeAccess``: preflight,
  invoke overhead, cold start), anticipatory billed-duration control, and
  failover between peer replicas.
* :mod:`repro.cache.backup` — the delta-sync backup protocol through a
  relay, run every ``T_bak`` per node.
* :mod:`repro.cache.deployment` — a builder that wires the client, proxies,
  pool, simulated platform, warm-up and backup schedulers together from one
  :class:`~repro.cache.config.InfiniCacheConfig`; its warm-up tick (every
  ``T_warm``) re-invokes each proxy's pool (``Proxy.warm_up_pool``).
"""

from repro.cache.admission import HybridCacheRouter
from repro.cache.config import InfiniCacheConfig
from repro.cache.deployment import InfiniCacheDeployment

__all__ = [
    "HybridCacheRouter",
    "InfiniCacheConfig",
    "InfiniCacheDeployment",
]

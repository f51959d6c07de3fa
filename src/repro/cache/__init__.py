"""InfiniCache core: client library, proxy, and Lambda cache-node runtime.

The package mirrors the paper's three components plus the orchestration glue
that keeps a deployment alive:

* :mod:`repro.cache.client` — the client library: GET/PUT API, erasure
  encoding/decoding, consistent-hash load balancing over proxies, and
  first-d reconstruction.
* :mod:`repro.cache.proxy` — the proxy: Lambda pool management, the
  chunk-to-node mapping table, CLOCK-based LRU eviction at object
  granularity, parallel chunk I/O with first-d streaming.
* :mod:`repro.cache.node` — one Lambda cache node: the runtime's chunk
  store (kept inside the simulated function instance's memory), the
  connection protocol's effect on a request (``NodeAccess``: preflight,
  invoke overhead, cold start), anticipatory billed-duration control, and
  failover between peer replicas.
* :mod:`repro.cache.backup` — the delta-sync backup protocol through a
  relay, run every ``T_bak`` per node.
* :mod:`repro.cache.warmup` — the periodic warm-up invoker (every
  ``T_warm``).
* :mod:`repro.cache.deployment` — a builder that wires the client, proxies,
  pool, simulated platform, warm-up and backup schedulers together from one
  :class:`~repro.cache.config.InfiniCacheConfig`.
"""

from repro.cache.admission import HybridCacheRouter
from repro.cache.config import InfiniCacheConfig
from repro.cache.chunk import CacheChunk, ObjectDescriptor
from repro.cache.consistent_hash import ConsistentHashRing
from repro.cache.clock_lru import ClockLRU
from repro.cache.client import GetResult, InfiniCacheClient, PutResult
from repro.cache.namespacing import NAMESPACE_SEPARATOR, owner_of
from repro.cache.proxy import Proxy
from repro.cache.node import LambdaCacheNode
from repro.cache.deployment import InfiniCacheDeployment

__all__ = [
    "HybridCacheRouter",
    "InfiniCacheConfig",
    "CacheChunk",
    "ObjectDescriptor",
    "ConsistentHashRing",
    "ClockLRU",
    "GetResult",
    "PutResult",
    "InfiniCacheClient",
    "NAMESPACE_SEPARATOR",
    "owner_of",
    "Proxy",
    "LambdaCacheNode",
    "InfiniCacheDeployment",
]

"""ElastiCache (Redis) baseline.

The comparison target in Figures 11(f), 13, 15, 16 and Table 1.  The model
captures the properties the paper attributes to Redis that matter for large
objects:

* each node is **single-threaded**, so concurrent large GETs on the same node
  are serialised (the reason the 1-node ``cache.r5.8xlarge`` loses to
  InfiniCache's parallel chunk streaming);
* a cluster deployment shards keys across nodes by consistent hashing, so a
  10-node cluster gets 10-way parallelism *across* objects but still serves
  each single object from one node;
* memory is a hard capacity; inserting past it evicts LRU objects;
* the tenant pays the instance's hourly price whether or not it is used —
  the polar opposite of the pay-per-request model InfiniCache introduces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.baselines.pricing import ElastiCacheInstanceType, elasticache_instance
from repro.exceptions import ConfigurationError
from repro.obs.metrics import MetricRegistry
from repro.utils.units import MILLISECOND


@dataclass
class _CachedObject:
    key: str
    size: int
    inserted_at: float


class ElastiCacheNode:
    """A single Redis-like node: LRU keyed store with serialised I/O."""

    #: Fixed per-request overhead (network RTT + Redis command processing).
    REQUEST_OVERHEAD_S = 0.5 * MILLISECOND

    #: Effective throughput of a single large GET/PUT.  Redis is
    #: single-threaded, so one request's value is copied and written to the
    #: socket by one core; the paper's Figure 11(f) measurements (hundreds of
    #: milliseconds for 100 MB objects) put this in the few-hundred-MB/s
    #: range even though the instance NIC is 10-25 Gbps.
    PROCESSING_BANDWIDTH_BPS = 300 * 1_000_000

    def __init__(self, instance_type: ElastiCacheInstanceType, node_id: str = "node-0"):
        self.instance_type = instance_type
        self.node_id = node_id
        self._store: OrderedDict[str, _CachedObject] = OrderedDict()
        self.bytes_used = 0
        #: Virtual time at which the single worker thread becomes free.
        self._busy_until = 0.0
        self.evictions = 0

    @property
    def capacity_bytes(self) -> int:
        """Memory capacity of this node."""
        return self.instance_type.memory_bytes

    def contains(self, key: str) -> bool:
        """Whether the key is currently cached (does not touch LRU order)."""
        return key in self._store

    def _service_time(self, size: int) -> float:
        effective = min(self.PROCESSING_BANDWIDTH_BPS, self.instance_type.network_bandwidth_bps)
        return self.REQUEST_OVERHEAD_S + size / effective

    def _start_service(self, now: float, service_time: float) -> float:
        """Queue the request behind the single worker thread; return finish time."""
        start = max(now, self._busy_until)
        finish = start + service_time
        self._busy_until = finish
        return finish

    def get(self, key: str, now: float) -> Optional[float]:
        """Serve a GET; returns the completion latency in seconds or None on miss."""
        cached = self._store.get(key)
        if cached is None:
            return None
        self._store.move_to_end(key)
        finish = self._start_service(now, self._service_time(cached.size))
        return finish - now

    def put(self, key: str, size: int, now: float) -> float:
        """Insert (or overwrite) an object; returns the completion latency."""
        if size <= 0:
            raise ConfigurationError(f"object size must be positive, got {size}")
        if size > self.capacity_bytes:
            raise ConfigurationError(
                f"object of {size} bytes exceeds node capacity {self.capacity_bytes}"
            )
        existing = self._store.pop(key, None)
        if existing is not None:
            self.bytes_used -= existing.size
        while self.bytes_used + size > self.capacity_bytes:
            evicted_key, evicted = self._store.popitem(last=False)
            self.bytes_used -= evicted.size
            self.evictions += 1
        self._store[key] = _CachedObject(key=key, size=size, inserted_at=now)
        self.bytes_used += size
        finish = self._start_service(now, self._service_time(size))
        return finish - now

    def delete(self, key: str) -> bool:
        """Remove a key; returns whether it was present."""
        cached = self._store.pop(key, None)
        if cached is None:
            return False
        self.bytes_used -= cached.size
        return True

    def object_count(self) -> int:
        """Number of objects currently cached on this node."""
        return len(self._store)


class ElastiCacheCluster:
    """A 1-node or scale-out ElastiCache deployment with hourly billing."""

    def __init__(
        self,
        instance_type_name: str = "cache.r5.24xlarge",
        node_count: int = 1,
        metrics: MetricRegistry | None = None,
    ):
        if node_count < 1:
            raise ConfigurationError(f"node count must be >= 1, got {node_count}")
        self.instance_type = elasticache_instance(instance_type_name)
        self.nodes = [
            ElastiCacheNode(self.instance_type, node_id=f"node-{i}") for i in range(node_count)
        ]
        self.metrics = metrics or MetricRegistry()
        self.hits = 0
        self.misses = 0

    @property
    def node_count(self) -> int:
        """Number of nodes in the cluster."""
        return len(self.nodes)

    @property
    def capacity_bytes(self) -> int:
        """Aggregate memory capacity of the cluster."""
        return sum(node.capacity_bytes for node in self.nodes)

    def _node_for(self, key: str) -> ElastiCacheNode:
        return self.nodes[hash(key) % len(self.nodes)]

    def get(self, key: str, now: float) -> Optional[float]:
        """GET an object; returns latency seconds, or None on a miss."""
        latency = self._node_for(key).get(key, now)
        if latency is None:
            self.misses += 1
            self.metrics.counter("elasticache.misses").increment()
        else:
            self.hits += 1
            self.metrics.counter("elasticache.hits").increment()
        return latency

    def put(self, key: str, size: int, now: float) -> float:
        """PUT an object; returns latency seconds."""
        latency = self._node_for(key).put(key, size, now)
        self.metrics.counter("elasticache.puts").increment()
        return latency

    def contains(self, key: str) -> bool:
        """Whether the key is cached anywhere in the cluster."""
        return self._node_for(key).contains(key)

    def hit_ratio(self) -> float:
        """Fraction of GETs served from the cache so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def hourly_cost(self) -> float:
        """Dollars per hour for the whole cluster, used or not."""
        return self.instance_type.hourly_price * len(self.nodes)

    def cost_for_duration(self, duration_s: float) -> float:
        """Capacity-billed cost of running the cluster for ``duration_s`` seconds.

        ElastiCache bills by the hour; partial hours are rounded up, matching
        how the paper accumulates $518.40 over the 50-hour replay.
        """
        if duration_s < 0:
            raise ConfigurationError("duration must be non-negative")
        import math

        hours = math.ceil(duration_s / 3600.0) if duration_s > 0 else 0
        return hours * self.hourly_cost()

    def bytes_used(self) -> int:
        """Bytes currently cached across all nodes."""
        return sum(node.bytes_used for node in self.nodes)

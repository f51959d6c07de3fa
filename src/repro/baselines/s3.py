"""Backing object store (an S3 stand-in).

Two roles in the reproduction:

1. The **miss path** for InfiniCache and ElastiCache: when the cache cannot
   serve an object (miss or unrecoverable chunk loss), the replayer performs
   a RESET — fetch from the object store and re-insert into the cache.
2. The **no-cache baseline** of Figures 15 and 16: the same trace replayed
   directly against the store.

The latency model is first-byte latency plus a bandwidth-bound body
transfer.  Default parameters give ~30 ms to first byte and ~15 MB/s of
single-stream GET throughput (the paper's registry-style replay issues one
plain GET per blob, without parallel range requests), which places S3 one to
two orders of magnitude behind the caches for large objects — the gap
Figure 15(b) and Figure 16 show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.baselines.pricing import S3Pricing
from repro.exceptions import ConfigurationError
from repro.utils.units import MB


@dataclass
class ObjectStore:
    """A durable, capacity-unbounded key-value object store."""

    first_byte_latency_s: float = 0.030
    bandwidth_bps: float = 15 * MB
    pricing: S3Pricing = field(default_factory=S3Pricing)

    def __post_init__(self):
        if self.first_byte_latency_s < 0 or self.bandwidth_bps <= 0:
            raise ConfigurationError("invalid object store latency/bandwidth")
        self._objects: dict[str, int] = {}
        self.get_count = 0
        self.put_count = 0

    def put(self, key: str, size: int) -> float:
        """Store (or overwrite) an object; returns the upload latency in seconds."""
        if size <= 0:
            raise ConfigurationError(f"object size must be positive, got {size}")
        self._objects[key] = size
        self.put_count += 1
        return self.first_byte_latency_s + size / self.bandwidth_bps

    def get(self, key: str) -> Optional[tuple[int, float]]:
        """Fetch an object.

        Returns:
            ``(size, latency_seconds)`` or ``None`` if the key has never been
            stored.  The replayer pre-populates the store with every object in
            the trace, so a ``None`` indicates a workload bug.
        """
        size = self._objects.get(key)
        if size is None:
            return None
        self.get_count += 1
        return size, self.first_byte_latency_s + size / self.bandwidth_bps

    def contains(self, key: str) -> bool:
        """Whether an object with this key exists."""
        return key in self._objects

    def object_count(self) -> int:
        """Number of stored objects."""
        return len(self._objects)

    def total_bytes(self) -> int:
        """Sum of stored object sizes."""
        return sum(self._objects.values())

    def request_cost(self) -> float:
        """Per-request cost accumulated so far (GETs + PUTs)."""
        return (
            self.get_count * self.pricing.price_per_get
            + self.put_count * self.pricing.price_per_put
        )

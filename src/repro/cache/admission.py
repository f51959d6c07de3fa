"""Hybrid routing of small and large objects.

The paper's motivation section describes the *tension* between small and
large objects: large objects evict many small ones and hog bandwidth, so
conventional deployments either cap the admitted object size (Varnish/
AdaptSize-style thresholds) or over-provision memory.  InfiniCache resolves
the tension by giving large objects their own pay-per-use tier; Section 6
("Small Object Caching") is explicit that small-object-intensive traffic
should *stay* on a conventional IMOC.

:class:`HybridCacheRouter` implements that operational guidance: a
front-end that sends objects at or below :data:`LARGE_OBJECT_THRESHOLD_BYTES`
to an ElastiCache-style cluster and larger ones to InfiniCache, exposing one
GET/PUT interface and aggregate routing, hit and cost statistics.  This is
the deployment the paper implicitly recommends for a mixed workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.elasticache import ElastiCacheCluster
from repro.cache.client import GetResult, InfiniCacheClient
from repro.exceptions import ConfigurationError
from repro.utils.units import MB

#: Objects larger than this go to the InfiniCache tier: the boundary the
#: paper uses throughout its analysis ("large objects" = larger than 10 MB).
LARGE_OBJECT_THRESHOLD_BYTES = 10 * MB


@dataclass
class HybridStats:
    """Routing and hit counters of a hybrid deployment."""

    small_tier_objects: int = 0
    small_tier_bytes: int = 0
    large_tier_objects: int = 0
    large_tier_bytes: int = 0
    small_gets: int = 0
    small_hits: int = 0
    large_gets: int = 0
    large_hits: int = 0

    @property
    def large_tier_object_share(self) -> float:
        """Fraction of routed objects that went to the large-object tier."""
        total = self.large_tier_objects + self.small_tier_objects
        return self.large_tier_objects / total if total else 0.0

    @property
    def large_tier_byte_share(self) -> float:
        """Fraction of routed bytes that went to the large-object tier."""
        total = self.large_tier_bytes + self.small_tier_bytes
        return self.large_tier_bytes / total if total else 0.0

    @property
    def overall_hit_ratio(self) -> float:
        """Hit ratio across both tiers."""
        total = self.small_gets + self.large_gets
        hits = self.small_hits + self.large_hits
        return hits / total if total else 0.0


class HybridCacheRouter:
    """One GET/PUT front-end over a small-object tier and a large-object tier.

    Small objects (at or below :data:`LARGE_OBJECT_THRESHOLD_BYTES`) are
    cached in an ElastiCache-style cluster, which serves them in well under a
    millisecond; large objects go to InfiniCache, which serves them with
    parallel chunk I/O and pay-per-use billing.  Overwrites invalidate whichever tier holds
    the previous version, so a key that grows past the threshold migrates
    cleanly.
    """

    def __init__(
        self,
        infinicache_client: InfiniCacheClient,
        small_object_cache: ElastiCacheCluster,
    ):
        self.large_tier = infinicache_client
        self.small_tier = small_object_cache
        self.stats = HybridStats()
        #: Remember which tier currently holds each key so GETs and
        #: invalidations do not probe both tiers.
        self._tier_of_key: dict[str, str] = {}

    # ------------------------------------------------------------------ PUT
    def put_sized(self, key: str, size: int) -> str:
        """Insert an object (by size) into the tier its size picks.

        Returns the tier that now holds the key: ``"small"`` or ``"large"``.
        """
        if not key:
            raise ConfigurationError("object key must be non-empty")
        if size <= 0:
            raise ConfigurationError(f"object size must be positive, got {size}")
        self.invalidate(key)
        if size > LARGE_OBJECT_THRESHOLD_BYTES:
            self.stats.large_tier_objects += 1
            self.stats.large_tier_bytes += size
            self.large_tier.put_sized(key, size)
            tier = "large"
        else:
            self.stats.small_tier_objects += 1
            self.stats.small_tier_bytes += size
            self.small_tier.put(key, size, now=self.large_tier.clock.now)
            tier = "small"
        self._tier_of_key[key] = tier
        return tier

    # ------------------------------------------------------------------ GET
    def get(self, key: str, size_hint: int | None = None) -> GetResult:
        """Fetch an object from whichever tier holds it.

        Returns a :class:`~repro.cache.client.GetResult` in both cases so the
        caller sees one result type; small-tier hits carry no payload (the
        small tier stores sizes only, like the large tier's sized mode).
        """
        tier = self._tier_of_key.get(key)
        if tier == "small" or (tier is None and size_hint is not None
                               and size_hint <= LARGE_OBJECT_THRESHOLD_BYTES):
            now = self.large_tier.clock.now
            latency = self.small_tier.get(key, now)
            self.stats.small_gets += 1
            if latency is None:
                return GetResult(key=key, hit=False, size=size_hint or 0,
                                 latency_s=0.0, proxy_id="small-tier")
            self.stats.small_hits += 1
            return GetResult(key=key, hit=True, size=size_hint or 0,
                             latency_s=latency, proxy_id="small-tier")
        result = self.large_tier.get(key)
        self.stats.large_gets += 1
        if result.hit:
            self.stats.large_hits += 1
        return result

    # ------------------------------------------------------------------ invalidation
    def invalidate(self, key: str) -> bool:
        """Drop a key from whichever tier holds it."""
        tier = self._tier_of_key.pop(key, None)
        if tier == "small":
            return self.small_tier._node_for(key).delete(key)
        if tier == "large":
            return self.large_tier.invalidate(key)
        return False

    # ------------------------------------------------------------------ reporting
    def describe(self) -> dict[str, float]:
        """Routing and hit statistics for reports."""
        return {
            "threshold_bytes": LARGE_OBJECT_THRESHOLD_BYTES,
            "large_tier_object_share": self.stats.large_tier_object_share,
            "large_tier_byte_share": self.stats.large_tier_byte_share,
            "small_tier_hit_ratio": (
                self.stats.small_hits / self.stats.small_gets if self.stats.small_gets else 0.0
            ),
            "large_tier_hit_ratio": (
                self.stats.large_hits / self.stats.large_gets if self.stats.large_gets else 0.0
            ),
            "overall_hit_ratio": self.stats.overall_hit_ratio,
        }

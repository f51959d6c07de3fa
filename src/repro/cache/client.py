"""The InfiniCache client library.

The application-facing component (paper Section 3.1, Figure 3).  It exposes
``GET(key)`` / ``PUT(key, value)``, and internally:

* erasure-codes objects with the configured ``RS(d+p)`` code and decodes the
  first-d chunks that return;
* picks the responsible proxy for each key with consistent hashing, so
  multiple clients sharing the same proxy set agree on placement;
* invalidates on overwrite and re-inserts on read miss, implementing the
  read-only, write-through caching model the paper assumes.

Two data paths are supported:

* **real payloads** (:meth:`InfiniCacheClient.put` /
  :meth:`InfiniCacheClient.get` with bytes) — the full Reed-Solomon encode
  and decode runs on the actual data, as the examples and functional tests
  do;
* **sized objects** (:meth:`InfiniCacheClient.put_sized`) — only sizes move
  through the system, which is what the terabyte-scale trace replays use;
  latency and cost are modelled identically, the payload is simply absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cache.chunk import CacheChunk, ObjectDescriptor, descriptor_for
from repro.cache.config import InfiniCacheConfig
from repro.cache.consistent_hash import ConsistentHashRing
from repro.cache.proxy import Proxy, ProxyGetResult, ProxyPutResult
from repro.erasure.codec import Chunk as ErasureChunk
from repro.erasure.codec import ErasureCodec
from repro.exceptions import ConfigurationError
from repro.sim import SimClock

#: Client-side erasure coding throughput (bytes/s); the paper's client uses
#: AVX-accelerated Reed-Solomon, so coding is fast but not free.
ENCODE_BANDWIDTH_BPS = 2_000_000_000.0
DECODE_BANDWIDTH_BPS = 1_500_000_000.0


@dataclass
class PutResult:
    """Outcome of a PUT as seen by the application."""

    key: str
    size: int
    latency_s: float
    proxy_id: str
    node_ids: list[str] = field(default_factory=list)
    evicted_keys: list[str] = field(default_factory=list)
    hosts_touched: int = 0
    #: ``False`` when a chunk store failed for good and the proxy rolled the
    #: object back: nothing is cached under ``key`` (the caller may re-PUT).
    complete: bool = True


@dataclass(slots=True)
class GetResult:
    """Outcome of a GET as seen by the application."""

    key: str
    hit: bool
    size: int
    latency_s: float
    proxy_id: str
    value: Optional[bytes] = field(default=None, repr=False)
    decoded: bool = False
    chunks_lost: int = 0
    recovery_performed: bool = False
    hosts_touched: int = 0
    #: True when the proxy had a mapping for this key but more than ``p``
    #: chunks were lost to function reclamation — the condition that triggers
    #: a RESET (re-fetch from the backing store) in the paper's replay.
    data_lost: bool = False
    #: The object is still cached but fewer than ``data_shards`` chunks were
    #: reachable within the proxy's attempt budget; the caller serves this
    #: request from the backing store (a degraded hit, not an error) and
    #: leaves the stripe for the failure detector to heal.
    degraded: bool = False


class InfiniCacheClient:
    """Application-side client library for an InfiniCache deployment."""

    def __init__(
        self,
        proxies: list[Proxy],
        config: InfiniCacheConfig,
        clock: SimClock,
        client_id: str = "client-0",
        ring: Optional[ConsistentHashRing[Proxy]] = None,
    ):
        if not proxies:
            raise ConfigurationError("the client needs at least one proxy")
        self.config = config
        self.clock = clock
        self.client_id = client_id
        self.codec = ErasureCodec(config.data_shards, config.parity_shards)
        if ring is not None:
            # Copy-on-write fast path: the deployment hands every client a
            # clone of one prototype ring, sharing the sorted points until a
            # membership change rebuilds this client's own tuple.
            if set(ring.member_ids()) != {proxy.proxy_id for proxy in proxies}:
                raise ConfigurationError(
                    "prebuilt ring members do not match the proxy list"
                )
            self.ring = ring
        else:
            self.ring = ConsistentHashRing()
            self.ring.add_many([(proxy.proxy_id, proxy) for proxy in proxies])
        self.gets = 0
        self.puts = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ membership
    def add_proxy(self, proxy: Proxy) -> None:
        """Add a proxy to this client's consistent-hash ring (cluster join)."""
        self.ring.add(proxy.proxy_id, proxy)

    def remove_proxy(self, proxy_id: str) -> None:
        """Drop a proxy from this client's ring (cluster leave).

        Raises:
            ConfigurationError: if removing it would leave the ring empty.
        """
        if len(self.ring) <= 1:
            raise ConfigurationError("the client needs at least one proxy")
        self.ring.remove(proxy_id)

    # ------------------------------------------------------------------ helpers
    def _proxy_for(self, key: str) -> Proxy:
        if not key:
            raise ConfigurationError("object key must be non-empty")
        return self.ring.lookup(key)

    def _encode_time(self, size: int) -> float:
        return size / ENCODE_BANDWIDTH_BPS

    def _decode_time(self, descriptor: ObjectDescriptor) -> float:
        """Client-visible decode penalty when parity chunks were needed.

        Decoding is pipelined with the chunk streams (the paper's client
        decodes stripes as chunks arrive with AVX-accelerated RS), so by the
        time the d-th chunk lands only the final stripe — one chunk's worth
        of bytes — still has to run through the decoder.  Charging the whole
        object here would (wrongly) make RS(10+1) lose to RS(10+0) under
        the event-driven first-d race, where a parity chunk wins a slot in
        the fastest-d set on most requests.
        """
        return descriptor.chunk_size / DECODE_BANDWIDTH_BPS

    def hit_ratio(self) -> float:
        """Fraction of GETs served from the cache so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------ PUT
    def _prepare_put(
        self, key: str, size: int, value: Optional[bytes]
    ) -> tuple[Proxy, ObjectDescriptor, list[CacheChunk]]:
        """Validate a PUT, pick its proxy and cut the object into chunks.

        With ``value`` the chunks carry the Reed-Solomon coded bytes; without
        it they are size-only placeholders (trace-replay mode).
        """
        proxy = self._proxy_for(key)
        if size <= 0:
            raise ConfigurationError(f"object {key!r} must have a positive size, got {size}")
        descriptor = descriptor_for(
            key, size, self.config.data_shards, self.config.parity_shards
        )
        if value is None:
            chunks = [
                CacheChunk.sized(key, index, descriptor.chunk_size)
                for index in range(descriptor.total_chunks)
            ]
        else:
            chunks = [
                CacheChunk.from_erasure_chunk(chunk)
                for chunk in self.codec.encode(key, value)
            ]
        return proxy, descriptor, chunks

    def _put_result(
        self, key: str, size: int, latency_s: float, proxy: Proxy, outcome: ProxyPutResult
    ) -> PutResult:
        """Count a PUT the proxy kept and build the application's result."""
        if outcome.complete:
            self.puts += 1
        return PutResult(
            key=key,
            size=size,
            latency_s=latency_s,
            proxy_id=proxy.proxy_id,
            node_ids=outcome.node_ids,
            evicted_keys=outcome.evicted_keys,
            hosts_touched=outcome.hosts_touched,
            complete=outcome.complete,
        )

    def _put(self, key: str, size: int, value: Optional[bytes]) -> PutResult:
        proxy, descriptor, chunks = self._prepare_put(key, size, value)
        outcome = proxy.put(key, descriptor, chunks, self.clock.now)
        latency_s = self._encode_time(size) + outcome.latency_s
        return self._put_result(key, size, latency_s, proxy, outcome)

    def put(self, key: str, value: bytes) -> PutResult:
        """Erasure-code and insert a real object."""
        return self._put(key, len(value), value)

    def put_sized(self, key: str, size: int) -> PutResult:
        """Insert an object by size only (for large-scale trace replay)."""
        return self._put(key, size, None)

    # ------------------------------------------------------------------ GET
    def _get_result(self, key: str, proxy: Proxy, outcome: ProxyGetResult) -> GetResult:
        """Count a GET and build its result; the caller fills in the latency.

        A *degraded* outcome (mapping intact, chunks transiently unreachable)
        is a miss with nothing to decode: the caller falls back to the backing
        store without invalidating or re-inserting the object.
        """
        self.gets += 1
        descriptor = outcome.descriptor
        hit = outcome.recoverable and not outcome.degraded
        if hit:
            self.hits += 1
            value, decoded = self._reconstruct(descriptor, outcome)
        else:
            self.misses += 1
            value, decoded = None, False
        return GetResult(
            key=key,
            hit=hit,
            size=descriptor.object_size if descriptor else 0,
            latency_s=0.0,
            proxy_id=proxy.proxy_id,
            value=value,
            decoded=decoded,
            chunks_lost=outcome.chunks_lost,
            recovery_performed=outcome.recovery_performed,
            hosts_touched=outcome.hosts_touched if outcome.recoverable else 0,
            data_lost=outcome.found and not outcome.recoverable,
            degraded=outcome.degraded,
        )

    def get(self, key: str) -> GetResult:
        """Fetch an object; returns a miss result if it cannot be reconstructed."""
        proxy = self._proxy_for(key)
        outcome = proxy.get(key, self.clock.now)
        result = self._get_result(key, proxy, outcome)
        if result.hit:
            result.latency_s = outcome.latency_s
            if result.decoded:
                result.latency_s += self._decode_time(outcome.descriptor)
        return result

    # ------------------------------------------------------------------ event-driven path
    def _put_process(self, key: str, size: int, value: Optional[bytes], env, span):
        proxy, descriptor, chunks = self._prepare_put(key, size, value)
        tracer = env.tracer
        op_span = tracer.begin("client.put", span, client=self.client_id, key=key)
        start = env.now
        encode_s = self._encode_time(size)
        if encode_s > 0:
            encode_span = tracer.begin("client.encode", op_span, bytes=size)
            yield encode_s
            tracer.finish(encode_span)
        outcome = yield from proxy.put_process(key, descriptor, chunks, env, span=op_span)
        tracer.finish(op_span)
        return self._put_result(key, size, env.now - start, proxy, outcome)

    def put_process(self, key: str, value: bytes, env, span=None):
        """Event-driven PUT coroutine (see :meth:`put` for the facade).

        Encode time is spent on the virtual clock before the chunks are
        handed to the proxy, so a closed-loop client cannot issue its next
        request until the whole PUT — coding included — has finished.
        """
        return self._put_process(key, len(value), value, env, span)

    def put_sized_process(self, key: str, size: int, env, span=None):
        """Event-driven size-only PUT coroutine (trace-replay mode)."""
        return self._put_process(key, size, None, env, span)

    def get_process(self, key: str, env, span=None):
        """Event-driven GET coroutine: chunk fetches race on the event loop.

        Decode time (charged when parity chunks were needed) is likewise
        spent on the clock before the result is returned to the caller.
        """
        proxy = self._proxy_for(key)
        tracer = env.tracer
        op_span = tracer.begin("client.get", span, client=self.client_id, key=key)
        start = env.now
        outcome = yield from proxy.get_process(key, env, span=op_span)
        result = self._get_result(key, proxy, outcome)
        if result.decoded:
            decode_s = self._decode_time(outcome.descriptor)
            if decode_s > 0:
                decode_span = tracer.begin("client.decode", op_span,
                                           bytes=outcome.descriptor.chunk_size)
                yield decode_s
                tracer.finish(decode_span)
        result.latency_s = env.now - start
        outcome_attrs = (
            {"decoded": result.decoded} if result.hit
            else {"degraded": True} if result.degraded else {}
        )
        tracer.finish(op_span, hit=result.hit, **outcome_attrs)
        return result

    def _reconstruct(
        self, descriptor: ObjectDescriptor, outcome: ProxyGetResult
    ) -> tuple[Optional[bytes], bool]:
        """Rebuild the object bytes (when payloads are present) and report
        whether RS decoding was required."""
        used = outcome.used_chunks
        used_indices = {chunk.index for chunk in used}
        decoded = not all(i in used_indices for i in range(descriptor.data_shards))
        if any(chunk.payload is None for chunk in used):
            # Size-only mode: no bytes to return, but the decode cost is still
            # charged when parity chunks were needed.
            return None, decoded
        metadata = descriptor.stripe_metadata()
        erasure_chunks = [
            ErasureChunk(key=chunk.key, index=chunk.index, payload=chunk.payload,
                         metadata=metadata)
            for chunk in used
        ]
        return self.codec.decode(erasure_chunks), decoded

    # ------------------------------------------------------------------ invalidation
    def invalidate(self, key: str) -> bool:
        """Drop a cached object (called on overwrite, per the write-through model)."""
        return self._proxy_for(key).invalidate(key)

    def exists(self, key: str) -> bool:
        """Whether the responsible proxy still tracks this key."""
        return self._proxy_for(key).contains(key)

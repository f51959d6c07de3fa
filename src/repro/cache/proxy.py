"""The InfiniCache proxy.

Each proxy owns a pool of Lambda cache nodes and performs, per the paper's
Section 3.2:

* **Pool management** — CLOCK-based LRU eviction at *object* granularity
  when the pool runs out of memory; the chunk-to-node mapping table and the
  byte accounting live in the proxy's :class:`~repro.cache.ledger.PoolLedger`.
* **Parallel chunk I/O** — all chunks of a request are transferred
  concurrently; the contention model (per-VM-host NIC sharing plus the proxy
  uplink) determines each chunk's transfer time.
* **First-d streaming** — a GET completes as soon as the fastest ``d`` chunks
  have arrived; straggling chunks are abandoned, which is what keeps tail
  latency down for codes with parity.
* **Degraded-read recovery** — if some chunks were lost to reclamation but at
  least ``d`` survive, the lost ones are re-inserted onto fresh nodes
  (:func:`~repro.cache.ledger.repair_object`); if more than ``p`` are gone
  the object is lost and the caller must RESET it from the backing store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from repro.cache.chunk import CacheChunk, ObjectDescriptor
from repro.cache.clock_lru import ClockLRU
from repro.cache.config import InfiniCacheConfig, ResilienceConfig, StragglerModel
from repro.cache.connection import CircuitBreaker
from repro.cache.ledger import ObjectEntry, PoolLedger, repair_object
from repro.cache.namespacing import owner_of
from repro.cache.node import LambdaCacheNode
from repro.cache.runtime import RequestEnv
from repro.exceptions import CacheError, ObjectTooLargeError, TransientFaultError
from repro.faas.limits import HOST_NIC_BANDWIDTH
from repro.faas.platform import FaaSPlatform
from repro.network.transfer import BASE_LATENCY_S, TransferModel
from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import NULL_SPAN
from repro.sim.loop import Event, EventLoop
from repro.sim.process import Process, SimFuture, all_of
from repro.utils.rng import SeededRNG
from repro.utils.units import MILLISECOND

#: Chunk retry backoff: the n-th retry sleeps ``RETRY_BASE_BACKOFF_S *
#: RETRY_BACKOFF_MULTIPLIER ** (n - 1)``, stretched by a seeded-jitter factor
#: in ``[1, 1 + RETRY_JITTER_FRACTION]``.
RETRY_BASE_BACKOFF_S = 10 * MILLISECOND
RETRY_BACKOFF_MULTIPLIER = 2.0
RETRY_JITTER_FRACTION = 0.5
#: Busy time each node's keep-alive invocation is billed for.
WARMUP_SERVICE_S = 1 * MILLISECOND


@dataclass(slots=True)
class ChunkFetch:
    """Timing and provenance of one chunk transfer within a GET."""

    chunk_index: int
    node_id: str
    chunk: Optional[CacheChunk]
    time_s: float
    lost: bool
    #: Event-driven path only: the fetch was cancelled after the fastest
    #: ``d`` chunks completed (``time_s`` is then the partial transfer).
    abandoned: bool = False


@dataclass(slots=True)
class ProxyGetResult:
    """Outcome of a GET handled by one proxy."""

    key: str
    found: bool
    recoverable: bool
    descriptor: Optional[ObjectDescriptor]
    fetches: list[ChunkFetch] = field(default_factory=list)
    #: The fastest-d chunks actually used for reconstruction.
    used_chunks: list[CacheChunk] = field(default_factory=list)
    latency_s: float = 0.0
    chunks_lost: int = 0
    recovery_performed: bool = False
    hosts_touched: int = 0
    #: Event-driven path only: fewer than ``data_shards`` chunks were
    #: *reachable* within the attempt budget, but the mapping table still
    #: holds the object — the caller serves the request from the backing
    #: store (a degraded hit, not a miss) and the failure detector heals the
    #: stripe.
    degraded: bool = False


@dataclass
class ProxyPutResult:
    """Outcome of a PUT handled by one proxy."""

    key: str
    latency_s: float
    node_ids: list[str]
    evicted_keys: list[str] = field(default_factory=list)
    hosts_touched: int = 0
    #: Event-driven path only: ``False`` when at least one chunk store
    #: exhausted its attempts, in which case the partial object was rolled
    #: back out of the mapping table (the caller may re-try the PUT later).
    complete: bool = True


class _PairSettled(Exception):
    """Thrown into a chunk coroutine when its attempt's race is decided
    elsewhere: the hedge settled (``landed`` says whether it brought the
    chunk) or the hedge deadline passed with neither side in."""

    def __init__(self, landed: bool) -> None:
        super().__init__(landed)
        self.landed = landed


class _ChunkRace:
    """The deadline race of one deadline-bounded chunk, one attempt at a time.

    The chunk's own coroutine (:meth:`Proxy._chunk_process`) runs every
    attempt inline and :meth:`arm`\\ s its deadline as one plain loop event
    beside the attempt's preamble sleep.  An attempt that lands first calls
    :meth:`end`.  A deadline that fires first counts a hedge, spawns it — a
    bare one-attempt chunk process, the race's only child process — and
    arms the hedge deadline.  From then on whichever side settles first
    decides the pair: the original landing resumes the coroutine (which
    calls :meth:`end`); the hedge settling, or the hedge deadline passing,
    interrupts it with :class:`_PairSettled`.
    """

    __slots__ = ("proxy", "timeout_s", "spawn_hedge", "process", "deadline", "hedge")

    def __init__(self, proxy: "Proxy", timeout_s: float, spawn_hedge: Callable[[], object]):
        self.proxy = proxy
        self.timeout_s = timeout_s
        #: Builds the hedge's coroutine: the same chunk, one attempt, no race.
        self.spawn_hedge = spawn_hedge
        #: The chunk's process, set by whoever spawned it.
        self.process: Optional[Process] = None
        #: The pending deadline (first the attempt's, then the pair's).
        self.deadline: Optional[Event] = None
        self.hedge: Optional[Process] = None

    def arm(self, loop: EventLoop) -> None:
        """Arm the attempt's deadline, ``timeout_s`` from now."""
        self.deadline = loop.schedule(self.timeout_s, self._expire, "chunk.deadline")

    def end(self, flow) -> None:
        """Close the attempt's race at the current instant, in the order a
        cancelled pair always closed: the original's flow (if still moving),
        then the hedge (its ``finally`` bills it, then its flow goes), then
        the pending deadline."""
        hedge, self.hedge = self.hedge, None
        deadline, self.deadline = self.deadline, None
        if flow is not None:
            flow.cancel()
        if hedge is not None:
            hedge.cancel()
        if deadline is not None:
            deadline.cancel()

    def _expire(self) -> None:
        process = self.process
        self.proxy.metrics.counter("proxy.chunk_hedges").increment()
        loop = process.loop
        hedge = loop.spawn(self.spawn_hedge(), label=process.label + ":hedge")
        if hedge._done:
            # Refused by the breaker or faulted on invocation: the pair ends
            # with nothing at once, even though the original is still moving.
            self.deadline = None
            process.interrupt(_PairSettled(False))
            return
        self.hedge = hedge
        self.deadline = loop.schedule(self.timeout_s, self._expire_pair, "chunk.hedge_deadline")
        hedge.add_done_callback(self._hedge_settled)

    def _expire_pair(self) -> None:
        self.deadline = None
        self.process.interrupt(_PairSettled(False))

    def _hedge_settled(self, future: SimFuture) -> None:
        if self.hedge is not None:  # else :meth:`end` cancelled it
            self.process.interrupt(_PairSettled(bool(future._result)))


def _chunk_quorum(futures: Sequence[SimFuture], needed: int, label: str) -> SimFuture:
    """A future resolving with the first ``needed`` truthy results in
    completion order, or ``None`` as soon as that quorum becomes impossible.

    A chunk process that exhausts its attempts *resolves* (with ``None``)
    rather than cancelling, so counting resolutions alone would declare
    victory on failures.
    """
    quorum = SimFuture(label=label)
    winners: list[object] = []
    spare = len(futures) - needed  # failures the quorum can still absorb

    def on_done(future: SimFuture) -> None:
        nonlocal spare
        if quorum.done:
            return
        if future.result:
            winners.append(future.result)
            if len(winners) == needed:
                quorum.resolve(winners)
        else:
            spare -= 1
            if spare < 0:
                quorum.resolve(None)

    for future in futures:
        future.add_done_callback(on_done)
    return quorum


class Proxy:
    """One InfiniCache proxy and its Lambda node pool."""

    def __init__(
        self,
        proxy_id: str,
        config: InfiniCacheConfig,
        platform: FaaSPlatform,
        transfer_model: TransferModel,
        rng: SeededRNG,
        metrics: MetricRegistry | None = None,
    ):
        self.proxy_id = proxy_id
        self.config = config
        self.platform = platform
        self.transfer_model = transfer_model
        self.rng = rng
        self.metrics = metrics or MetricRegistry()
        #: Request-path supervision policy; unconfigured means one attempt
        #: per chunk, no deadline and no breaker.
        self.resilience = config.resilience or ResilienceConfig()
        #: Chaos-engine override of the configured straggler model during a
        #: straggler-inflation fault window; ``None`` outside windows.
        self.straggler_override: Optional[StragglerModel] = None
        #: Jitter stream for retry backoff and hedging.  Child derivation is
        #: hash-based (consumes nothing from the placement stream) and the
        #: stream itself is drawn from only when a retry actually fires, so a
        #: fault-free run's randomness is untouched.
        self._retry_rng = rng.child("retry")
        self.nodes: list[LambdaCacheNode] = []
        self.nodes_by_id: dict[str, LambdaCacheNode] = {}
        #: The mapping table and the pool's byte totals.
        self.ledger = PoolLedger(self.nodes)
        #: Monotonic node-name counter; decommissioned names are never reused
        #: because the platform's function registry is append-only.
        self._next_node_index = 0
        for _ in range(config.lambdas_per_proxy):
            self._create_node()
        self._lru: ClockLRU[int] = ClockLRU()
        #: GET + PUT requests handled so far (the autoscaler samples deltas).
        self.requests_served = 0
        platform.on_reclaim(self._handle_reclaim)

    def _create_node(self) -> LambdaCacheNode:
        node = LambdaCacheNode(
            node_id=f"{self.proxy_id}-lambda-{self._next_node_index:04d}",
            platform=self.platform,
            memory_bytes=self.config.lambda_memory_bytes,
        )
        if self.resilience.circuit_breaker:
            node.breaker = CircuitBreaker()
        self._next_node_index += 1
        self.nodes.append(node)
        self.nodes_by_id[node.node_id] = node
        self.ledger.attach(node)
        return node

    def __repr__(self) -> str:
        return f"Proxy({self.proxy_id}, nodes={len(self.nodes)}, objects={len(self.ledger.table)})"

    # ------------------------------------------------------------------ introspection
    @property
    def pool_size(self) -> int:
        """Number of Lambda nodes currently in the pool."""
        return len(self.nodes)

    @property
    def pool_capacity_bytes(self) -> int:
        """Total chunk capacity across the pool."""
        return sum(node.capacity_bytes for node in self.nodes)

    def memory_pressure(self) -> float:
        """Fraction of the pool's chunk capacity currently in use."""
        capacity = self.pool_capacity_bytes
        return self.pool_bytes_used() / capacity if capacity else 0.0

    def object_keys(self) -> list[str]:
        """Keys of every object this proxy currently tracks."""
        return list(self.ledger.table)

    def pool_bytes_used(self) -> int:
        """Bytes of chunk data currently stored across the pool."""
        return self.ledger.bytes_used

    def object_count(self) -> int:
        """Number of objects this proxy currently tracks."""
        return len(self.ledger.table)

    def contains(self, key: str) -> bool:
        """Whether the mapping table still has an entry for this key."""
        return key in self.ledger.table

    def node(self, node_id: str) -> LambdaCacheNode:
        """Look up a node by identifier."""
        node = self.nodes_by_id.get(node_id)
        if node is None:
            raise CacheError(f"proxy {self.proxy_id} has no node {node_id!r}")
        return node

    # ------------------------------------------------------------------ membership
    def _handle_reclaim(self, instance) -> None:
        # A node's function is registered under its ``node_id``.
        node = self.nodes_by_id.get(instance.function_name)
        if node is not None:
            node.on_instance_reclaimed(instance)

    def add_node(self) -> LambdaCacheNode:
        """Grow the pool by one freshly registered Lambda node."""
        node = self._create_node()
        self.metrics.counter("proxy.nodes_added").increment()
        return node

    # ------------------------------------------------------------------ placement
    def choose_placement(self, total_chunks: int) -> list[str]:
        """Pick ``total_chunks`` distinct nodes uniformly at random.

        Mirrors the client library's random non-repetitive IDλ vector; the
        proxy performs the draw because it owns the pool membership.
        """
        if total_chunks > len(self.nodes):
            raise ObjectTooLargeError(
                f"an object needs {total_chunks} distinct nodes but the pool has {len(self.nodes)}"
            )
        indices = self.rng.sample_without_replacement(len(self.nodes), total_chunks)
        return [self.nodes[i].node_id for i in indices]

    # ------------------------------------------------------------------ timing helpers
    def _chunk_transfer_time(
        self, chunk_size: int, node: LambdaCacheNode, flows_per_host: dict[str, int],
        concurrent_streams: int, now: float, category: str, tenant: Optional[str] = None,
    ) -> float:
        """Invocation overhead + contention-aware transfer time for one chunk."""
        access = node.ensure_active(now, category)
        host_id = node.primary.host_id if node.primary is not None else node.node_id
        timing = self.transfer_model.chunk_transfer_timing(
            chunk_bytes=chunk_size,
            function_bandwidth_bps=node.bandwidth_bps,
            host_capacity_bps=HOST_NIC_BANDWIDTH,
            host_id=host_id,
            flows_on_host=flows_per_host.get(host_id, 1),
            concurrent_request_streams=concurrent_streams,
        )
        transfer_s = timing.transfer_s * self._straggler_factor()
        node.record_service(now, timing.latency_s + transfer_s, category, tenant)
        return access.overhead_s + timing.latency_s + transfer_s

    def _straggler_factor(self) -> float:
        """One multiplicative straggler draw from the proxy's seeded stream."""
        straggler = self.straggler_override or self.config.straggler
        if straggler.probability > 0 and self.rng.random() < straggler.probability:
            return self.rng.uniform(straggler.min_factor, straggler.max_factor)
        return 1.0

    def _flows_per_host(self, nodes: list[Optional[LambdaCacheNode]]) -> dict[str, int]:
        """Chunk flows per host; a node that left the pool (``None``) has none."""
        flows: dict[str, int] = {}
        for node in nodes:
            if node is not None:
                host_id = node.primary.host_id if node.primary is not None else node.node_id
                flows[host_id] = flows.get(host_id, 0) + 1
        return flows

    def _hosts_touched(self, nodes: list[Optional[LambdaCacheNode]]) -> int:
        return len({node.primary.host_id for node in nodes
                    if node is not None and node.primary is not None})

    # ------------------------------------------------------------------ eviction
    def _evict_until_fits(self, needed_by_node: dict[str, int], total_needed: int) -> list[str]:
        """Evict whole objects (CLOCK order) until both the pool and every
        destination node have room for the incoming chunks."""
        evicted: list[str] = []
        capacity = self.pool_capacity_bytes
        while self.pool_bytes_used() + total_needed > capacity or any(
            self.node(node_id).free_bytes() < needed for node_id, needed in needed_by_node.items()
        ):
            victim = self._lru.evict()
            if victim is None:
                raise ObjectTooLargeError(
                    "cannot make room in the Lambda pool even after evicting every object"
                )
            victim_key, _size = victim
            self._remove_object(victim_key)
            evicted.append(victim_key)
            self.metrics.counter("proxy.evictions").increment()
        return evicted

    def _remove_object(self, key: str) -> None:
        entry = self.ledger.remove(key)
        if entry is None:
            return
        self._lru.remove(key)
        for chunk_index, node_id in entry.placement.items():
            node = self.nodes_by_id.get(node_id)
            if node is not None:
                node.delete_chunk(f"{key}#{chunk_index}")

    def invalidate(self, key: str) -> bool:
        """Drop an object from the cache (client-side invalidation on overwrite)."""
        existed = key in self.ledger.table
        self._remove_object(key)
        return existed

    # ------------------------------------------------------------------ PUT
    def _admit_put(
        self,
        key: str,
        descriptor: ObjectDescriptor,
        chunks: list[CacheChunk],
        placement: Optional[list[str]],
    ) -> tuple[list[str], list[LambdaCacheNode], list[str]]:
        """Validate a PUT, drop the previous version and evict until it fits.

        Returns the placement vector, its nodes, and the keys evicted.
        """
        if len(chunks) != descriptor.total_chunks:
            raise CacheError(
                f"object {key!r} descriptor expects {descriptor.total_chunks} chunks, "
                f"got {len(chunks)}"
            )
        if placement is None:
            placement = self.choose_placement(descriptor.total_chunks)
        if len(placement) != descriptor.total_chunks:
            raise CacheError("placement vector length does not match the chunk count")
        if len(set(placement)) != len(placement):
            raise CacheError("placement vector must name distinct nodes")
        # Overwrite: drop the previous version first (write-through semantics).
        self._remove_object(key)
        needed_by_node = {node_id: chunk.size for node_id, chunk in zip(placement, chunks)}
        evicted = self._evict_until_fits(needed_by_node, sum(needed_by_node.values()))
        return placement, [self.node(node_id) for node_id in placement], evicted

    def _commit_put(
        self, key: str, descriptor: ObjectDescriptor, chunks: list[CacheChunk], placement: list[str]
    ) -> None:
        """Record the object in the mapping table and the CLOCK ring."""
        self.ledger.insert(key, descriptor, {c.index: n for c, n in zip(chunks, placement)})
        self._lru.insert(key, descriptor.stored_bytes)

    def _put_result(
        self,
        key: str,
        latency_s: float,
        placement: list[str],
        target_nodes: list[LambdaCacheNode],
        evicted: list[str],
        category: str,
        complete: bool = True,
    ) -> ProxyPutResult:
        """Count a finished PUT; an incomplete one is rolled back first."""
        if not complete:
            # At least one chunk store exhausted its attempts: roll the
            # partial object back so a later GET is a clean miss rather than
            # a permanently degraded stripe.
            self._remove_object(key)
            self.metrics.counter("proxy.put_failures").increment()
        else:
            if category == "serving":
                # Maintenance traffic (rebalance migrations) must not pollute
                # the autoscaler's client-request-rate signal.
                self.requests_served += 1
                self.metrics.counter("proxy.puts").increment()
            else:
                self.metrics.counter(f"proxy.{category}_puts").increment()
            self.metrics.gauge("proxy.bytes_used").set(self.pool_bytes_used())
        return ProxyPutResult(
            key=key, latency_s=latency_s, node_ids=list(placement), evicted_keys=evicted,
            hosts_touched=self._hosts_touched(target_nodes), complete=complete,
        )

    def put(
        self,
        key: str,
        descriptor: ObjectDescriptor,
        chunks: list[CacheChunk],
        now: float,
        placement: Optional[list[str]] = None,
        category: str = "serving",
    ) -> ProxyPutResult:
        """Store an object's chunks on the pool and record the placement.

        The clock-free facade of :meth:`put_process`: the same admission,
        eviction and bookkeeping, with each chunk's transfer time computed
        analytically at ``now`` instead of streamed on the event loop.
        """
        placement, target_nodes, evicted = self._admit_put(key, descriptor, chunks, placement)
        flows = self._flows_per_host(target_nodes)
        owner = owner_of(key)
        latency = 0.0
        for chunk, node in zip(chunks, target_nodes):
            latency = max(latency, self._chunk_transfer_time(
                chunk.size, node, flows, len(chunks), now, category, owner
            ))
            node.store_chunk(chunk)
        self._commit_put(key, descriptor, chunks, placement)
        return self._put_result(key, latency, placement, target_nodes, evicted, category)

    def put_process(
        self,
        key: str,
        descriptor: ObjectDescriptor,
        chunks: list[CacheChunk],
        env: RequestEnv,
        placement: Optional[list[str]] = None,
        category: str = "serving",
        span=None,
    ):
        """Event-driven PUT coroutine: all chunk uploads stream concurrently.

        Chunks are reserved on their nodes at arrival (so racing requests
        cannot oversubscribe a node) and the coroutine completes when the
        slowest upload settles.  A chunk store that exhausts its attempts
        rolls the object back and flags the result ``complete=False``.
        """
        placement, target_nodes, evicted = self._admit_put(key, descriptor, chunks, placement)
        start = env.now
        tracer = env.tracer
        op_span = tracer.begin("proxy.put", span, proxy=self.proxy_id, key=key, category=category)
        owner = owner_of(key)
        tasks = []
        for chunk, node in zip(chunks, target_nodes):
            tasks.append(self._spawn_chunk(
                f"{self.proxy_id}:store:{key}#{chunk.index}",
                key, chunk, node, env, owner, category, op_span, store=True,
            ))
        self._commit_put(key, descriptor, chunks, placement)

        stored = yield all_of(tasks, label=f"{self.proxy_id}:put:{key}")
        complete = all(stored)
        if complete:
            tracer.finish(op_span)
        else:
            tracer.finish(op_span, outcome="failed")
        return self._put_result(
            key, env.now - start, placement, target_nodes, evicted, category, complete
        )

    # ------------------------------------------------------------------ GET
    def _locate_chunks(
        self, key: str
    ) -> Optional[tuple[ObjectEntry, list[ChunkFetch], list[Optional[LambdaCacheNode]]]]:
        """Look an object up and check which of its chunks are still there.

        Returns the mapping entry, one :class:`ChunkFetch` per stripe chunk in
        index order (``lost`` where the node or the chunk is gone) and the
        nodes they sit on — or ``None``, counted as a miss, for an unknown key.
        A placement on a node that has left the pool (a decommission that
        found no migration target keeps it) is a lost chunk with node
        ``None``: the read degrades and its repair re-places the chunk.
        """
        self.requests_served += 1
        entry = self.ledger.table.get(key)
        if entry is None:
            self.metrics.counter("proxy.misses").increment()
            return None
        self._lru.touch(key)
        fetches: list[ChunkFetch] = []
        nodes: list[Optional[LambdaCacheNode]] = []
        for chunk_index, node_id in sorted(entry.placement.items()):
            node = self.nodes_by_id.get(node_id)
            chunk = (
                node.fetch_chunk(f"{key}#{chunk_index}")
                if node is not None and node.is_alive else None
            )
            fetches.append(ChunkFetch(
                chunk_index=chunk_index, node_id=node_id, chunk=chunk,
                time_s=float("inf") if chunk is None else 0.0, lost=chunk is None,
            ))
            nodes.append(node)
        return entry, fetches, nodes

    def _get_result(
        self, key: str, entry: ObjectEntry, fetches: list[ChunkFetch], hosts_touched: int,
        winners: Optional[list[ChunkFetch]], latency_s: float, now: float, degraded: bool = False,
    ) -> ProxyGetResult:
        """Count a located GET and build its result.

        ``winners`` are the fastest-d fetches.  ``None`` means no quorum:
        the chunks were only transiently unreachable (``degraded``: the
        mapping stays for the failure detector to heal), or fewer than
        ``data_shards`` survive and the object is dropped (the caller RESETs).
        """
        lost_count = sum(fetch.lost for fetch in fetches)
        result = ProxyGetResult(
            key=key, found=True, recoverable=degraded or winners is not None,
            descriptor=entry.descriptor, fetches=fetches, latency_s=latency_s,
            chunks_lost=lost_count, hosts_touched=hosts_touched, degraded=degraded,
        )
        if degraded:
            return result
        if winners is None:
            self._remove_object(key)
            self.metrics.counter("proxy.object_losses").increment()
            self.metrics.counter("proxy.misses").increment()
            return result
        result.used_chunks = [fetch.chunk for fetch in winners]
        if lost_count > 0:
            self.metrics.counter("proxy.degraded_reads").increment()
            try:
                result.recovery_performed = repair_object(
                    self, key, entry, [fetch.chunk_index for fetch in fetches if fetch.lost], now
                )
            except TransientFaultError:
                # A repair node faulted mid-repair; the stripe keeps its
                # stale placement and the next audit sweep re-detects it.
                self.metrics.counter("proxy.repair_faults").increment()
        self.metrics.counter("proxy.hits").increment()
        return result

    def get(self, key: str, now: float) -> ProxyGetResult:
        """Fetch an object's chunks with first-d parallel streaming.

        The clock-free facade of :meth:`get_process`: the same lookup, loss
        handling and bookkeeping, with each chunk's transfer time computed
        analytically at ``now`` and the fastest ``d`` picked by sorting.
        """
        located = self._locate_chunks(key)
        if located is None:
            return ProxyGetResult(key=key, found=False, recoverable=False, descriptor=None)
        entry, fetches, nodes = located
        descriptor = entry.descriptor
        flows = self._flows_per_host(nodes)
        owner = owner_of(key)
        available = []
        for fetch, node in zip(fetches, nodes):
            if not fetch.lost:
                fetch.time_s = self._chunk_transfer_time(
                    fetch.chunk.size, node, flows, descriptor.total_chunks, now,
                    "serving", owner,
                )
                available.append(fetch)
        winners = None
        latency = 0.0
        if len(available) >= descriptor.data_shards:
            # First-d: the request completes when the fastest d chunks are in.
            available.sort(key=lambda fetch: fetch.time_s)
            winners = available[: descriptor.data_shards]
            latency = winners[-1].time_s
        return self._get_result(
            key, entry, fetches, self._hosts_touched(nodes), winners, latency, now
        )

    def get_process(self, key: str, env: RequestEnv, span=None):
        """Event-driven GET coroutine: the d-of-n chunk fetches genuinely race.

        Matches :meth:`get`, except that concurrent chunk flows share
        bandwidth while in flight, the stragglers behind the fastest
        ``data_shards`` are *abandoned* (billed for their partial transfer),
        and a request whose chunks are unreachable rather than gone degrades
        (backing-store fallback, mapping left intact).
        """
        start = env.now
        tracer = env.tracer
        op_span = tracer.begin("proxy.get", span, proxy=self.proxy_id, key=key)
        located = self._locate_chunks(key)
        if located is None:
            tracer.finish(op_span, outcome="miss")
            return ProxyGetResult(key=key, found=False, recoverable=False, descriptor=None)
        entry, fetches, nodes = located
        needed = entry.descriptor.data_shards
        hosts_touched = self._hosts_touched(nodes)
        pending = [(fetch, node) for fetch, node in zip(fetches, nodes) if not fetch.lost]
        winners = None
        degraded = False
        # With more than ``p`` chunks already gone no transfer is even
        # attempted: the mapping table already knows the object is lost.
        if len(pending) >= needed:
            owner = owner_of(key)
            # A loop, not a comprehension: one would turn the locals it reads
            # into closure cells held for the life of every in-flight GET.
            tasks = []
            for fetch, node in pending:
                tasks.append(self._spawn_chunk(
                    f"{self.proxy_id}:fetch:{key}#{fetch.chunk_index}",
                    key, fetch.chunk, node, env, owner, "serving", op_span, fetch=fetch,
                ))
            # First-d: the request completes when the fastest d chunks are in.
            winners = yield _chunk_quorum(tasks, needed, f"{self.proxy_id}:first_d:{key}")
            for (fetch, _node), task in zip(pending, tasks):
                if not task.done:
                    fetch.abandoned = True
                    task.cancel()
            if winners is None:
                # Fewer than d chunks reachable within the attempt budget.
                self.metrics.counter("proxy.degraded_fallbacks").increment()
                degraded = True
        result = self._get_result(
            key, entry, fetches, hosts_touched, winners, env.now - start, env.now,
            degraded,
        )
        if degraded:
            tracer.finish(op_span, outcome="degraded")
        elif winners is None:
            tracer.finish(op_span, outcome="lost")
        else:
            tracer.finish(op_span, outcome="hit", chunks_lost=result.chunks_lost)
        return result

    # ------------------------------------------------------------------ chunk supervision
    def _spawn_chunk(
        self, label: str, key: str, chunk: CacheChunk, node: LambdaCacheNode, env: RequestEnv,
        owner: Optional[str], category: str, span_parent,
        fetch: Optional[ChunkFetch] = None, store: bool = False,
    ) -> Process:
        """Spawn one chunk's coroutine under the configured budget: one
        process per chunk, plus a :class:`_ChunkRace` when a deadline is set."""
        timeout_s = self.resilience.chunk_timeout_s
        race = None
        if timeout_s is not None:
            race = _ChunkRace(self, timeout_s, partial(
                self._chunk_process, key, chunk, node, env, owner, category,
                span_parent, 1, None, None, store,
            ))
        task = env.loop.spawn(
            self._chunk_process(key, chunk, node, env, owner, category, span_parent,
                                self.resilience.chunk_attempts, race, fetch, store),
            label=label,
        )
        if race is not None:
            race.process = task
        return task

    def _chunk_process(
        self, key: str, chunk: CacheChunk, node: LambdaCacheNode, env: RequestEnv,
        owner: Optional[str], category: str, span_parent, attempts: int,
        race: Optional[_ChunkRace] = None, fetch: Optional[ChunkFetch] = None, store: bool = False,
    ):
        """Supervised coroutine moving one chunk between a node and this proxy.

        Every chunk of every event-driven request runs here.  An attempt
        passes the node's circuit breaker (when installed), invokes the node
        (opening its billed session), waits out the invocation overhead and
        network latency, then streams the bytes as a flow whose bandwidth
        share is recomputed as other flows come and go.  A transient failure
        (injected invocation fault, reclaimed mid-flight) fails the attempt
        instead of raising — an exception out of a spawned process would
        escape into the event loop's callback chain and abort the whole run.

        Up to ``attempts`` attempts are made, separated by an exponential
        backoff stretched by seeded jitter (drawn from the dedicated retry
        stream only when a retry actually fires).  With a ``race`` (a chunk
        deadline is configured) each attempt still runs here, inline, with
        its deadline armed as one loop event and a hedge spawned only if that
        deadline fires; :class:`_ChunkRace` describes how the pair is
        decided.  Resolves with ``fetch`` (``True`` for a store) once an
        attempt lands the chunk and ``None`` when the budget is exhausted;
        never raises a transient fault.  With one attempt, no deadline and
        no breaker — an unconfigured deployment — nothing here schedules an
        event or draws a number that the bare transfer would not.

        If the process is cancelled mid-flow (a straggler abandoned by the
        first-d quorum), the ``finally`` block still bills the partial
        transfer the Lambda actually performed.
        """
        tracer = env.tracer
        # Tracing off: skip the no-op tracer calls (and the keyword dicts they
        # would build) on this, the hottest request-path coroutine.
        tracing = tracer.enabled
        for attempt in range(attempts):
            if attempt > 0:
                self.metrics.counter("proxy.chunk_retries").increment()
                yield (
                    RETRY_BASE_BACKOFF_S
                    * RETRY_BACKOFF_MULTIPLIER ** (attempt - 1)
                    * (1.0 + RETRY_JITTER_FRACTION * self._retry_rng.random())
                )
            breaker = node.breaker
            if breaker is not None and not breaker.allow(env.now):
                self.metrics.counter("proxy.breaker_rejections").increment()
                continue
            effective_bytes = chunk.size * self._straggler_factor()
            arrival = env.now
            try:
                span = tracer.begin(
                    "chunk.store" if store else "chunk.fetch", span_parent,
                    chunk=chunk.index, node=node.node_id,
                ) if tracing else NULL_SPAN
                access = node.ensure_active(arrival, category)
                if store:
                    node.store_chunk(chunk)
                env.begin_transfer(node)
                env.watch_session(node)
                latency = BASE_LATENCY_S
                preamble = access.overhead_s + latency
                flow = None
                if race is not None:
                    # Scheduled next to the preamble sleep; the two never
                    # tie (the preamble is far shorter than any deadline).
                    race.arm(env.loop)
                try:
                    if preamble > 0:
                        invoke_span = tracer.begin(
                            "lambda.invoke", span, node=node.node_id, cold=access.cold_start,
                        ) if tracing else NULL_SPAN
                        try:
                            yield preamble
                        finally:
                            if tracing:
                                tracer.finish(invoke_span)
                    host_id = node.primary.host_id if node.primary is not None else node.node_id
                    flow = env.flows.transfer(
                        size_bytes=effective_bytes,
                        function_bandwidth_bps=node.bandwidth_bps,
                        host_id=host_id,
                        host_capacity_bps=HOST_NIC_BANDWIDTH,
                        proxy_id=self.proxy_id,
                        label=f"{self.proxy_id}:{category}:{key}#{chunk.index}",
                    )
                    if tracing:
                        flow.parent_span = span
                    yield flow
                finally:
                    # Runs on completion *and* on abandonment (generator
                    # close): the node is billed for the work it actually
                    # performed either way.  The busy interval is anchored
                    # to *end now* — anchoring it at arrival would let the
                    # billing window lapse mid-flight when the preamble
                    # includes a cold start.
                    if flow is not None:
                        service = latency + (env.now - flow.started_at)
                    else:
                        service = env.now - arrival
                    env.end_transfer(node)
                    node.record_service(env.now - service, service, category, owner)
                    env.watch_session(node)
                    if fetch is not None:
                        fetch.time_s = env.now - arrival
                        if tracing:
                            span.annotate(abandoned=fetch.abandoned)
                    if tracing:
                        tracer.finish(span)
            except TransientFaultError:
                if breaker is not None:
                    breaker.record_failure(env.now)
                self.metrics.counter("proxy.chunk_faults").increment()
                continue
            except _PairSettled as settled:
                # The hedge landed, faulted, or ran out its deadline: the
                # original is abandoned (billed above), then the pair closes.
                race.end(flow)
                if settled.landed:
                    return fetch or True
                continue
            except GeneratorExit:
                # Abandoned by the quorum: the original's flow goes before
                # the hedge, as the engine would release it.
                if race is not None:
                    race.end(flow)
                raise
            if breaker is not None:
                breaker.record_success(env.now)
            if race is not None:
                race.end(flow)
            return fetch or True
        return None

    # ------------------------------------------------------------------ maintenance hooks
    def warm_up_pool(self, now: float) -> None:
        """Invoke every node briefly so the provider keeps it warm.

        Each node's warm-up is charged back to the tenants whose bytes it is
        keeping warm, pro-rata by placed bytes; warming an empty node is
        unattributed (it lands in the cluster's own chargeback row).
        """
        tenant_bytes = self.ledger.tenant_bytes
        for node in self.nodes:
            node.ensure_active(now, "warmup")
            weights = tenant_bytes(node.node_id)
            attribution = {t: float(b) for t, b in weights} if weights else None
            node.record_service(now, WARMUP_SERVICE_S, "warmup", attribution)
        self.metrics.counter("proxy.warmups").increment()

    def finish_sessions(self) -> None:
        """Flush every node's open billing session (end of simulation)."""
        for node in self.nodes:
            node.finish_sessions()

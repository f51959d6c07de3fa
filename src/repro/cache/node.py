"""One Lambda cache node: the unit the proxy stores chunks on.

A node corresponds to one *named* Lambda function registered with the
platform.  At any moment it may have:

* a **primary** function instance — the warm container whose memory holds the
  node's chunk store and that serves requests; and
* a **backup peer** instance — a second replica of the same function created
  by the delta-sync backup protocol, holding the chunks as of the last sync.

When the provider reclaims the primary, the node fails over to the backup
peer (if it is still alive): chunks synced at the last backup survive, chunks
written since are lost.  When both are gone the node is empty — exactly the
data-loss model Section 4 of the paper analyses.

Timing and billing: each chunk request served by the node is recorded with
the :class:`~repro.cache.billed_duration.BilledDurationController`, which
opens an invocation when the node was not already active, extends the billing
window per the anticipatory policy, and bills the closed session through the
platform when the window ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cache.billed_duration import BilledDurationController, SessionCharge
from repro.cache.chunk import CacheChunk
from repro.cache.clock_lru import ClockLRU
from repro.cache.connection import CircuitBreaker
from repro.exceptions import CacheError
from repro.faas.function import FunctionInstance, FunctionState
from repro.faas.limits import bandwidth_for_memory, usable_cache_bytes
from repro.faas.platform import FaaSPlatform

if TYPE_CHECKING:
    from repro.cache.ledger import PoolLedger


@dataclass(frozen=True, slots=True)
class NodeAccess:
    """Timing details of one chunk operation on a node."""

    #: Seconds of invocation / preflight overhead paid before the transfer.
    overhead_s: float
    #: Whether the operation required a (cold or warm) function invocation.
    invoked: bool
    #: Whether the invocation was a cold start.
    cold_start: bool


#: The answer of every preflight on a running instance: one shared record,
#: not one per chunk held by each in-flight chunk coroutine.
_PREFLIGHT = NodeAccess(0.001, False, False)


class LambdaCacheNode:
    """A single erasure-chunk cache node backed by a simulated Lambda function."""

    def __init__(self, node_id: str, platform: FaaSPlatform, memory_bytes: int):
        self.node_id = node_id
        self.platform = platform
        self.memory_bytes = memory_bytes
        self.capacity_bytes = usable_cache_bytes(memory_bytes)
        self.bandwidth_bps = bandwidth_for_memory(memory_bytes)
        platform.register_function(node_id, memory_bytes)

        self.primary: Optional[FunctionInstance] = None
        self.backup_peer: Optional[FunctionInstance] = None
        self.duration_controller = BilledDurationController(on_close=self._bill_session)
        self._session_instance: Optional[FunctionInstance] = None
        #: Per-node circuit breaker, installed by the proxy when the
        #: deployment's :class:`~repro.cache.config.ResilienceConfig` asks for
        #: one; ``None`` means requests always flow (the default).
        self.breaker: Optional[CircuitBreaker] = None
        #: Chunks lost because the node had no alive replica when asked.
        self.chunks_lost = 0
        #: Number of failovers from the primary to the backup peer.
        self.failovers = 0
        #: Told whenever the primary's byte total moves; ``None`` outside a pool.
        self.ledger: Optional[PoolLedger] = None

    def __repr__(self) -> str:
        return f"LambdaCacheNode({self.node_id}, chunks={self.chunk_count()})"

    # ------------------------------------------------------------------ billing
    def _bill_session(self, charge: SessionCharge) -> None:
        instance = self._session_instance
        self._session_instance = None
        if instance is None:
            # The session's instance was reclaimed and already cleaned up;
            # the account is still billed for the duration that ran.
            self.platform.billing.charge_invocation(
                self.memory_bytes, charge.duration_s, charge.category, charge.busy_by_tenant
            )
            return
        self.platform.complete_invocation(
            instance, charge.duration_s, charge.category, charge.busy_by_tenant
        )

    # ------------------------------------------------------------------ state access
    def _state_of(self, instance: Optional[FunctionInstance]) -> Optional[dict]:
        if instance is None or not instance.is_alive:
            return None
        state = instance.runtime_state
        if "chunks" not in state:
            state["chunks"] = {}
            #: Running sum of ``chunk.size`` over ``chunks``, kept by the
            #: three mutation sites below; it lives in the replica's state so
            #: reclamation drops it and fail-over carries it with the chunks.
            state["bytes"] = 0
            state["clock"] = ClockLRU()
        return state

    @staticmethod
    def _put_chunk(state: dict, chunk: CacheChunk) -> None:
        """Insert or overwrite ``chunk`` in one replica's store."""
        # One id string shared by the chunk map and the CLOCK: ``chunk_id``
        # builds a fresh string per read, and a stored chunk keeps its key.
        chunk_id = chunk.chunk_id
        existing = state["chunks"].get(chunk_id)
        if existing is not None:
            state["bytes"] -= existing.size
        state["chunks"][chunk_id] = chunk
        state["bytes"] += chunk.size
        state["clock"].insert(chunk_id, chunk.size)

    def _primary_state(self) -> Optional[dict]:
        return self._state_of(self.primary)

    def _report_bytes(self) -> None:
        if self.ledger is not None:
            self.ledger.node_resized(self.node_id, self.bytes_used())

    @property
    def is_alive(self) -> bool:
        """Whether at least one replica of this node still holds state."""
        return (self.primary is not None and self.primary.is_alive) or (
            self.backup_peer is not None and self.backup_peer.is_alive
        )

    def chunk_count(self) -> int:
        """Number of chunks in the primary replica's store."""
        state = self._primary_state()
        return len(state["chunks"]) if state else 0

    def bytes_used(self) -> int:
        """Bytes of chunk payload held by the primary replica."""
        state = self._primary_state()
        return state["bytes"] if state else 0

    def free_bytes(self) -> int:
        """Remaining chunk capacity on this node."""
        return max(0, self.capacity_bytes - self.bytes_used())

    def chunk_ids(self) -> list[str]:
        """Identifiers of every chunk currently stored (MRU to LRU order)."""
        state = self._primary_state()
        if not state:
            return []
        return state["clock"].keys_mru_to_lru()

    # ------------------------------------------------------------------ activation
    def ensure_active(self, now: float, category: str = "serving") -> NodeAccess:
        """Make sure a replica is running and able to serve a request at ``now``.

        Returns the overhead the caller must add to the request latency:
        essentially nothing when the node is already inside an active billing
        window, a warm-invocation overhead (~13 ms) when it has to be woken,
        plus the cold-start penalty when no replica exists at all.
        """
        self.duration_controller.expire_if_due(now)
        if self.duration_controller.is_active(now) and self._session_instance is not None:
            # Preflight PING/PONG on the already-running instance.
            return _PREFLIGHT

        if (
            self._session_instance is not None
            and self._session_instance.is_alive
            and self._session_instance.state is FunctionState.RUNNING
        ):
            # Event-driven path: the instance is already mid-invocation
            # serving a concurrent request and its session has not been
            # opened yet (that happens when the first transfer completes);
            # piggyback on the running invocation instead of re-invoking.
            return _PREFLIGHT

        invoked_instance: FunctionInstance
        cold_start = False
        if self.primary is not None and self.primary.is_alive:
            result = self.platform.invoke_instance(self.primary)
            invoked_instance = result.instance
            overhead = result.invoke_overhead_s
        elif self.backup_peer is not None and self.backup_peer.is_alive:
            self._failover_to_backup()
            result = self.platform.invoke_instance(self.primary)
            invoked_instance = result.instance
            overhead = result.invoke_overhead_s
        else:
            result = self.platform.invoke(self.node_id)
            invoked_instance = result.instance
            overhead = result.invoke_overhead_s
            cold_start = result.cold_start
            self.primary = invoked_instance
            self._report_bytes()
        self._session_instance = invoked_instance
        return NodeAccess(overhead, True, cold_start)

    def record_service(
        self,
        now: float,
        service_time_s: float,
        category: str = "serving",
        attribution: dict[str, float] | str | None = None,
    ) -> None:
        """Account ``service_time_s`` of work starting at ``now`` on this node.

        ``attribution`` names the tenant (or per-tenant weights) the busy
        time is charged back to; the billed session splits its eventual bill
        over these weights.
        """
        self.duration_controller.record_request(now, service_time_s, category, attribution)

    # ------------------------------------------------------------------ chunk operations
    def store_chunk(self, chunk: CacheChunk) -> None:
        """Store a chunk in the primary replica's memory.

        Raises:
            CacheError: if no replica is alive or the node is out of memory
                (the proxy is responsible for evicting before storing).
        """
        state = self._primary_state()
        if state is None:
            raise CacheError(f"node {self.node_id} has no alive replica to store into")
        existing = state["chunks"].get(chunk.chunk_id)
        freed = existing.size if existing is not None else 0
        if state["bytes"] - freed + chunk.size > self.capacity_bytes:
            raise CacheError(
                f"node {self.node_id} is out of memory "
                f"({state['bytes']}/{self.capacity_bytes} bytes used, "
                f"cannot store {chunk.size} more)"
            )
        self._put_chunk(state, chunk)
        self._report_bytes()

    def fetch_chunk(self, chunk_id: str) -> Optional[CacheChunk]:
        """Return a chunk from the primary replica, or ``None`` if it is gone."""
        state = self._primary_state()
        if state is None:
            self.chunks_lost += 1
            return None
        chunk = state["chunks"].get(chunk_id)
        if chunk is None:
            self.chunks_lost += 1
            return None
        state["clock"].touch(chunk_id)
        return chunk

    def peek_chunk(self, chunk_id: str) -> Optional[CacheChunk]:
        """Read a chunk without touching the LRU clock or the loss counters.

        Maintenance paths (repair, export, drain) use this to inspect
        surviving stripe chunks without perturbing eviction order or the
        data-loss statistics the experiments report.
        """
        state = self._primary_state()
        if state is None:
            return None
        return state["chunks"].get(chunk_id)

    def has_chunk(self, chunk_id: str) -> bool:
        """Whether the primary replica currently holds this chunk."""
        state = self._primary_state()
        return state is not None and chunk_id in state["chunks"]

    def delete_chunk(self, chunk_id: str) -> int:
        """Delete a chunk from every alive replica; returns the bytes freed."""
        freed = 0
        for instance in (self.primary, self.backup_peer):
            state = self._state_of(instance)
            if state is None:
                continue
            chunk = state["chunks"].pop(chunk_id, None)
            if chunk is not None:
                state["bytes"] -= chunk.size
                state["clock"].remove(chunk_id)
                if instance is self.primary:
                    freed = chunk.size
        if freed:
            self._report_bytes()
        return freed

    # ------------------------------------------------------------------ replica management
    def _failover_to_backup(self) -> None:
        """Promote the backup peer to primary after the primary was reclaimed."""
        self.primary = self.backup_peer
        self.backup_peer = None
        self.failovers += 1
        self._report_bytes()

    def on_instance_reclaimed(self, instance: FunctionInstance) -> None:
        """Handle the provider reclaiming one of this node's replicas."""
        if self._session_instance is instance:
            self._session_instance = None
        if instance is self.primary:
            self.primary = None
            if self.backup_peer is not None and self.backup_peer.is_alive:
                self._failover_to_backup()
            self._report_bytes()
        elif instance is self.backup_peer:
            self.backup_peer = None

    # ------------------------------------------------------------------ backup support
    def unsynced_chunks(self) -> list[CacheChunk]:
        """Chunks present on the primary but not yet copied to the backup peer.

        This is the "delta" of the delta-sync protocol.  Ordered MRU-first so
        the hottest data is protected earliest, as in the paper.
        """
        state = self._primary_state()
        if state is None:
            return []
        backup_state = self._state_of(self.backup_peer)
        synced = set(backup_state["chunks"]) if backup_state else set()
        ordered_ids = state["clock"].keys_mru_to_lru()
        return [state["chunks"][cid] for cid in ordered_ids if cid not in synced]

    def apply_backup(self, peer: FunctionInstance, chunks: list[CacheChunk]) -> None:
        """Install the delta onto the backup peer replica after a sync."""
        self.backup_peer = peer
        state = self._state_of(peer)
        if state is None:
            raise CacheError(f"backup peer of node {self.node_id} is not alive")
        for chunk in chunks:
            self._put_chunk(state, chunk)

    def finish_sessions(self) -> None:
        """Close any open billing session (end of simulation)."""
        self.duration_controller.flush()

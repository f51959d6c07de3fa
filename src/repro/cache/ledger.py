"""The pool ledger: a proxy's mapping table and the byte totals kept with it.

:class:`PoolLedger` is the only writer of the mapping table (per object, its
descriptor and chunk-to-node placement) and updates, with every write:

* the **placed bytes per node per tenant** each node's warm-up is charged
  back to.  They follow the table, not node contents: a chunk lost to
  reclamation counts until a GET or an audit drops its object.  A node
  lists its tenants in the order of their first object in the table: every
  entry has an insertion sequence number, and a tenant sorts by its
  smallest one among its objects on that node;
* the **pool total**, the bytes on the primary replicas of the pool's
  nodes, which each node reports whenever its primary's total moves.

:meth:`PoolLedger.rescan` recomputes both from their sources.  The functions
below the class — draining, decommissioning, exporting and repairing —
change a proxy's pool through its ledger.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.cache.chunk import CacheChunk, ObjectDescriptor
from repro.cache.namespacing import owner_of
from repro.cache.node import LambdaCacheNode
from repro.erasure.codec import Chunk as ErasureChunk
from repro.erasure.codec import ErasureCodec
from repro.exceptions import CacheError, DecodingError, TransientFaultError

if TYPE_CHECKING:
    from repro.cache.proxy import Proxy


@dataclass(slots=True)
class ObjectEntry:
    """One mapping-table row: an object's stripe and where its chunks are."""

    descriptor: ObjectDescriptor
    #: chunk index -> node id
    placement: dict[int, str]
    #: Insertion sequence number: the entry's place in the table's order.
    seq: int


class PoolLedger:
    """One proxy's mapping table, its placed bytes per node per tenant, and
    the bytes its nodes' primary replicas hold."""

    def __init__(self, nodes: list[LambdaCacheNode]):
        #: The pool's nodes (the proxy's own list, read by :meth:`rescan`).
        self.nodes = nodes
        #: key -> entry, in insertion order.  Read freely; written only here.
        self.table: dict[str, ObjectEntry] = {}
        #: Bytes held by the primary replicas of the attached nodes.
        self.bytes_used = 0
        self._node_bytes: dict[str, int] = {}
        #: node id -> tenant -> [placed bytes, then the sorted sequence
        #: numbers of the tenant's objects placed on the node].
        self._placed: dict[str, dict[str, list]] = {}
        self._next_seq = 0

    # ------------------------------------------------------------------ pool total
    def attach(self, node: LambdaCacheNode) -> None:
        """Count a node that joined the pool; it reports its bytes from now on."""
        node.ledger = self
        self._node_bytes[node.node_id] = used = node.bytes_used()
        self.bytes_used += used

    def detach(self, node: LambdaCacheNode) -> None:
        """Stop counting a node that left the pool."""
        node.ledger = None
        self.bytes_used -= self._node_bytes.pop(node.node_id)

    def node_resized(self, node_id: str, used: int) -> None:
        """Take the new byte total of an attached node's primary replica."""
        self.bytes_used += used - self._node_bytes[node_id]
        self._node_bytes[node_id] = used

    # ------------------------------------------------------------------ mapping table
    def insert(self, key: str, descriptor: ObjectDescriptor, placement: dict[int, str]) -> None:
        """Record a new object (its key must not be in the table)."""
        entry = self.table[key] = ObjectEntry(descriptor, placement, self._next_seq)
        self._next_seq += 1
        owner = owner_of(key)
        for node_id in placement.values():
            self._hold(node_id, owner, entry)

    def remove(self, key: str) -> Optional[ObjectEntry]:
        """Drop an object from the table; returns its entry, if it had one."""
        entry = self.table.pop(key, None)
        if entry is not None:
            owner = owner_of(key)
            for node_id in entry.placement.values():
                self._release(node_id, owner, entry)
        return entry

    def place(self, key: str, entry: ObjectEntry, chunk_index: int, node_id: str) -> None:
        """Re-point one chunk of ``key``'s ``entry`` at ``node_id``.  An entry
        no longer in the table (dropped or replaced while a GET repairing it
        was in flight) changes alone."""
        if self.table.get(key) is entry:
            self._release(entry.placement[chunk_index], owner_of(key), entry)
            self._hold(node_id, owner_of(key), entry)
        entry.placement[chunk_index] = node_id

    def _hold(self, node_id: str, owner: str, entry: ObjectEntry) -> None:
        tenants = self._placed.setdefault(node_id, {})
        held = tenants.get(owner)
        if held is None:
            tenants[owner] = [entry.descriptor.chunk_size, entry.seq]
        else:
            held[0] += entry.descriptor.chunk_size
            insort(held, entry.seq, 1)

    def _release(self, node_id: str, owner: str, entry: ObjectEntry) -> None:
        tenants = self._placed[node_id]
        held = tenants[owner]
        if len(held) > 2:
            held[0] -= entry.descriptor.chunk_size
            del held[bisect_left(held, entry.seq, 1)]
        elif len(tenants) > 1:
            del tenants[owner]
        else:
            del self._placed[node_id]

    def tenant_bytes(self, node_id: str) -> list[tuple[str, int]]:
        """A node's placed bytes per tenant, in the order of each tenant's
        first object in the mapping table."""
        tenants = self._placed.get(node_id, {})
        order = sorted(tenants, key=lambda tenant: tenants[tenant][1])
        return [(tenant, tenants[tenant][0]) for tenant in order]

    # ------------------------------------------------------------------ the oracle
    def rescan(self) -> list[str]:
        """Every difference between the kept totals and a recomputation from
        their sources (the mapping table for the placed bytes, tenant order
        included; node contents for the pool total); empty when they agree."""
        placed: dict[str, dict[str, int]] = {}
        for key, entry in self.table.items():
            owner = owner_of(key)
            for node_id in entry.placement.values():
                per_tenant = placed.setdefault(node_id, {})
                per_tenant[owner] = per_tenant.get(owner, 0) + entry.descriptor.chunk_size
        differences = []
        for node_id in sorted(placed.keys() | self._placed.keys()):
            kept, scanned = self.tenant_bytes(node_id), list(placed.get(node_id, {}).items())
            if kept != scanned:
                differences.append(f"{node_id}: placed bytes {kept}, rescanned {scanned}")
        stored = {
            node.node_id: sum(node.peek_chunk(chunk_id).size for chunk_id in node.chunk_ids())
            for node in self.nodes
        }
        if self._node_bytes != stored or self.bytes_used != sum(stored.values()):
            differences.append(f"pool total {self.bytes_used} {self._node_bytes}, nodes {stored}")
        return differences


# ---------------------------------------------------------------------- membership
def drain_node(proxy: Proxy, node_id: str, now: float) -> tuple[int, int]:
    """Migrate every chunk off a node onto the rest of its proxy's pool,
    lost ones rebuilt as :func:`_rebuild_missing` does, billed to their
    owners under ``rebalance``.  Returns ``(moved, dropped)`` chunk counts: a
    chunk no other node has room for keeps its stale placement."""
    return _drain_chunks(proxy, proxy.node(node_id), now)


def decommission_node(proxy: Proxy, node_id: str, now: float) -> tuple[int, int]:
    """Drain a node, release its function instances, and shrink the pool."""
    if len(proxy.nodes) <= 1:
        raise CacheError(f"proxy {proxy.proxy_id} cannot drop its last node")
    node = proxy.node(node_id)
    proxy.nodes.remove(node)
    del proxy.nodes_by_id[node_id]
    proxy.ledger.detach(node)
    moved, dropped = _drain_chunks(proxy, node, now)
    for instance in (node.primary, node.backup_peer):
        if instance is not None and instance.is_alive:
            proxy.platform.reclaim_instance(instance)
    node.finish_sessions()
    proxy.metrics.counter("proxy.nodes_removed").increment()
    return moved, dropped


def _drain_chunks(proxy: Proxy, node: LambdaCacheNode, now: float) -> tuple[int, int]:
    moved = dropped = 0
    for key, entry in proxy.ledger.table.items():
        rebuilt: Optional[dict[int, CacheChunk]] = None
        for chunk_index, placed_on in list(entry.placement.items()):
            if placed_on != node.node_id:
                continue
            chunk_id = f"{key}#{chunk_index}"
            chunk = None
            if node.is_alive and node.has_chunk(chunk_id):
                chunk = node.fetch_chunk(chunk_id)
            if chunk is None:
                if rebuilt is None:
                    rebuilt = _rebuild_missing(key, entry, _surviving_chunks(proxy, key, entry))
                chunk = rebuilt[chunk_index]
            target = _migration_target(proxy, entry, chunk.size, exclude=node.node_id)
            if target is None:
                dropped += 1
                continue
            _store_and_place(proxy, key, entry, chunk, target, now, "rebalance")
            node.delete_chunk(chunk_id)
            moved += 1
    proxy.metrics.counter("proxy.chunks_drained").increment(moved)
    return moved, dropped


def _migration_target(
    proxy: Proxy, entry: ObjectEntry, chunk_size: int, exclude: str
) -> Optional[LambdaCacheNode]:
    """The emptiest alive node with room that holds no other chunk of the object."""
    occupied = set(entry.placement.values())
    candidates = [
        node for node in proxy.nodes
        if node.node_id != exclude and node.node_id not in occupied
        and node.is_alive and node.free_bytes() >= chunk_size
    ]
    return max(candidates, key=lambda node: (node.free_bytes(), node.node_id), default=None)


def _store_and_place(
    proxy: Proxy, key: str, entry: ObjectEntry, chunk: CacheChunk,
    target: LambdaCacheNode, now: float, category: str,
) -> None:
    """Copy one chunk onto ``target``, billed to its owner, and re-point it there."""
    target.ensure_active(now, category)
    target.record_service(now, chunk.size / target.bandwidth_bps, category, owner_of(key))
    target.store_chunk(chunk)
    proxy.ledger.place(key, entry, chunk.index, target.node_id)


# ---------------------------------------------------------------------- export / repair
def _surviving_chunks(proxy: Proxy, key: str, entry: ObjectEntry) -> dict[int, CacheChunk]:
    """Every stripe chunk whose bytes are still present, by index."""
    survivors: dict[int, CacheChunk] = {}
    for chunk_index, node_id in entry.placement.items():
        node = proxy.nodes_by_id.get(node_id)
        chunk = node.peek_chunk(f"{key}#{chunk_index}") if node is not None else None
        if chunk is not None:
            survivors[chunk_index] = chunk
    return survivors


def _rebuild_missing(
    key: str, entry: ObjectEntry, survivors: dict[int, CacheChunk]
) -> dict[int, CacheChunk]:
    """A replacement for every chunk not among ``survivors``, by index: its
    real payload EC-decoded when at least ``data_shards`` survivors carry
    one, else a size-only placeholder (the stripe is then nominally whole)."""
    descriptor = entry.descriptor
    missing = [index for index in range(descriptor.total_chunks) if index not in survivors]
    rebuilt = {index: CacheChunk.sized(key, index, descriptor.chunk_size) for index in missing}
    with_payload = [chunk for chunk in survivors.values() if chunk.payload is not None]
    if len(with_payload) >= descriptor.data_shards:
        metadata = descriptor.stripe_metadata()
        codec = ErasureCodec(descriptor.data_shards, descriptor.parity_shards)
        try:
            stripe = codec.rebuild_missing([
                ErasureChunk(key=key, index=chunk.index, payload=chunk.payload, metadata=metadata)
                for chunk in with_payload
            ])
        except DecodingError:
            return rebuilt
        rebuilt.update(
            (chunk.index, CacheChunk.from_erasure_chunk(chunk))
            for chunk in stripe if chunk.index in rebuilt
        )
    return rebuilt


def export_object(proxy: Proxy, key: str) -> Optional[tuple[ObjectDescriptor, list[CacheChunk]]]:
    """Read an object's descriptor and all its chunks for cross-proxy
    migration, lost ones rebuilt as :func:`_rebuild_missing` does."""
    entry = proxy.ledger.table.get(key)
    if entry is None:
        return None
    survivors = _surviving_chunks(proxy, key, entry)
    if len(survivors) < entry.descriptor.total_chunks:
        survivors.update(_rebuild_missing(key, entry, survivors))
    return entry.descriptor, [survivors[index] for index in range(entry.descriptor.total_chunks)]


def audit_and_repair(
    proxy: Proxy, now: float, on_loss: Optional[Callable[[str], None]] = None
) -> tuple[int, int]:
    """Repair the objects whose chunks were lost to reclamation, before the
    next degraded read finds them (the failure detector's sweep).

    Returns ``(repaired, lost)`` object counts.  An object with more than
    ``p`` chunks gone is dropped and reported through ``on_loss``.
    """
    table = proxy.ledger.table
    repaired = lost = 0
    for key in list(table):
        entry = table.get(key)
        if entry is None:  # dropped while an earlier repair cold-started a node
            continue
        missing = [
            chunk_index for chunk_index, node_id in sorted(entry.placement.items())
            if node_id not in proxy.nodes_by_id
            or not proxy.nodes_by_id[node_id].has_chunk(f"{key}#{chunk_index}")
        ]
        if not missing:
            continue
        if entry.descriptor.total_chunks - len(missing) < entry.descriptor.data_shards:
            proxy.invalidate(key)
            proxy.metrics.counter("proxy.object_losses").increment()
            lost += 1
            if on_loss is not None:
                on_loss(key)
            continue
        try:
            healed = repair_object(proxy, key, entry, missing, now, category="repair")
        except TransientFaultError:
            # A replacement failed to come up: the next sweep retries.
            proxy.metrics.counter("proxy.repair_faults").increment()
            continue
        if healed and key in table:
            repaired += 1
    return repaired, lost


def repair_object(
    proxy: Proxy, key: str, entry: ObjectEntry, lost: list[int], now: float,
    category: str = "serving",
) -> bool:
    """Re-insert an object's chunks at indices ``lost`` onto fresh nodes,
    rebuilt as :func:`_rebuild_missing` does and billed to the owner under
    ``category``.  Only a full repair returns ``True``: a partial one keeps
    stale placements for the next sweep, and a replacement that faults
    raises with the chunks placed so far re-pointed."""
    occupied = set(entry.placement.values())
    candidates = [node for node in proxy.nodes if node.node_id not in occupied]
    if len(candidates) < len(lost):
        return False
    indices = proxy.rng.sample_without_replacement(len(candidates), len(lost))
    rebuilt = _rebuild_missing(key, entry, _surviving_chunks(proxy, key, entry))
    placed = payload_repairs = 0
    for chunk_index, index in zip(lost, indices):
        replacement = candidates[index]
        # A GET's repair runs once its transfers are over: a chunk it found
        # lost may be back by then, and is re-stored size-only.
        chunk = rebuilt.get(chunk_index) or CacheChunk.sized(
            key, chunk_index, entry.descriptor.chunk_size
        )
        if replacement.free_bytes() < chunk.size:
            continue
        _store_and_place(proxy, key, entry, chunk, replacement, now, category)
        placed += 1
        payload_repairs += chunk.payload is not None
    if placed:
        proxy.metrics.counter("proxy.recoveries").increment()
        proxy.metrics.series("proxy.recovery_events").record(now, 1.0)
    if payload_repairs:
        proxy.metrics.counter("proxy.payload_repairs").increment(payload_repairs)
    return placed == len(lost)

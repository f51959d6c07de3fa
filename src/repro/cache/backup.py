"""Delta-sync backup protocol (paper Section 4.2, Figure 10).

Every ``T_bak`` a cache node backs itself up to a *peer replica* of its own
Lambda function.  The protocol in the paper runs through a relay process
co-located with the proxy because two Lambda instances cannot talk to each
other directly (no inbound connections); the observable effects are:

* a second instance (λ_d) of the node's function is invoked — reusing the
  previous backup peer when it is still warm, so only the *delta* (chunks
  written since the last sync) needs to be copied;
* both instances stay active for the duration of the sync, so the tenant is
  billed for two function durations plus the extra invocation;
* afterwards either replica can serve the node's data, which is what lets a
  node survive the reclamation of one of them.

:class:`BackupManager` drives the protocol for every node of a proxy and
keeps the counters the cost and fault-tolerance experiments read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.chunk import CacheChunk
from repro.cache.namespacing import owner_of
from repro.cache.node import LambdaCacheNode
from repro.cache.proxy import Proxy
from repro.exceptions import BackupError, BackupSyncInterruptedError, TransientFaultError
from repro.faas.platform import FaaSPlatform
from repro.obs.metrics import MetricRegistry
from repro.utils.units import MILLISECOND


@dataclass
class BackupReport:
    """Result of one node's backup round."""

    node_id: str
    performed: bool
    delta_chunks: int
    delta_bytes: int
    duration_s: float
    created_new_peer: bool


class BackupManager:
    """Runs the delta-sync protocol for the nodes of one proxy."""

    #: Control-plane overhead of one backup round: init message, relay launch,
    #: invoking the peer replica, establishing two connections through the
    #: relay, and streaming the chunk-key metadata MRU-to-LRU (steps 1-11 of
    #: Figure 10).  The paper's measured cost breakdown (Figure 13(c), where
    #: backup dominates the hourly cost at ~12 rounds/hour over 400 nodes)
    #: implies each round keeps a function busy for several billing cycles.
    PROTOCOL_OVERHEAD_S = 400 * MILLISECOND

    def __init__(
        self,
        proxy: Proxy,
        platform: FaaSPlatform,
        metrics: MetricRegistry | None = None,
    ):
        self.proxy = proxy
        self.platform = platform
        self.metrics = metrics or MetricRegistry()

    def _sync_duration(self, node: LambdaCacheNode, delta_bytes: int) -> float:
        """How long the delta transfer keeps both replicas busy.

        The transfer is bounded by the function's own bandwidth (both ends
        are instances of the same function configuration, and the relay on
        the proxy is not the bottleneck).
        """
        return self.PROTOCOL_OVERHEAD_S + delta_bytes / node.bandwidth_bps

    @staticmethod
    def _chargeback_weights(
        node: LambdaCacheNode, delta: list[CacheChunk]
    ) -> dict[str, float] | None:
        """Per-tenant byte weights for one backup round's bill.

        The round's busy time is dominated by the delta transfer, so the
        delta's bytes set the weights; a delta-free round (pure liveness
        check on the peer) is charged to whoever's chunks it keeps
        protected.  An empty node's round stays unattributed.
        """
        chunks: list[CacheChunk] = delta
        if not chunks:
            chunks = [
                chunk
                for chunk_id in node.chunk_ids()
                if (chunk := node.peek_chunk(chunk_id)) is not None
            ]
        if not chunks:
            return None
        weights: dict[str, float] = {}
        for chunk in chunks:
            owner = owner_of(chunk.key)
            weights[owner] = weights.get(owner, 0.0) + float(chunk.size)
        return weights

    def backup_node(self, node: LambdaCacheNode, now: float) -> BackupReport:
        """Run one backup round for a single node."""
        if node.primary is None or not node.primary.is_alive:
            # Nothing to protect; the node is empty until the next insert.
            return BackupReport(
                node_id=node.node_id, performed=False, delta_chunks=0,
                delta_bytes=0, duration_s=0.0, created_new_peer=False,
            )
        delta = node.unsynced_chunks()
        delta_bytes = sum(chunk.size for chunk in delta)

        created_new_peer = False
        try:
            if node.backup_peer is not None and node.backup_peer.is_alive:
                invocation = self.platform.invoke_instance(node.backup_peer)
            else:
                invocation = self.platform.invoke(node.node_id, force_new_instance=True)
                created_new_peer = True
        except TransientFaultError as exc:
            # The peer died (or an injected fault hit) mid-sync: surface the
            # interruption as retryable so the next backup round re-invokes a
            # fresh peer and re-sends the still-unsynced delta, instead of the
            # caller treating the protocol as broken.
            raise BackupSyncInterruptedError(node.node_id, str(exc)) from exc
        peer = invocation.instance
        if peer is node.primary:
            raise BackupError(
                f"backup of node {node.node_id} resolved to the primary instance itself"
            )

        duration = self._sync_duration(node, delta_bytes)
        attribution = self._chargeback_weights(node, delta)
        # The destination replica is billed through the normal invocation path…
        self.platform.complete_invocation(
            peer, duration, category="backup", attribution=attribution
        )
        # …and the source replica's extra active time is billed as well (the
        # paper notes warm-up invocations that trigger a backup run longer).
        self.platform.billing.charge_invocation(
            node.memory_bytes, duration, category="backup", attribution=attribution
        )

        node.apply_backup(peer, delta)

        self.metrics.counter("backup.rounds").increment()
        self.metrics.counter("backup.bytes").increment(delta_bytes)
        self.metrics.series("backup.events").record(now, float(len(delta)))
        return BackupReport(
            node_id=node.node_id,
            performed=True,
            delta_chunks=len(delta),
            delta_bytes=delta_bytes,
            duration_s=duration,
            created_new_peer=created_new_peer,
        )

    def backup_all(self, now: float) -> list[BackupReport]:
        """Run one backup round for every node in the proxy's pool.

        A node whose sync is interrupted by a retryable fault (its peer was
        reclaimed mid-round, an injected invocation fault) is skipped for
        this round — its delta stays unsynced and is retried on the next
        periodic tick — so one lost peer never aborts the whole sweep.
        """
        reports: list[BackupReport] = []
        for node in self.proxy.nodes:
            try:
                reports.append(self.backup_node(node, now))
            except BackupSyncInterruptedError:
                self.metrics.counter("backup.interrupted_rounds").increment()
                reports.append(BackupReport(
                    node_id=node.node_id, performed=False, delta_chunks=0,
                    delta_bytes=0, duration_s=0.0, created_new_peer=False,
                ))
        return reports

"""Placement rebalancing and failure detection for the cluster.

Two maintenance actors keep placements healthy as the cluster changes shape:

* :class:`Rebalancer` — subscribes to deployment membership events and moves
  objects so placement always matches the consistent-hash ring.  When a
  proxy **joins**, the keys the ring now assigns to it are migrated off
  their old owners; when a proxy **leaves**, everything it held is
  evacuated to the surviving owners.  It also fronts the node drain of
  :mod:`repro.cache.ledger` the autoscaler uses when shrinking a pool.
  Migrations export through the ledger, put through the proxy, and are
  billed under ``"rebalance"`` so experiments can price elasticity.
* :class:`FailureDetector` — a periodic sweep (driven by the shared
  simulator) that audits every proxy for chunks lost to function
  reclamation and repairs them proactively through the same EC-recovery
  path degraded reads use, instead of waiting for the next unlucky GET.

Both mirror the client rings with their own
:class:`~repro.cache.consistent_hash.ConsistentHashRing`, which is
deterministic, so the rebalancer's notion of ownership always agrees with
every client's.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.consistent_hash import ConsistentHashRing
from repro.cache.deployment import InfiniCacheDeployment
from repro.cache.ledger import audit_and_repair, decommission_node, drain_node, export_object
from repro.cache.proxy import Proxy
from repro.exceptions import CacheError, TransientFaultError
from repro.obs.metrics import MetricRegistry
from repro.sim import PeriodicTask
from repro.utils.units import MINUTE


class Rebalancer:
    """Keeps object placement consistent with ring membership."""

    def __init__(
        self,
        deployment: InfiniCacheDeployment,
        metrics: MetricRegistry | None = None,
        on_object_gone: Optional[Callable[[str], None]] = None,
    ):
        self.deployment = deployment
        self.metrics = metrics or deployment.metrics
        #: Called with each key that leaves the cache as a side effect of
        #: rebalancing (evicted on the destination, or dropped during an
        #: evacuation) so tenant byte accounting stays reconciled.
        self.on_object_gone = on_object_gone
        self.ring: ConsistentHashRing[Proxy] = ConsistentHashRing()
        for proxy in deployment.proxies:
            self.ring.add(proxy.proxy_id, proxy)
        deployment.on_membership_change(self._on_membership_change)

    def _report_gone(self, key: str) -> None:
        if self.on_object_gone is not None:
            self.on_object_gone(key)

    # ------------------------------------------------------------------ membership
    def _on_membership_change(self, event: str, proxy: Proxy) -> None:
        if event == "join":
            self.ring.add(proxy.proxy_id, proxy)
            self.rebalance_after_join(proxy)
        elif event == "leave":
            self.ring.remove(proxy.proxy_id)
            self.evacuate(proxy)

    def rebalance_after_join(self, new_proxy: Proxy) -> int:
        """Move the keys the ring now assigns to a freshly joined proxy.

        Returns the number of objects migrated.  Objects that cannot be
        placed on the new proxy stay where they are: clients will miss (the
        ring no longer points at the old owner) and re-insert on RESET.
        """
        now = self.deployment.simulator.now
        moved = 0
        for source in self.deployment.proxies:
            if source is new_proxy:
                continue
            for key in source.object_keys():
                if self.ring.lookup_id(key) != new_proxy.proxy_id:
                    continue
                if self._migrate(source, new_proxy, key, now):
                    moved += 1
        self.metrics.series("cluster.rebalance_events").record(now, float(moved))
        return moved

    def evacuate(self, leaving_proxy: Proxy) -> int:
        """Migrate everything off a proxy that left the ring.

        Objects the surviving owners cannot absorb are dropped (counted
        under ``cluster.rebalance.dropped``); clients RESET them from the
        backing store on the next access.
        """
        now = self.deployment.simulator.now
        moved = 0
        for key in leaving_proxy.object_keys():
            destination = self.ring.lookup(key)
            if self._migrate(leaving_proxy, destination, key, now):
                moved += 1
            else:
                leaving_proxy.invalidate(key)
                self._report_gone(key)
        self.metrics.series("cluster.rebalance_events").record(now, float(moved))
        return moved

    def _migrate(self, source: Proxy, destination: Proxy, key: str, now: float) -> bool:
        exported = export_object(source, key)
        if exported is None:
            return False
        descriptor, chunks = exported
        try:
            result = destination.put(key, descriptor, chunks, now, category="rebalance")
        except CacheError:
            # Destination pool cannot hold the stripe even after evicting.
            self.metrics.counter("cluster.rebalance.dropped").increment()
            return False
        for evicted in result.evicted_keys:
            self._report_gone(evicted)
        source.invalidate(key)
        self.metrics.counter("cluster.rebalance.migrated").increment()
        return True

    # ------------------------------------------------------------------ pool resize
    def drain_node(self, proxy: Proxy, node_id: str, now: float) -> tuple[int, int]:
        """Drain one node's chunks onto the rest of its proxy's pool."""
        moved, dropped = drain_node(proxy, node_id, now)
        self._record_drain(moved, dropped)
        return moved, dropped

    def decommission_node(self, proxy: Proxy, node_id: str, now: float) -> tuple[int, int]:
        """Drain a node and remove it from its proxy's pool (scale-down)."""
        moved, dropped = decommission_node(proxy, node_id, now)
        self._record_drain(moved, dropped)
        return moved, dropped

    def _record_drain(self, moved: int, dropped: int) -> None:
        self.metrics.counter("cluster.rebalance.chunks_moved").increment(moved)
        if dropped:
            self.metrics.counter("cluster.rebalance.chunks_dropped").increment(dropped)


class FailureDetector:
    """Periodic audit-and-repair sweep over every proxy's Lambda pool."""

    def __init__(
        self,
        deployment: InfiniCacheDeployment,
        interval_s: float = 1 * MINUTE,
        metrics: MetricRegistry | None = None,
        on_object_gone: Optional[Callable[[str], None]] = None,
    ):
        self.deployment = deployment
        self.interval_s = interval_s
        self.metrics = metrics or deployment.metrics
        #: Called with each key dropped as unrecoverable during a sweep.
        self.on_object_gone = on_object_gone
        self._task = PeriodicTask(
            deployment.simulator, interval_s, self.sweep_once,
            label="cluster.failure_detector",
        )
        #: Re-entrancy guard: a repair can cold-start replacement nodes,
        #: whose host placement can reclaim residents and fire arbitrary
        #: listeners — if one of those lands back here, the nested sweep is
        #: skipped rather than corrupting the outer sweep's iteration.
        self._sweeping = False

    def start(self) -> None:
        """Begin periodic sweeps on the deployment's simulator."""
        self._task.start()

    def stop(self) -> None:
        """Stop scheduling further sweeps."""
        self._task.stop()

    def sweep_once(self) -> tuple[int, int]:
        """Audit every proxy now; returns total ``(repaired, lost)`` objects.

        Robust to nodes lost *during* the sweep itself: a nested sweep
        (triggered through reclaim listeners while a repair cold-starts
        replacement nodes) is skipped, and a proxy whose audit dies on a
        transient fault is left for the next interval instead of aborting
        the remaining proxies.
        """
        if self._sweeping:
            self.metrics.counter("cluster.failure_detector.reentrant_skips").increment()
            return 0, 0
        self._sweeping = True
        try:
            now = self.deployment.simulator.now
            repaired_total = lost_total = 0
            dead_nodes = 0
            for proxy in list(self.deployment.proxies):
                dead_nodes += sum(1 for node in proxy.nodes if not node.is_alive)
                try:
                    repaired, lost = audit_and_repair(
                        proxy, now, on_loss=self.on_object_gone
                    )
                except TransientFaultError:
                    self.metrics.counter(
                        "cluster.failure_detector.aborted_audits"
                    ).increment()
                    continue
                repaired_total += repaired
                lost_total += lost
            self.metrics.counter("cluster.failure_detector.repairs").increment(repaired_total)
            self.metrics.counter("cluster.failure_detector.losses").increment(lost_total)
            self.metrics.series("cluster.dead_nodes").record(now, float(dead_nodes))
            return repaired_total, lost_total
        finally:
            self._sweeping = False

"""Tests for the Lambda cache node (replicas, failover, chunk store)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.chunk import CacheChunk, descriptor_for
from repro.cache.config import InfiniCacheConfig
from repro.cache.deployment import InfiniCacheDeployment
from repro.cache.ledger import audit_and_repair, decommission_node, drain_node
from repro.cache.node import LambdaCacheNode
from repro.exceptions import CacheError
from repro.faas.limits import WARM_INVOCATION_OVERHEAD
from repro.faas.platform import FaaSPlatform
from repro.sim import EventLoop
from repro.utils.units import MIB


@pytest.fixture
def platform() -> FaaSPlatform:
    return FaaSPlatform(EventLoop())


@pytest.fixture
def node(platform) -> LambdaCacheNode:
    return LambdaCacheNode("node-0", platform, 1536 * MIB)


def chunk(key: str = "obj", index: int = 0, size: int = 1000) -> CacheChunk:
    return CacheChunk.sized(key, index, size)


class TestActivation:
    def test_first_access_is_cold_start(self, node):
        access = node.ensure_active(0.0)
        assert access.invoked is True
        assert access.cold_start is True
        assert node.primary is not None

    def test_access_within_window_needs_no_invocation(self, node):
        node.ensure_active(0.0)
        node.record_service(0.0, 0.01)
        access = node.ensure_active(0.02)
        assert access.invoked is False
        assert access.overhead_s < 0.005

    def test_access_after_window_is_warm_invoke(self, node, platform):
        node.ensure_active(0.0)
        node.record_service(0.0, 0.01)
        access = node.ensure_active(100.0)
        assert access.invoked is True
        assert access.cold_start is False
        assert access.overhead_s == pytest.approx(WARM_INVOCATION_OVERHEAD)

    def test_sessions_are_billed_on_expiry(self, node, platform):
        node.ensure_active(0.0)
        node.record_service(0.0, 0.01)
        node.ensure_active(10.0)   # expires the first session and bills it
        node.record_service(10.0, 0.01)
        node.finish_sessions()
        assert platform.billing.total_invocations == 2
        assert platform.billing.total_cost > 0


class TestChunkStore:
    def test_store_and_fetch(self, node):
        node.ensure_active(0.0)
        stored = chunk()
        node.store_chunk(stored)
        assert node.has_chunk("obj#0")
        assert node.fetch_chunk("obj#0") is stored
        assert node.chunk_count() == 1
        assert node.bytes_used() == 1000

    def test_fetch_missing_counts_loss(self, node):
        node.ensure_active(0.0)
        assert node.fetch_chunk("ghost#0") is None
        assert node.chunks_lost == 1

    def test_store_without_replica_rejected(self, node):
        with pytest.raises(CacheError):
            node.store_chunk(chunk())

    def test_overwrite_replaces_bytes(self, node):
        node.ensure_active(0.0)
        node.store_chunk(chunk(size=1000))
        node.store_chunk(CacheChunk.sized("obj", 0, 500))
        assert node.bytes_used() == 500
        assert node.chunk_count() == 1

    def test_capacity_enforced(self, node):
        node.ensure_active(0.0)
        big = CacheChunk.sized("huge", 0, node.capacity_bytes)
        node.store_chunk(big)
        with pytest.raises(CacheError):
            node.store_chunk(CacheChunk.sized("more", 0, 1))

    def test_delete_chunk_frees_bytes(self, node):
        node.ensure_active(0.0)
        node.store_chunk(chunk())
        assert node.delete_chunk("obj#0") == 1000
        assert node.bytes_used() == 0
        assert node.delete_chunk("obj#0") == 0

    def test_chunk_ids_mru_first(self, node):
        node.ensure_active(0.0)
        node.store_chunk(chunk("a", 0))
        node.store_chunk(chunk("b", 0))
        node.store_chunk(chunk("c", 0))
        ids = node.chunk_ids()
        assert set(ids) == {"a#0", "b#0", "c#0"}

    def test_free_bytes(self, node):
        node.ensure_active(0.0)
        before = node.free_bytes()
        node.store_chunk(chunk(size=5000))
        assert node.free_bytes() == before - 5000


class TestReclamationAndFailover:
    def test_reclaim_without_backup_loses_data(self, node, platform):
        node.ensure_active(0.0)
        node.store_chunk(chunk())
        platform.reclaim_instance(node.primary)
        node.on_instance_reclaimed(platform.alive_instances("node-0")[0]
                                   if platform.alive_instances("node-0") else node.primary)
        # The listener in the deployment normally passes the reclaimed
        # instance; simulate that directly:
        assert node.fetch_chunk("obj#0") is None or not node.is_alive

    def test_failover_to_backup_preserves_synced_chunks(self, node, platform):
        node.ensure_active(0.0)
        synced = chunk("synced", 0)
        node.store_chunk(synced)
        # Simulate a backup: create a peer replica and copy the delta.
        peer = platform.invoke("node-0", force_new_instance=True).instance
        platform.complete_invocation(peer, 0.1, "backup")
        node.apply_backup(peer, node.unsynced_chunks())
        # New chunk written after the sync lives only on the primary.
        unsynced = chunk("unsynced", 0)
        node.store_chunk(unsynced)
        primary = node.primary
        platform.reclaim_instance(primary)
        node.on_instance_reclaimed(primary)
        assert node.failovers == 1
        assert node.primary is peer
        assert node.has_chunk("synced#0")
        assert not node.has_chunk("unsynced#0")

    def test_losing_both_replicas_loses_everything(self, node, platform):
        node.ensure_active(0.0)
        node.store_chunk(chunk())
        peer = platform.invoke("node-0", force_new_instance=True).instance
        platform.complete_invocation(peer, 0.1, "backup")
        node.apply_backup(peer, node.unsynced_chunks())
        for instance in list(platform.alive_instances("node-0")):
            platform.reclaim_instance(instance)
            node.on_instance_reclaimed(instance)
        assert not node.is_alive
        assert node.fetch_chunk("obj#0") is None

    def test_backup_peer_reclaim_keeps_primary(self, node, platform):
        node.ensure_active(0.0)
        node.store_chunk(chunk())
        peer = platform.invoke("node-0", force_new_instance=True).instance
        platform.complete_invocation(peer, 0.1, "backup")
        node.apply_backup(peer, node.unsynced_chunks())
        platform.reclaim_instance(peer)
        node.on_instance_reclaimed(peer)
        assert node.backup_peer is None
        assert node.has_chunk("obj#0")
        assert node.failovers == 0

    def test_reactivation_after_total_loss_cold_starts(self, node, platform):
        node.ensure_active(0.0)
        primary = node.primary
        platform.reclaim_instance(primary)
        node.on_instance_reclaimed(primary)
        access = node.ensure_active(100.0)
        assert access.cold_start is True
        assert node.is_alive


class TestBackupDelta:
    def test_unsynced_chunks_initially_everything(self, node):
        node.ensure_active(0.0)
        node.store_chunk(chunk("a", 0))
        node.store_chunk(chunk("b", 0))
        assert {c.chunk_id for c in node.unsynced_chunks()} == {"a#0", "b#0"}

    def test_unsynced_chunks_excludes_already_synced(self, node, platform):
        node.ensure_active(0.0)
        node.store_chunk(chunk("a", 0))
        peer = platform.invoke("node-0", force_new_instance=True).instance
        platform.complete_invocation(peer, 0.1, "backup")
        node.apply_backup(peer, node.unsynced_chunks())
        node.store_chunk(chunk("b", 0))
        delta = node.unsynced_chunks()
        assert [c.chunk_id for c in delta] == ["b#0"]

    def test_unsynced_empty_without_primary(self, node):
        assert node.unsynced_chunks() == []

    def test_apply_backup_to_dead_peer_rejected(self, node, platform):
        node.ensure_active(0.0)
        peer = platform.invoke("node-0", force_new_instance=True).instance
        platform.complete_invocation(peer, 0.1, "backup")
        platform.reclaim_instance(peer)
        with pytest.raises(CacheError):
            node.apply_backup(peer, [])


class TestRunningByteTotal:
    """``bytes_used()`` is a running total kept in the replica's state; it
    must equal a fresh sum over the chunk store after any mutation, on the
    primary and on the backup peer, through reclamation and fail-over.  The
    proxy's ledger must equal its rescan after every step, through the
    proxy-level steps too: put, invalidate, drain, decommission, repair."""

    #: Namespaced, so the nodes hold several tenants' objects.
    KEYS = ("A::v", "B::w", "A::x", "C::y", "B::z")

    OPERATIONS = st.one_of(
        st.tuples(
            st.just("store"), st.integers(0, 1),
            st.sampled_from("abcde"), st.integers(1, 50_000),
        ),
        st.tuples(st.just("delete"), st.integers(0, 1), st.sampled_from("abcde")),
        st.tuples(st.just("backup"), st.integers(0, 1)),
        st.tuples(st.just("reclaim_primary"), st.integers(0, 1)),
        st.tuples(st.just("reclaim_backup"), st.integers(0, 1)),
        st.tuples(st.just("put"), st.integers(0, 1), st.sampled_from(KEYS),
                  st.integers(1, 400_000)),
        st.tuples(st.just("invalidate"), st.integers(0, 1), st.sampled_from(KEYS)),
        st.tuples(st.just("drain"), st.integers(0, 1)),
        st.tuples(st.just("decommission"), st.integers(0, 1)),
        st.tuples(st.just("repair"), st.integers(0, 1)),
    )

    @staticmethod
    def _fresh_sum(node: LambdaCacheNode) -> int:
        return sum(node.peek_chunk(chunk_id).size for chunk_id in node.chunk_ids())

    @settings(max_examples=60, deadline=None)
    @given(operations=st.lists(OPERATIONS, max_size=60))
    def test_matches_a_fresh_sum_after_every_step(self, operations):
        deployment = InfiniCacheDeployment(
            InfiniCacheConfig(
                num_proxies=1, lambdas_per_proxy=8, data_shards=4, parity_shards=2, seed=1
            )
        )
        platform = deployment.platform
        (proxy,) = deployment.proxies
        (backups,) = deployment.backup_managers
        failovers = 0
        retired = []
        for step, (operation, index, *args) in enumerate(operations):
            node = proxy.nodes[index]
            now = 10.0 * step  # past every billing window: sessions close
            if operation == "store":
                key, size = args
                node.ensure_active(now)
                node.record_service(now, 0.001)
                node.store_chunk(CacheChunk.sized(key, 0, size))
            elif operation == "delete":
                node.delete_chunk(f"{args[0]}#0")
            elif operation == "backup":
                node.duration_controller.expire_if_due(now)
                backups.backup_node(node, now)
            elif operation == "reclaim_primary" and node.primary is not None:
                failovers += node.backup_peer is not None
                platform.reclaim_instance(node.primary)
            elif operation == "reclaim_backup" and node.backup_peer is not None:
                platform.reclaim_instance(node.backup_peer)
            elif operation == "put":
                key, size = args
                descriptor = descriptor_for(key, size, 4, 2)
                chunks = [CacheChunk.sized(key, i, descriptor.chunk_size) for i in range(6)]
                proxy.put(key, descriptor, chunks, now)
            elif operation == "invalidate":
                proxy.invalidate(args[0])
            elif operation == "drain":
                drain_node(proxy, node.node_id, now)
            elif operation == "decommission" and len(proxy.nodes) > 6:
                decommission_node(proxy, node.node_id, now)
                retired.append(node)
            elif operation == "repair":
                audit_and_repair(proxy, now)
            for checked in proxy.nodes[:2]:
                assert checked.bytes_used() == self._fresh_sum(checked)
                for replica in (checked.primary, checked.backup_peer):
                    state = checked._state_of(replica)
                    if state is not None:
                        assert state["bytes"] == sum(
                            chunk.size for chunk in state["chunks"].values()
                        )
            assert proxy.pool_bytes_used() == sum(
                self._fresh_sum(checked) for checked in proxy.nodes
            )
            assert proxy.ledger.rescan() == []
        assert sum(node.failovers for node in proxy.nodes + retired) == failovers

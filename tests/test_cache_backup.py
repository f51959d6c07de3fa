"""Tests for the delta-sync backup protocol."""

import pytest

from repro.cache.backup import BackupManager
from repro.cache.chunk import CacheChunk
from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.proxy import Proxy
from repro.faas.platform import FaaSPlatform
from repro.network.transfer import TransferModel
from repro.obs.metrics import MetricRegistry
from repro.sim import EventLoop
from repro.utils.rng import SeededRNG
from repro.utils.units import MIB


@pytest.fixture
def setup():
    config = InfiniCacheConfig(
        lambdas_per_proxy=8,
        lambda_memory_bytes=1536 * MIB,
        data_shards=4,
        parity_shards=2,
        straggler=StragglerModel(probability=0.0),
        seed=5,
    )
    platform = FaaSPlatform(EventLoop())
    proxy = Proxy("proxy-0", config, platform, TransferModel(), SeededRNG(5))
    manager = BackupManager(proxy, platform, MetricRegistry())
    return platform, proxy, manager


class TestBackupNode:
    def test_empty_node_skipped(self, setup):
        platform, proxy, manager = setup
        report = manager.backup_node(proxy.nodes[0], now=0.0)
        assert report.performed is False
        assert report.delta_chunks == 0

    def test_first_backup_copies_everything(self, setup):
        platform, proxy, manager = setup
        node = proxy.nodes[0]
        node.ensure_active(0.0)
        node.store_chunk(CacheChunk.sized("a", 0, 1_000_000))
        node.store_chunk(CacheChunk.sized("b", 0, 2_000_000))
        report = manager.backup_node(node, now=10.0)
        assert report.performed is True
        assert report.delta_chunks == 2
        assert report.delta_bytes == 3_000_000
        assert report.created_new_peer is True
        assert node.backup_peer is not None
        assert node.backup_peer is not node.primary

    def test_second_backup_transfers_only_delta(self, setup):
        platform, proxy, manager = setup
        node = proxy.nodes[0]
        node.ensure_active(0.0)
        node.store_chunk(CacheChunk.sized("a", 0, 1_000_000))
        manager.backup_node(node, now=10.0)
        node.store_chunk(CacheChunk.sized("b", 0, 500_000))
        report = manager.backup_node(node, now=20.0)
        assert report.delta_chunks == 1
        assert report.delta_bytes == 500_000
        assert report.created_new_peer is False

    def test_backup_duration_scales_with_delta(self, setup):
        platform, proxy, manager = setup
        small_node, big_node = proxy.nodes[0], proxy.nodes[1]
        small_node.ensure_active(0.0)
        small_node.store_chunk(CacheChunk.sized("s", 0, 100_000))
        big_node.ensure_active(0.0)
        big_node.store_chunk(CacheChunk.sized("b", 0, 100_000_000))
        small = manager.backup_node(small_node, now=1.0)
        big = manager.backup_node(big_node, now=1.0)
        assert big.duration_s > small.duration_s

    def test_backup_billed_in_backup_category(self, setup):
        platform, proxy, manager = setup
        node = proxy.nodes[0]
        node.ensure_active(0.0)
        node.store_chunk(CacheChunk.sized("a", 0, 1_000_000))
        manager.backup_node(node, now=10.0)
        assert platform.billing.cost_by_category.get("backup", 0.0) > 0

    def test_backup_all_covers_pool(self, setup):
        platform, proxy, manager = setup
        for index, node in enumerate(proxy.nodes):
            node.ensure_active(0.0)
            node.store_chunk(CacheChunk.sized(f"k{index}", 0, 10_000))
        reports = manager.backup_all(now=5.0)
        assert len(reports) == len(proxy.nodes)
        assert all(report.performed for report in reports)

    def test_failover_after_backup_preserves_data(self, setup):
        """The end-to-end purpose of the protocol: data survives the primary's
        reclamation once a sync has happened."""
        platform, proxy, manager = setup
        node = proxy.nodes[0]
        node.ensure_active(0.0)
        node.store_chunk(CacheChunk.sized("precious", 0, 1_000_000))
        manager.backup_node(node, now=10.0)
        platform.reclaim_instance(node.primary)
        assert node.is_alive
        assert node.has_chunk("precious#0")

    def test_peer_reclaimed_then_new_backup_recreates_peer(self, setup):
        platform, proxy, manager = setup
        node = proxy.nodes[0]
        node.ensure_active(0.0)
        node.store_chunk(CacheChunk.sized("a", 0, 1_000_000))
        first = manager.backup_node(node, now=10.0)
        platform.reclaim_instance(node.backup_peer)
        second = manager.backup_node(node, now=20.0)
        assert second.created_new_peer is True
        assert node.backup_peer is not None
        assert node.backup_peer.is_alive
        assert second.delta_chunks == first.delta_chunks


class TestBackupChargeback:
    def test_backup_cost_attributed_to_chunk_owners(self, setup):
        platform, proxy, manager = setup
        node = proxy.nodes[0]
        node.ensure_active(0.0)
        node.store_chunk(CacheChunk.sized("media::video", 0, 4_000_000))
        node.store_chunk(CacheChunk.sized("api::item", 0, 1_000_000))
        manager.backup_node(node, now=10.0)
        billing = platform.billing
        # Backup dollars land on the tenants whose chunks were synced —
        # split 4:1 by delta bytes across both replicas' charges.
        assert billing.cost_by_tenant["media"] > billing.cost_by_tenant["api"] > 0
        assert billing.cost_by_tenant["media"] == pytest.approx(
            0.8 * billing.total_cost
        )
        assert sum(billing.cost_by_tenant.values()) == pytest.approx(
            billing.total_cost
        )

    def test_delta_free_backup_charged_to_protected_tenants(self, setup):
        platform, proxy, manager = setup
        node = proxy.nodes[0]
        node.ensure_active(0.0)
        node.store_chunk(CacheChunk.sized("media::video", 0, 4_000_000))
        manager.backup_node(node, now=10.0)
        before = platform.billing.cost_by_tenant["media"]
        # Second round has an empty delta but still keeps media's data safe.
        manager.backup_node(node, now=20.0)
        assert platform.billing.cost_by_tenant["media"] > before

"""Tests for the proxy: placement, first-d GETs, eviction, recovery."""

import pytest

from repro.cache.chunk import CacheChunk, descriptor_for
from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.ledger import audit_and_repair, decommission_node, drain_node, export_object
from repro.cache.proxy import Proxy
from repro.exceptions import CacheError, ObjectTooLargeError
from repro.faas.platform import FaaSPlatform
from repro.network.transfer import TransferModel
from repro.sim import EventLoop
from repro.utils.rng import SeededRNG
from repro.utils.units import MB, MIB


def build_proxy(
    lambdas: int = 12,
    data_shards: int = 4,
    parity_shards: int = 2,
    memory_mib: int = 1536,
    straggler_probability: float = 0.0,
) -> Proxy:
    config = InfiniCacheConfig(
        lambdas_per_proxy=lambdas,
        lambda_memory_bytes=memory_mib * MIB,
        data_shards=data_shards,
        parity_shards=parity_shards,
        straggler=StragglerModel(probability=straggler_probability),
        seed=7,
    )
    platform = FaaSPlatform(EventLoop())
    return Proxy(
        proxy_id="proxy-test",
        config=config,
        platform=platform,
        transfer_model=TransferModel(),
        rng=SeededRNG(11),
    )


def make_chunks(key: str, object_size: int, d: int = 4, p: int = 2) -> tuple:
    descriptor = descriptor_for(key, object_size, d, p)
    chunks = [
        CacheChunk.sized(key, index, descriptor.chunk_size)
        for index in range(descriptor.total_chunks)
    ]
    return descriptor, chunks


class TestPut:
    def test_put_places_chunks_on_distinct_nodes(self):
        proxy = build_proxy()
        descriptor, chunks = make_chunks("obj", 6 * MB)
        result = proxy.put("obj", descriptor, chunks, now=0.0)
        assert len(result.node_ids) == 6
        assert len(set(result.node_ids)) == 6
        assert result.latency_s > 0
        assert proxy.contains("obj")
        assert proxy.pool_bytes_used() == descriptor.stored_bytes

    def test_put_records_hosts_touched(self):
        proxy = build_proxy(memory_mib=256)
        descriptor, chunks = make_chunks("obj", 6 * MB)
        result = proxy.put("obj", descriptor, chunks, now=0.0)
        assert 1 <= result.hosts_touched <= 6

    def test_put_with_explicit_placement(self):
        proxy = build_proxy()
        descriptor, chunks = make_chunks("obj", 600)
        placement = [node.node_id for node in proxy.nodes[:6]]
        result = proxy.put("obj", descriptor, chunks, now=0.0, placement=placement)
        assert result.node_ids == placement

    def test_put_rejects_bad_placement(self):
        proxy = build_proxy()
        descriptor, chunks = make_chunks("obj", 600)
        with pytest.raises(CacheError):
            proxy.put("obj", descriptor, chunks, now=0.0, placement=["only-one"])
        duplicate = [proxy.nodes[0].node_id] * 6
        with pytest.raises(CacheError):
            proxy.put("obj", descriptor, chunks, now=0.0, placement=duplicate)

    def test_put_rejects_chunk_count_mismatch(self):
        proxy = build_proxy()
        descriptor, chunks = make_chunks("obj", 600)
        with pytest.raises(CacheError):
            proxy.put("obj", descriptor, chunks[:-1], now=0.0)

    def test_overwrite_replaces_previous_version(self):
        proxy = build_proxy()
        descriptor, chunks = make_chunks("obj", 6 * MB)
        proxy.put("obj", descriptor, chunks, now=0.0)
        descriptor2, chunks2 = make_chunks("obj", 3 * MB)
        proxy.put("obj", descriptor2, chunks2, now=1.0)
        assert proxy.pool_bytes_used() == descriptor2.stored_bytes

    def test_object_wider_than_pool_rejected(self):
        proxy = build_proxy(lambdas=6)
        descriptor, chunks = make_chunks("obj", 600)
        with pytest.raises(ObjectTooLargeError):
            proxy.put("obj", descriptor, chunks, now=0.0, placement=None) \
                if len(proxy.nodes) < 6 else proxy.choose_placement(7)


class TestGet:
    def test_get_hit_returns_first_d_chunks(self):
        proxy = build_proxy()
        descriptor, chunks = make_chunks("obj", 6 * MB)
        proxy.put("obj", descriptor, chunks, now=0.0)
        result = proxy.get("obj", now=1.0)
        assert result.found and result.recoverable
        assert len(result.used_chunks) == descriptor.data_shards
        assert result.latency_s > 0
        assert result.chunks_lost == 0

    def test_get_miss_for_unknown_key(self):
        proxy = build_proxy()
        result = proxy.get("ghost", now=0.0)
        assert result.found is False and result.recoverable is False

    def test_first_d_latency_not_worse_than_slowest_chunk(self):
        proxy = build_proxy(straggler_probability=0.5)
        descriptor, chunks = make_chunks("obj", 60 * MB)
        proxy.put("obj", descriptor, chunks, now=0.0)
        result = proxy.get("obj", now=1.0)
        finite_times = [fetch.time_s for fetch in result.fetches if not fetch.lost]
        assert result.latency_s <= max(finite_times)

    def test_get_survives_up_to_p_lost_chunks(self):
        proxy = build_proxy()
        descriptor, chunks = make_chunks("obj", 6 * MB)
        put_result = proxy.put("obj", descriptor, chunks, now=0.0)
        # Reclaim the instances of two of the placed nodes (p == 2).
        for node_id in put_result.node_ids[:2]:
            node = proxy.node(node_id)
            proxy.platform.reclaim_instance(node.primary)
        result = proxy.get("obj", now=1.0)
        assert result.found and result.recoverable
        assert result.chunks_lost == 2

    def test_get_fails_when_more_than_p_chunks_lost(self):
        proxy = build_proxy()
        descriptor, chunks = make_chunks("obj", 6 * MB)
        put_result = proxy.put("obj", descriptor, chunks, now=0.0)
        for node_id in put_result.node_ids[:3]:
            node = proxy.node(node_id)
            proxy.platform.reclaim_instance(node.primary)
        result = proxy.get("obj", now=1.0)
        assert result.found is True
        assert result.recoverable is False
        # The unrecoverable entry is dropped from the mapping table.
        assert not proxy.contains("obj")

    def test_degraded_read_triggers_repair(self):
        proxy = build_proxy()
        descriptor, chunks = make_chunks("obj", 6 * MB)
        put_result = proxy.put("obj", descriptor, chunks, now=0.0)
        victim = proxy.node(put_result.node_ids[0])
        proxy.platform.reclaim_instance(victim.primary)
        result = proxy.get("obj", now=1.0)
        assert result.recovery_performed is True
        # After repair the object is whole again: no chunks lost on re-read.
        follow_up = proxy.get("obj", now=2.0)
        assert follow_up.chunks_lost == 0


class TestEviction:
    def test_eviction_makes_room_for_new_objects(self):
        proxy = build_proxy(lambdas=6, memory_mib=128)
        capacity = proxy.pool_capacity_bytes
        object_size = capacity // 3
        keys = [f"obj-{i}" for i in range(6)]
        for index, key in enumerate(keys):
            descriptor, chunks = make_chunks(key, object_size)
            proxy.put(key, descriptor, chunks, now=float(index))
        assert proxy.pool_bytes_used() <= capacity
        assert proxy.object_count() < len(keys)
        assert proxy.metrics.counters()["proxy.evictions"] > 0

    def test_untouched_objects_evicted_before_hot_ones(self):
        proxy = build_proxy(lambdas=6, memory_mib=128)
        capacity = proxy.pool_capacity_bytes
        object_size = capacity // 4
        for index in range(3):
            descriptor, chunks = make_chunks(f"obj-{index}", object_size)
            proxy.put(f"obj-{index}", descriptor, chunks, now=float(index))
        # Touch obj-2 repeatedly so its reference bit stays set.
        proxy.get("obj-2", now=10.0)
        proxy.get("obj-2", now=11.0)
        descriptor, chunks = make_chunks("obj-new", object_size)
        proxy.put("obj-new", descriptor, chunks, now=20.0)
        assert proxy.contains("obj-2")

    def test_impossible_object_raises(self):
        proxy = build_proxy(lambdas=6, memory_mib=128)
        descriptor, chunks = make_chunks("huge", proxy.pool_capacity_bytes * 2)
        with pytest.raises(ObjectTooLargeError):
            proxy.put("huge", descriptor, chunks, now=0.0)


class TestInvalidate:
    def test_invalidate_removes_object_and_chunks(self):
        proxy = build_proxy()
        descriptor, chunks = make_chunks("obj", 6 * MB)
        result = proxy.put("obj", descriptor, chunks, now=0.0)
        assert proxy.invalidate("obj") is True
        assert not proxy.contains("obj")
        assert proxy.pool_bytes_used() == 0
        for node_id in result.node_ids:
            assert proxy.node(node_id).chunk_count() == 0

    def test_invalidate_unknown_key(self):
        proxy = build_proxy()
        assert proxy.invalidate("ghost") is False


class TestWarmup:
    def test_warm_up_pool_touches_every_node(self):
        proxy = build_proxy(lambdas=8)
        proxy.warm_up_pool(now=0.0)
        assert all(node.primary is not None for node in proxy.nodes)
        proxy.finish_sessions()
        warmup_cost = proxy.platform.billing.cost_by_category.get("warmup", 0.0)
        assert warmup_cost > 0


def make_real_chunks(key: str, payload: bytes, d: int = 4, p: int = 2) -> tuple:
    """Erasure-encode a real payload into cache chunks (as the client does)."""
    from repro.erasure.codec import ErasureCodec

    codec = ErasureCodec(d, p)
    descriptor = descriptor_for(key, len(payload), d, p)
    chunks = [
        CacheChunk.from_erasure_chunk(chunk) for chunk in codec.encode(key, payload)
    ]
    return descriptor, chunks


def decode_export(descriptor, chunks) -> bytes:
    """Rebuild the object bytes from exported payload-carrying chunks."""
    from repro.erasure.codec import Chunk as ErasureChunk
    from repro.erasure.codec import ErasureCodec, StripeMetadata

    codec = ErasureCodec(descriptor.data_shards, descriptor.parity_shards)
    metadata = StripeMetadata(
        key=descriptor.key,
        object_size=descriptor.object_size,
        data_shards=descriptor.data_shards,
        parity_shards=descriptor.parity_shards,
        chunk_size=descriptor.chunk_size,
    )
    erasure_chunks = [
        ErasureChunk(key=chunk.key, index=chunk.index, payload=chunk.payload,
                     metadata=metadata)
        for chunk in chunks
        if chunk.payload is not None
    ]
    return codec.decode(erasure_chunks)


class TestPayloadCarryingRepair:
    """Lost chunks are EC-decoded back with real bytes, not fabricated."""

    PAYLOAD = bytes(range(256)) * 1000

    def _lose_nodes(self, proxy, node_ids):
        for node_id in node_ids:
            node = proxy.node(node_id)
            for instance in (node.primary, node.backup_peer):
                if instance is not None and instance.is_alive:
                    proxy.platform.reclaim_instance(instance)

    def test_audit_repair_restores_real_payloads(self):
        proxy = build_proxy()
        descriptor, chunks = make_real_chunks("obj", self.PAYLOAD)
        put_result = proxy.put("obj", descriptor, chunks, now=0.0)
        self._lose_nodes(proxy, put_result.node_ids[:2])
        repaired, lost = audit_and_repair(proxy, now=1.0)
        assert (repaired, lost) == (1, 0)
        exported_descriptor, exported = export_object(proxy, "obj")
        assert all(chunk.payload is not None for chunk in exported)
        assert decode_export(exported_descriptor, exported) == self.PAYLOAD
        counters = proxy.metrics.counters()
        assert counters.get("proxy.payload_repairs", 0.0) == 2

    def test_degraded_get_repair_restores_real_payloads(self):
        proxy = build_proxy()
        descriptor, chunks = make_real_chunks("obj", self.PAYLOAD)
        put_result = proxy.put("obj", descriptor, chunks, now=0.0)
        self._lose_nodes(proxy, put_result.node_ids[:1])
        result = proxy.get("obj", now=1.0)
        assert result.recovery_performed is True
        _descriptor, exported = export_object(proxy, "obj")
        assert all(chunk.payload is not None for chunk in exported)

    def test_export_reconstructs_lost_chunks_without_repair(self):
        proxy = build_proxy()
        descriptor, chunks = make_real_chunks("obj", self.PAYLOAD)
        put_result = proxy.put("obj", descriptor, chunks, now=0.0)
        self._lose_nodes(proxy, put_result.node_ids[:2])
        exported_descriptor, exported = export_object(proxy, "obj")
        assert len(exported) == descriptor.total_chunks
        assert all(chunk.payload is not None for chunk in exported)
        assert decode_export(exported_descriptor, exported) == self.PAYLOAD

    def test_export_falls_back_to_placeholders_when_unrecoverable(self):
        proxy = build_proxy()
        descriptor, chunks = make_real_chunks("obj", self.PAYLOAD)
        put_result = proxy.put("obj", descriptor, chunks, now=0.0)
        # Lose more than p chunks: the stripe is genuinely unrecoverable.
        self._lose_nodes(proxy, put_result.node_ids[:3])
        _descriptor, exported = export_object(proxy, "obj")
        assert len(exported) == descriptor.total_chunks
        assert sum(1 for chunk in exported if chunk.payload is None) == 3

    def test_export_falls_back_to_placeholders_on_a_truncated_survivor(self):
        """The codec refuses a chunk that is not ``chunk_size`` long; the
        proxy then hands out placeholders, never a stripe built from it."""
        proxy = build_proxy()
        descriptor, chunks = make_real_chunks("obj", self.PAYLOAD)
        put_result = proxy.put("obj", descriptor, chunks, now=0.0)
        proxy.node(put_result.node_ids[1]).store_chunk(
            CacheChunk(key="obj", index=1, size=100, payload=chunks[1].payload[:100])
        )
        self._lose_nodes(proxy, put_result.node_ids[:1])
        _descriptor, exported = export_object(proxy, "obj")
        assert len(exported) == descriptor.total_chunks
        assert exported[0].payload is None and exported[0].size == descriptor.chunk_size

    def test_sized_stripes_still_repair_with_placeholders(self):
        proxy = build_proxy()
        descriptor, chunks = make_chunks("obj", 6 * MB)
        put_result = proxy.put("obj", descriptor, chunks, now=0.0)
        self._lose_nodes(proxy, put_result.node_ids[:1])
        repaired, lost = audit_and_repair(proxy, now=1.0)
        assert (repaired, lost) == (1, 0)
        assert proxy.metrics.counters().get("proxy.payload_repairs", 0.0) == 0

    def test_drain_rebuilds_lost_chunk_with_payload(self):
        proxy = build_proxy()
        descriptor, chunks = make_real_chunks("obj", self.PAYLOAD)
        put_result = proxy.put("obj", descriptor, chunks, now=0.0)
        proxy.warm_up_pool(now=0.5)  # activate the unplaced migration targets
        victim_id = put_result.node_ids[0]
        self._lose_nodes(proxy, [victim_id])
        moved, dropped = drain_node(proxy, victim_id, now=1.0)
        assert moved == 1 and dropped == 0
        exported_descriptor, exported = export_object(proxy, "obj")
        assert all(chunk.payload is not None for chunk in exported)
        assert decode_export(exported_descriptor, exported) == self.PAYLOAD


class TestGetAfterADecommissionDroppedAChunk:
    """A decommission that finds no migration target keeps the object's
    stale placement; the next GET must read it as one lost chunk, decode
    around it and re-place it, on both request paths."""

    PAYLOAD = bytes(range(256)) * 400

    def put_and_drop(self, sized: bool):
        from repro.cache.deployment import InfiniCacheDeployment

        deployment = InfiniCacheDeployment(InfiniCacheConfig(
            num_proxies=1, lambdas_per_proxy=12, data_shards=4, parity_shards=2,
            backup_enabled=False, seed=1,
        ))
        client = deployment.new_client()
        if sized:
            put = client.put_sized("obj", len(self.PAYLOAD))
        else:
            put = client.put("obj", self.PAYLOAD)
        proxy = deployment.proxies[0]
        # The six unplaced nodes were never invoked, so none of them is
        # alive to take the chunk: it is dropped, not moved.
        assert decommission_node(proxy, put.node_ids[0], deployment.simulator.now) == (0, 1)
        assert proxy.pool_size == 11
        return deployment, client

    def check(self, first, second, sized: bool) -> None:
        expected = None if sized else self.PAYLOAD
        assert first.hit and first.value == expected
        assert first.chunks_lost == 1 and first.recovery_performed
        assert second.hit and second.value == expected
        assert second.chunks_lost == 0 and not second.recovery_performed

    @pytest.mark.parametrize("sized", [False, True], ids=["real", "sized"])
    def test_facade_get_repairs_the_dropped_chunk(self, sized):
        _deployment, client = self.put_and_drop(sized)
        self.check(client.get("obj"), client.get("obj"), sized)

    @pytest.mark.parametrize("sized", [False, True], ids=["real", "sized"])
    def test_event_driven_get_repairs_the_dropped_chunk(self, sized):
        deployment, client = self.put_and_drop(sized)
        loop = deployment.simulator
        results = []
        for _ in range(2):
            request = loop.spawn(client.get_process("obj", deployment.request_env))
            results.append(loop.run_until_complete(request))
        self.check(*results, sized)

"""Tests for the pool ledger: the mapping table's byte totals stay equal to
their rescan, tenant order included, on every path that writes the table."""

import copy

from repro.cache.chunk import ObjectDescriptor
from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.cache.ledger import PoolLedger, audit_and_repair, decommission_node
from repro.cluster.rebalancer import Rebalancer
from repro.utils.rng import SeededRNG
from repro.utils.units import MB, MIB


def _descriptor(key: str, chunk_size: int = 100) -> ObjectDescriptor:
    return ObjectDescriptor(key, chunk_size, 1, 0, chunk_size)


class TestTenantOrder:
    def test_a_node_lists_its_tenants_by_their_first_object(self):
        """A node holds A's obj1, B's obj2 and A's obj3, so it reads A, B.
        Once obj1 is gone A's first object there is obj3, after B's obj2: it
        reads B, A, as a rescan of the mapping table does (an insertion-
        ordered dict of tenants would still read A, B)."""
        ledger = PoolLedger([])
        for key, size in (("A::obj1", 100), ("B::obj2", 200), ("A::obj3", 300)):
            ledger.insert(key, _descriptor(key, size), {0: "n"})
        assert ledger.tenant_bytes("n") == [("A", 400), ("B", 200)]
        ledger.remove("A::obj1")
        assert ledger.tenant_bytes("n") == [("B", 200), ("A", 300)]
        assert ledger.rescan() == []

    def test_a_chunk_moved_onto_a_node_keeps_its_objects_place(self):
        """Re-pointing an old object's chunk onto a node puts its tenant
        ahead of tenants whose objects are younger."""
        ledger = PoolLedger([])
        ledger.insert("A::old", _descriptor("A::old"), {0: "m"})
        ledger.insert("B::new", _descriptor("B::new"), {0: "n"})
        ledger.place("A::old", ledger.table["A::old"], 0, "n")
        assert ledger.tenant_bytes("n") == [("A", 100), ("B", 100)]
        assert ledger.tenant_bytes("m") == []
        assert ledger.rescan() == []


def _deployment(num_proxies: int, lambdas_per_proxy: int) -> InfiniCacheDeployment:
    return InfiniCacheDeployment(InfiniCacheConfig(
        num_proxies=num_proxies, lambdas_per_proxy=lambdas_per_proxy,
        lambda_memory_bytes=512 * MIB, data_shards=4, parity_shards=2,
        straggler=StragglerModel(probability=0.0), backup_enabled=False, seed=11,
    ))


class TestMutationPaths:
    def test_a_repair_that_faults_half_way_leaves_the_ledger_exact(self):
        """Two chunks are lost; the first replacement is inside a billed
        window and takes its chunk, the second must be invoked and faults.
        The audit counts the fault, one placement is re-pointed, and the
        ledger still equals its rescan."""
        deployment = _deployment(num_proxies=1, lambdas_per_proxy=8)
        client = deployment.new_client()
        put = client.put_sized("A::obj", 4 * MB)
        (proxy,) = deployment.proxies
        for node_id in put.node_ids[:2]:
            deployment.platform.reclaim_instance(proxy.node(node_id).primary)
        now = deployment.simulator.now + 10.0
        candidates = [node for node in proxy.nodes if node.node_id not in put.node_ids]
        first, second = (
            candidates[index]
            for index in copy.deepcopy(proxy.rng).sample_without_replacement(2, 2)
        )
        first.ensure_active(now)
        first.record_service(now, 0.001)
        deployment.platform.set_invocation_faults(failure_probability=1.0, rng=SeededRNG(0))

        assert audit_and_repair(proxy, now) == (0, 0)

        assert proxy.metrics.counter("proxy.repair_faults").value == 1
        placement = proxy.ledger.table["A::obj"].placement
        assert sorted(placement.values()) == sorted([first.node_id, *put.node_ids[1:]])
        assert second.node_id not in placement.values()
        assert proxy.ledger.rescan() == []

    def test_evacuate_drops_a_stripe_the_destination_cannot_hold(self):
        """The surviving proxy has fewer nodes than a stripe has chunks, so
        every object the leaving proxy held is dropped, counted and reported."""
        deployment = _deployment(num_proxies=2, lambdas_per_proxy=8)
        gone = []
        Rebalancer(deployment, on_object_gone=gone.append)
        client = deployment.new_client()
        for index in range(12):
            client.put_sized(f"A::obj-{index:02d}", 2 * MB)
        leaving, staying = deployment.proxies
        held = leaving.object_keys()
        assert held
        for node in staying.nodes[:3]:
            decommission_node(staying, node.node_id, deployment.simulator.now)

        deployment.remove_proxy(leaving.proxy_id)

        assert deployment.metrics.counter("cluster.rebalance.dropped").value == len(held)
        assert gone == held
        assert leaving.object_count() == 0 and leaving.pool_bytes_used() == 0
        assert leaving.ledger.rescan() == [] and staying.ledger.rescan() == []

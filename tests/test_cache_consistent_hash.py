"""Tests for the consistent-hash ring."""

import pytest

from repro.cache.consistent_hash import ConsistentHashRing
from repro.exceptions import ConfigurationError
from repro.utils.rng import stable_hash


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("key") == stable_hash("key")

    def test_64_bit_range(self):
        assert 0 <= stable_hash("anything") < 2**64

    def test_different_keys_differ(self):
        assert stable_hash("a") != stable_hash("b")


class TestConsistentHashRing:
    def test_empty_ring_lookup_rejected(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing().lookup("key")

    def test_single_member_gets_everything(self):
        ring = ConsistentHashRing()
        ring.add("p0", "proxy-0")
        assert ring.lookup("anything") == "proxy-0"
        assert ring.lookup_id("anything") == "p0"

    def test_lookup_is_stable(self):
        ring = ConsistentHashRing()
        for i in range(5):
            ring.add(f"p{i}", f"proxy-{i}")
        keys = [f"key-{i}" for i in range(100)]
        first = [ring.lookup_id(key) for key in keys]
        second = [ring.lookup_id(key) for key in keys]
        assert first == second

    def test_duplicate_member_rejected(self):
        ring = ConsistentHashRing()
        ring.add("p0", "proxy-0")
        with pytest.raises(ConfigurationError):
            ring.add("p0", "proxy-0-again")

    def test_remove_member(self):
        ring = ConsistentHashRing()
        ring.add("p0", "x")
        ring.add("p1", "y")
        ring.remove("p0")
        assert "p0" not in ring
        assert all(ring.lookup_id(f"k{i}") == "p1" for i in range(20))

    def test_remove_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing().remove("ghost")

    def test_members_listing(self):
        ring = ConsistentHashRing()
        ring.add("b", 2)
        ring.add("a", 1)
        assert ring.members() == [1, 2]
        assert len(ring) == 2

    def test_distribution_reasonably_balanced(self):
        ring = ConsistentHashRing(virtual_nodes=128)
        for i in range(5):
            ring.add(f"p{i}", i)
        keys = [f"obj-{i}" for i in range(5000)]
        counts = ring.distribution(keys)
        assert sum(counts.values()) == 5000
        # With 128 virtual nodes no proxy should be starved or dominate badly.
        assert min(counts.values()) > 5000 / 5 * 0.5
        assert max(counts.values()) < 5000 / 5 * 1.7

    def test_minimal_disruption_on_member_removal(self):
        """Consistent hashing's key property: removing one member only
        remaps the keys that were on it."""
        ring = ConsistentHashRing()
        for i in range(4):
            ring.add(f"p{i}", i)
        keys = [f"obj-{i}" for i in range(2000)]
        before = {key: ring.lookup_id(key) for key in keys}
        ring.remove("p2")
        moved = sum(
            1 for key in keys if before[key] != "p2" and ring.lookup_id(key) != before[key]
        )
        assert moved == 0

    def test_all_clients_agree(self):
        """Two independently built rings over the same members map keys the
        same way — multiple InfiniCache clients sharing proxies agree on
        placement (Figure 2's shared-access requirement)."""
        ring_a = ConsistentHashRing()
        ring_b = ConsistentHashRing()
        for i in range(3):
            ring_a.add(f"p{i}", i)
            ring_b.add(f"p{i}", i)
        for i in range(200):
            key = f"shared-{i}"
            assert ring_a.lookup_id(key) == ring_b.lookup_id(key)

    def test_invalid_virtual_nodes(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(virtual_nodes=0)


class TestBulkConstruction:
    """Fleet-scale ring building: add_many and the shared point/ring caches."""

    def test_add_many_matches_incremental_adds(self):
        from repro.cache.consistent_hash import ConsistentHashRing

        one_by_one = ConsistentHashRing(virtual_nodes=16)
        for index in range(8):
            one_by_one.add(f"proxy-{index}", index)
        bulk = ConsistentHashRing(virtual_nodes=16)
        bulk.add_many([(f"proxy-{index}", index) for index in range(8)])
        assert bulk._ring == one_by_one._ring
        for key in ("a", "b", "photo/123", "video/9"):
            assert bulk.lookup(key) == one_by_one.lookup(key)

    def test_add_many_rejects_duplicates_atomically(self):
        from repro.cache.consistent_hash import ConsistentHashRing
        from repro.exceptions import ConfigurationError

        ring = ConsistentHashRing(virtual_nodes=4)
        ring.add("p0", 0)
        with pytest.raises(ConfigurationError):
            ring.add_many([("p1", 1), ("p0", 0)])
        assert "p1" not in ring

    def test_identical_fresh_rings_share_lookups(self):
        from repro.cache.consistent_hash import ConsistentHashRing

        members = [(f"proxy-{index}", index) for index in range(12)]
        first = ConsistentHashRing()
        first.add_many(list(members))
        second = ConsistentHashRing()
        second.add_many(list(members))
        assert first._ring == second._ring
        # The cached ring is copied per instance: mutating one must not
        # leak into the other (or into future cache hits).
        second.remove("proxy-3")
        assert "proxy-3" in first
        third = ConsistentHashRing()
        third.add_many(list(members))
        assert third._ring == first._ring

    def test_add_many_rejects_in_batch_duplicates(self):
        from repro.cache.consistent_hash import ConsistentHashRing
        from repro.exceptions import ConfigurationError

        ring = ConsistentHashRing(virtual_nodes=4)
        with pytest.raises(ConfigurationError):
            ring.add_many([("p0", 0), ("p0", 1)])
        assert len(ring) == 0


class TestCopyOnWriteClone:
    def _ring(self, members: int = 8):
        from repro.cache.consistent_hash import ConsistentHashRing

        ring: ConsistentHashRing[int] = ConsistentHashRing(virtual_nodes=8)
        ring.add_many([(f"proxy-{index}", index) for index in range(members)])
        return ring

    def test_clone_shares_the_point_tuple(self):
        ring = self._ring()
        clone = ring.clone()
        # O(1) share: the immutable sorted points are the same object.
        assert clone._ring is ring._ring
        assert clone.member_ids() == ring.member_ids()
        for key in ("a", "b", "photo/1", "photo/2"):
            assert clone.lookup_id(key) == ring.lookup_id(key)

    def test_clone_mutation_copies_on_write(self):
        ring = self._ring()
        clone = ring.clone()
        clone.remove("proxy-0")
        assert clone._ring is not ring._ring
        assert "proxy-0" in ring and "proxy-0" not in clone
        clone.add("proxy-9", 9)
        assert "proxy-9" not in ring

    def test_prototype_mutation_leaves_clones_alone(self):
        ring = self._ring()
        clone = ring.clone()
        before = [clone.lookup_id(f"key-{index}") for index in range(20)]
        ring.remove("proxy-1")
        ring.add("proxy-8", 8)
        assert [clone.lookup_id(f"key-{index}") for index in range(20)] == before

    def test_clone_shares_the_member_table_until_a_mutation(self):
        ring = self._ring()
        clone = ring.clone()
        assert clone._members is ring._members
        clone.add("proxy-9", 9)
        assert clone._members is not ring._members
        assert "proxy-9" not in ring and clone.lookup_id("a") in clone
        other = ring.clone()
        ring.remove("proxy-0")
        assert "proxy-0" in other and other.members() == list(range(8))

    def test_fleet_clients_cost_under_a_kib_each(self):
        """1 024 clients over 256 proxies: each client shares the
        prototype's points and member table, so one costs its own few
        attributes, not a copy of a 256-entry dict (about 7 KiB)."""
        import tracemalloc

        from repro.cache.config import InfiniCacheConfig
        from repro.cache.deployment import InfiniCacheDeployment
        from repro.utils.units import MIB

        deployment = InfiniCacheDeployment(InfiniCacheConfig(
            num_proxies=256, lambdas_per_proxy=3,
            lambda_memory_bytes=256 * MIB,
            data_shards=2, parity_shards=1, backup_enabled=False, seed=7,
        ))
        deployment.new_client("warm")  # first-use caches, not per client
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            clients = [deployment.new_client() for _ in range(1024)]
            per_client = (tracemalloc.get_traced_memory()[0] - before) / len(clients)
        finally:
            tracemalloc.stop()
        assert per_client < 1024, f"{per_client:.0f} B per client"

    def test_deployment_clients_get_cow_clones(self):
        from repro.cache.config import InfiniCacheConfig
        from repro.cache.deployment import InfiniCacheDeployment
        from repro.utils.units import MIB

        deployment = InfiniCacheDeployment(InfiniCacheConfig(
            num_proxies=3, lambdas_per_proxy=4,
            lambda_memory_bytes=512 * MIB,
            data_shards=2, parity_shards=1, backup_enabled=False, seed=7,
        ))
        first = deployment.new_client("a")
        second = deployment.new_client("b")
        # Clients share the prototype's point tuple until a membership change.
        assert first.ring._ring is second.ring._ring
        assert first.ring.member_ids() == second.ring.member_ids()
        # A cluster join updates the prototype and every issued client.
        deployment.add_proxy()
        assert first.ring.member_ids() == second.ring.member_ids()
        assert "proxy-3" in first.ring
        # New clients clone the post-join prototype.
        third = deployment.new_client("c")
        assert third.ring.member_ids() == first.ring.member_ids()

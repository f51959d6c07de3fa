"""Tests for VM hosts and the bin-packing placement."""

import pytest

from repro.exceptions import ConfigurationError
from repro.faas.host import HostManager, VMHost
from repro.utils.units import MIB


class TestVMHost:
    def make_host(self) -> VMHost:
        return VMHost(host_id="vm-0", memory_bytes=3008 * MIB, nic_bandwidth_bps=1.0)

    def test_place_and_evict(self):
        host = self.make_host()
        host.place("f1", 1024 * MIB)
        assert host.occupancy == 1
        assert host.memory_in_use == 1024 * MIB
        host.evict("f1", 1024 * MIB)
        assert host.occupancy == 0
        assert host.memory_in_use == 0

    def test_can_fit(self):
        host = self.make_host()
        host.place("f1", 2048 * MIB)
        assert host.can_fit(960 * MIB)
        assert not host.can_fit(1024 * MIB)

    def test_overfill_rejected(self):
        host = self.make_host()
        host.place("f1", 2048 * MIB)
        with pytest.raises(ConfigurationError):
            host.place("f2", 1024 * MIB)

    def test_duplicate_placement_rejected(self):
        host = self.make_host()
        host.place("f1", 512 * MIB)
        with pytest.raises(ConfigurationError):
            host.place("f1", 512 * MIB)

    def test_evict_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make_host().evict("ghost", 128 * MIB)


class TestHostManager:
    def test_small_functions_share_hosts(self):
        """256 MB functions pack ~11 per host (the Figure 4 contention setup)."""
        manager = HostManager()
        for i in range(22):
            manager.place_function(f"f{i}", 256 * MIB)
        assert len(manager.hosts) == 2

    def test_large_functions_get_dedicated_hosts(self):
        """>= 1536 MB functions eliminate co-location (paper Section 3.1)."""
        manager = HostManager()
        for i in range(5):
            manager.place_function(f"f{i}", 1536 * MIB)
        assert len(manager.hosts) == 5
        for i in range(5):
            assert manager.host_of(f"f{i}").occupancy == 1

    def test_greedy_prefers_fullest_host(self):
        manager = HostManager()
        manager.place_function("a", 1024 * MIB)
        manager.place_function("b", 1024 * MIB)   # same host (greedy packing)
        manager.place_function("c", 2048 * MIB)   # needs a new host
        assert len(manager.hosts) == 2
        assert manager.host_of("a") is manager.host_of("b")
        assert manager.host_of("c") is not manager.host_of("a")

    def test_remove_function_frees_capacity(self):
        manager = HostManager()
        manager.place_function("a", 2048 * MIB)
        host = manager.host_of("a")
        manager.remove_function("a")
        assert host.occupancy == 0
        assert manager.host_of("a") is None
        # Removing again is a silent no-op (reclaim may race with shutdown).
        manager.remove_function("a")

    def test_duplicate_place_rejected(self):
        manager = HostManager()
        manager.place_function("a", 128 * MIB)
        with pytest.raises(ConfigurationError):
            manager.place_function("a", 128 * MIB)

    def test_distinct_hosts(self):
        manager = HostManager()
        names = [f"f{i}" for i in range(12)]
        for name in names:
            manager.place_function(name, 256 * MIB)
        # 11 fit on the first host, the 12th starts a second one.
        assert len({manager.host_of(name).host_id for name in names}) == 2
        assert len({manager.host_of(name).host_id for name in names[:3]}) == 1
        assert manager.host_of("unknown") is None

    def test_host_memory_bounds_packing(self):
        # Hosts hold 3008 MiB: two 1024 MiB functions fit, a third does not.
        manager = HostManager()
        manager.place_function("a", 1024 * MIB)
        manager.place_function("b", 1024 * MIB)
        manager.place_function("c", 1024 * MIB)
        assert len(manager.hosts) == 2


class TestLazyHeapMatchesBruteForceGreedy:
    """The parked-entry lazy heap is an optimisation, not a policy change.

    Placement must stay identical to the obvious oracle — scan every host
    and pick ``max(key=(memory_in_use, host_id))`` among those that fit,
    provisioning a new host only when nothing does — across an adversarial
    mix of placements and removals that churns parked and stale entries.
    """

    def _expected_host(self, manager: HostManager, memory_bytes: int) -> str | None:
        fitting = [h for h in manager.hosts.values() if h.can_fit(memory_bytes)]
        if not fitting:
            return None
        return max(fitting, key=lambda h: (h.memory_in_use, h.host_id)).host_id

    def test_randomized_placements_match_the_oracle(self):
        import random

        rng = random.Random(7)
        manager = HostManager()
        placed: list[str] = []
        sizes = [256 * MIB, 512 * MIB, 1024 * MIB, 1536 * MIB]
        for index in range(300):
            if placed and rng.random() < 0.35:
                victim = placed.pop(rng.randrange(len(placed)))
                manager.remove_function(victim)
                continue
            memory = rng.choice(sizes)
            expected = self._expected_host(manager, memory)
            name = f"fn-{index}"
            host = manager.place_function(name, memory)
            if expected is None:
                # Nothing fit: a freshly provisioned host must serve it.
                assert host.occupancy == 1
            else:
                assert host.host_id == expected
            placed.append(name)
        # Accounting stayed coherent through the churn.
        assert sum(h.occupancy for h in manager.hosts.values()) == len(placed)

    def test_parked_hosts_return_when_a_small_request_arrives(self):
        manager = HostManager()
        # Fill hosts so their leftover memory is too small for 1536 MiB
        # requests (parking them), then verify a small request still finds
        # the fullest parked host rather than provisioning a new one.
        manager.place_function("big-0", 1536 * MIB)
        manager.place_function("big-1", 1536 * MIB)
        count_before = len(manager.hosts)
        expected = self._expected_host(manager, 512 * MIB)
        host = manager.place_function("small", 512 * MIB)
        assert host.host_id == expected
        assert len(manager.hosts) == count_before

"""Property-based tests for core data structures: CLOCK LRU, the consistent
hash ring, the billing arithmetic, and the availability model."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.availability import AvailabilityModel
from repro.cache.clock_lru import ClockLRU
from repro.cache.consistent_hash import ConsistentHashRing
from repro.faas.billing import BILLING_CYCLE_SECONDS, BillingModel, ceil_to_billing_cycle
from repro.utils.units import GIB

keys = st.text(alphabet="abcdefghij", min_size=1, max_size=6)


class TestClockLRUProperties:
    @settings(max_examples=60, deadline=None)
    @given(operations=st.lists(
        st.tuples(st.sampled_from(["insert", "get", "remove", "evict"]), keys),
        max_size=200,
    ))
    def test_model_equivalence_for_membership(self, operations):
        """The CLOCK structure tracks exactly the same key set as a dict
        model, no matter the operation sequence."""
        lru: ClockLRU[int] = ClockLRU()
        model: dict[str, int] = {}
        for index, (operation, key) in enumerate(operations):
            if operation == "insert":
                lru.insert(key, index)
                model[key] = index
            elif operation == "get":
                value = lru.get(key)
                assert value == model.get(key)
            elif operation == "remove":
                removed = lru.remove(key)
                assert removed == model.pop(key, None)
            elif operation == "evict":
                victim = lru.evict()
                if model:
                    assert victim is not None
                    assert victim[0] in model
                    del model[victim[0]]
                else:
                    assert victim is None
            assert len(lru) == len(model)
        assert sorted(key for key, _ in lru.items()) == sorted(model)

    @settings(max_examples=30, deadline=None)
    @given(key_list=st.lists(keys, min_size=1, max_size=50, unique=True))
    def test_eviction_drains_everything_exactly_once(self, key_list):
        lru: ClockLRU[int] = ClockLRU()
        for index, key in enumerate(key_list):
            lru.insert(key, index)
        evicted = []
        while True:
            victim = lru.evict()
            if victim is None:
                break
            evicted.append(victim[0])
        assert sorted(evicted) == sorted(key_list)


class TestConsistentHashProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        members=st.lists(st.text(alphabet="pqrst", min_size=1, max_size=4),
                         min_size=1, max_size=8, unique=True),
        lookups=st.lists(keys, min_size=1, max_size=50),
    )
    def test_lookup_always_returns_a_member(self, members, lookups):
        ring: ConsistentHashRing[str] = ConsistentHashRing(virtual_nodes=16)
        for member in members:
            ring.add(member, member)
        for key in lookups:
            assert ring.lookup(key) in members

    @settings(max_examples=30, deadline=None)
    @given(
        members=st.lists(st.text(alphabet="pqrst", min_size=1, max_size=4),
                         min_size=2, max_size=8, unique=True),
        lookups=st.lists(keys, min_size=1, max_size=50),
    )
    def test_removal_only_moves_keys_from_removed_member(self, members, lookups):
        ring: ConsistentHashRing[str] = ConsistentHashRing(virtual_nodes=16)
        for member in members:
            ring.add(member, member)
        before = {key: ring.lookup_id(key) for key in lookups}
        removed = members[0]
        ring.remove(removed)
        for key in lookups:
            if before[key] != removed:
                assert ring.lookup_id(key) == before[key]


class TestCopyOnWriteRingProperties:
    """COW clones must be observably identical to deep copies.

    The same differential pattern as the PR-4 incremental-vs-reference flow
    arbiter test: drive a :meth:`ConsistentHashRing.clone` twin and a
    ``copy.deepcopy`` twin through an arbitrary add/remove/rebalance
    sequence and assert they never diverge — and that the original ring is
    never disturbed by either twin's mutations.
    """

    probe_keys = [f"probe-{index}" for index in range(40)]

    def _observe(self, ring: ConsistentHashRing[str]) -> tuple:
        return (
            len(ring),
            ring.member_ids(),
            ring.members(),
            tuple(ring.lookup_id(key) for key in self.probe_keys) if len(ring) else (),
            tuple(ring.lookup(key) for key in self.probe_keys) if len(ring) else (),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        initial=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4),
                         min_size=1, max_size=6, unique=True),
        operations=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "rebalance"]),
                st.text(alphabet="uvwxyz", min_size=1, max_size=4),
            ),
            max_size=20,
        ),
    )
    def test_cow_clone_equals_deep_copy(self, initial, operations):
        import copy

        base: ConsistentHashRing[str] = ConsistentHashRing(virtual_nodes=16)
        base.add_many([(member, member) for member in initial])
        base_view = self._observe(base)

        cow = base.clone()
        # A second clone shares the same points and member table as ``cow``.
        sibling = base.clone()
        deep = copy.deepcopy(base)
        assert self._observe(cow) == self._observe(deep) == base_view

        for operation, member in operations:
            if operation == "add":
                if member in cow:
                    continue
                cow.add(member, member)
                deep.add(member, member)
            elif operation == "remove":
                if member not in cow or len(cow) <= 1:
                    continue
                cow.remove(member)
                deep.remove(member)
            else:  # rebalance: a leave immediately followed by a re-join
                if member not in cow or len(cow) <= 1:
                    continue
                cow.remove(member)
                cow.add(member, member)
                deep.remove(member)
                deep.add(member, member)
            assert self._observe(cow) == self._observe(deep)
            # Neither the shared prototype nor a twin cloned from it is
            # disturbed by a twin's mutation: members and lookups alike.
            assert self._observe(base) == base_view
            assert self._observe(sibling) == base_view
        # The sibling's own mutation leaves the mutated twin alone too.
        cow_view = self._observe(cow)
        newcomer = "n" + "".join(sibling.member_ids())
        sibling.add(newcomer, newcomer)
        assert newcomer in sibling and newcomer not in cow and newcomer not in base
        assert self._observe(cow) == cow_view
        assert self._observe(base) == base_view

    @settings(max_examples=20, deadline=None)
    @given(
        members=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4),
                         min_size=2, max_size=6, unique=True),
    )
    def test_mutating_the_prototype_never_touches_clones(self, members):
        base: ConsistentHashRing[str] = ConsistentHashRing(virtual_nodes=16)
        base.add_many([(member, member) for member in members])
        clone = base.clone()
        clone_view = self._observe(clone)
        base.remove(members[0])
        base.add("newcomer", "newcomer")
        assert self._observe(clone) == clone_view


class TestBillingProperties:
    @settings(max_examples=100, deadline=None)
    @given(duration=st.floats(min_value=0, max_value=900, allow_nan=False))
    def test_ceil_to_cycle_bounds(self, duration):
        billed = ceil_to_billing_cycle(duration)
        assert billed >= duration
        assert billed >= BILLING_CYCLE_SECONDS
        assert billed - duration <= BILLING_CYCLE_SECONDS + 1e-9
        # Billed durations are whole cycles.
        cycles = billed / BILLING_CYCLE_SECONDS
        assert abs(cycles - round(cycles)) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(durations=st.lists(st.floats(min_value=0.001, max_value=10), min_size=1, max_size=30))
    def test_total_cost_is_sum_of_charges(self, durations):
        billing = BillingModel()
        charges = [billing.charge_invocation(1 * GIB, duration) for duration in durations]
        assert billing.total_cost == sum(charge.total for charge in charges)
        assert billing.total_invocations == len(durations)


class TestAvailabilityProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        reclaimed=st.integers(min_value=0, max_value=100),
        parity=st.integers(min_value=0, max_value=4),
    )
    def test_loss_probability_is_a_probability(self, reclaimed, parity):
        model = AvailabilityModel(total_nodes=100, data_shards=10, parity_shards=parity)
        loss = model.object_loss_probability_given_reclaims(reclaimed)
        assert 0.0 <= loss <= 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(reclaimed=st.integers(min_value=0, max_value=200))
    def test_more_parity_never_hurts(self, reclaimed):
        weak = AvailabilityModel(200, 10, 1).object_loss_probability_given_reclaims(reclaimed)
        strong = AvailabilityModel(200, 10, 3).object_loss_probability_given_reclaims(reclaimed)
        assert strong <= weak + 1e-12

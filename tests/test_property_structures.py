"""Property-based tests for core data structures: CLOCK LRU, the consistent
hash ring, the billing arithmetic, and the availability model."""

from __future__ import annotations

from bisect import bisect_right

from hypothesis import given, settings, strategies as st

from repro.analysis.availability import AvailabilityModel
from repro.cache.clock_lru import ClockLRU
from repro.cache.consistent_hash import ConsistentHashRing
from repro.faas.billing import BILLING_CYCLE_SECONDS, BillingModel, ceil_to_billing_cycle
from repro.utils.rng import stable_hash
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

    @settings(max_examples=100, deadline=None)
    @given(operations=st.lists(
        st.tuples(st.sampled_from(["insert", "get", "remove", "evict"]),
                  st.sampled_from("abcd")),
        min_size=10, max_size=300,
    ))
    def test_same_victims_and_order_as_a_set_of_every_slot(self, operations):
        """Only removed keys enter the stale set; every victim, value and
        MRU-to-LRU listing is the one the set of every slotted key gave."""
        lru: ClockLRU[int] = ClockLRU()
        reference = _SlotSetClock()
        for index, (operation, key) in enumerate(operations):
            if operation == "insert":
                lru.insert(key, index)
                reference.insert(key, index)
            elif operation == "get":
                assert lru.get(key) == reference.get(key)
            elif operation == "remove":
                assert lru.remove(key) == reference.remove(key)
            else:
                assert lru.evict() == reference.evict()
            assert lru.keys_mru_to_lru() == reference.keys_mru_to_lru()
            assert lru._ring == reference.ring
            assert lru._hand == reference.hand
        assert list(lru.items()) == [
            (key, reference.entries[key][0])
            for key in reference.ring if key in reference.entries
        ]


class _SlotSetClock:
    """The CLOCK as it kept a set of every key holding a ring slot, live or
    stale: the reference :class:`ClockLRU`'s stale-only set must match."""

    def __init__(self) -> None:
        self.entries: dict[str, list] = {}  # key -> [value, referenced]
        self.ring: list[str] = []
        self.in_ring: set[str] = set()
        self.hand = 0

    def insert(self, key: str, value: int) -> None:
        entry = self.entries.get(key)
        if entry is not None:
            entry[:] = [value, True]
            return
        self.entries[key] = [value, True]
        if key not in self.in_ring:
            self.ring.append(key)
            self.in_ring.add(key)

    def get(self, key: str):
        entry = self.entries.get(key)
        if entry is None:
            return None
        entry[1] = True
        return entry[0]

    def remove(self, key: str):
        entry = self.entries.pop(key, None)
        return None if entry is None else entry[0]

    def evict(self):
        while self.entries:
            if self.hand >= len(self.ring):
                self.hand = 0
            key = self.ring[self.hand]
            entry = self.entries.get(key)
            if entry is None:
                self.ring.pop(self.hand)
                self.in_ring.discard(key)
            elif entry[1]:
                entry[1] = False
                self.hand += 1
            else:
                self.ring.pop(self.hand)
                self.in_ring.discard(key)
                del self.entries[key]
                return key, entry[0]
        return None

    def keys_mru_to_lru(self) -> list[str]:
        live = [key for key in self.ring if key in self.entries]
        return [key for key in live if self.entries[key][1]] + [
            key for key in live if not self.entries[key][1]
        ]


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

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3),
                         max_size=5, unique=True),
        operations=st.lists(
            st.tuples(
                st.sampled_from(["add", "add_many", "remove", "clone"]),
                st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3),
                         min_size=1, max_size=3, unique=True),
                st.integers(min_value=0, max_value=7),
            ),
            max_size=25,
        ),
    )
    def test_columns_match_the_sorted_pair_ring(self, initial, operations):
        """The ``array('Q')`` of points and tuple of ids answer every lookup
        as the sorted ``(point, id)`` tuples did, searched at
        ``(point, chr(0x10FFFF))`` — keys that hash exactly onto a virtual
        point included — across adds, removes and copy-on-write clones."""
        virtual_nodes = 4

        def pairs_of(member_ids):
            return sorted(
                (stable_hash(f"{member_id}::{replica}"), member_id)
                for member_id in member_ids for replica in range(virtual_nodes)
            )

        def reference_lookup(pairs, key):
            index = bisect_right(pairs, (stable_hash(key), chr(0x10FFFF)))
            return pairs[index if index < len(pairs) else 0][1]

        def check(ring, member_ids):
            assert ring.member_ids() == sorted(member_ids)
            if not member_ids:
                return
            pairs = pairs_of(member_ids)
            # Keys equal to a virtual point's hash input land exactly on it.
            on_points = [f"{member_id}::{replica}" for member_id in member_ids
                         for replica in range(virtual_nodes)]
            for key in self.probe_keys + on_points:
                assert ring.lookup_id(key) == reference_lookup(pairs, key)
                assert ring.lookup(key) == reference_lookup(pairs, key)

        first: ConsistentHashRing[str] = ConsistentHashRing(virtual_nodes=virtual_nodes)
        first.add_many([(member, member) for member in initial])
        rings = [(first, set(initial))]
        for operation, names, pick in operations:
            ring, member_ids = rings[pick % len(rings)]
            if operation == "clone":
                rings.append((ring.clone(), set(member_ids)))
            elif operation == "add":
                if names[0] not in member_ids:
                    ring.add(names[0], names[0])
                    member_ids.add(names[0])
            elif operation == "add_many":
                fresh = [name for name in names if name not in member_ids]
                ring.add_many([(name, name) for name in fresh])
                member_ids.update(fresh)
            elif names[0] in member_ids:
                ring.remove(names[0])
                member_ids.discard(names[0])
            for ring, member_ids in rings:
                check(ring, member_ids)


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

"""What a fleet holds per proxy, per stored chunk, per in-flight flow, per
parked coroutine and per undrawn RNG, and what a replay keeps of its
history.

``tracemalloc`` budgets for the structures that grow with a fleet — the
hash ring every client shares, the store every chunk lands in, and the
state every live transfer and every parked coroutine carries — and for the
history a replay could pile up: closed billed sessions, the report's copy
of the flow trace, one label string per transfer, and a row per recorded
request and per trace record.  Plus the contract of the records that are
slotted to fit those budgets: they have no instance dict, they still pickle
(``fan_out`` ships results between processes), still work with
``dataclasses.replace`` and, where frozen, still refuse assignment.
"""
from __future__ import annotations

import dataclasses
import gc
import pickle
import tracemalloc

import pytest

from repro.cache import consistent_hash
from repro.cache.billed_duration import BilledDurationController
from repro.cache.chunk import CacheChunk, ObjectDescriptor
from repro.cache.clock_lru import _ClockEntry
from repro.cache.config import InfiniCacheConfig
from repro.cache.deployment import InfiniCacheDeployment
from repro.baselines.s3 import ObjectStore
from repro.cache.node import NodeAccess
from repro.experiments import production
from repro.faas.billing import BillingModel
from repro.network.flows import FlowNetwork
from repro.network.topology import NetworkFabric
from repro.sim import EventLoop, SimFuture
from repro.utils.rng import SeededRNG
from repro.utils.units import MB, MIB
from repro.workload.replay import (
    ClientOp,
    ClosedLoopDriver,
    ObjectStoreTarget,
    OpenLoopBaselineDriver,
)


def _retained(build):
    """Bytes still allocated after ``build()`` returns, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, kept
    finally:
        tracemalloc.stop()


class TestMemoryBudgets:
    def test_ring_costs_under_40_bytes_per_point(self):
        """256 proxies × 128 virtual nodes, built cold: one 8-byte point
        and one shared id reference per point in the ring, plus the cached
        points per member.  Pairs of ``(int, str)`` tuples cost 109 B."""
        consistent_hash._POINT_CACHE.clear()
        consistent_hash._RING_CACHE.clear()
        members = [(f"proxy-{index}", index) for index in range(256)]

        def build():
            ring = consistent_hash.ConsistentHashRing(virtual_nodes=128)
            ring.add_many(members)
            return ring

        try:
            retained, ring = _retained(build)
        finally:
            consistent_hash._POINT_CACHE.clear()
            consistent_hash._RING_CACHE.clear()
        per_point = retained / (256 * 128)
        assert len(ring) == 256
        assert per_point <= 40, f"{per_point:.0f} B per ring point"

    def test_stored_chunk_costs_under_480_bytes(self):
        """2 000 sized 2 MB puts at RS(4+2): each of the 12 000 stored
        chunks with its share of the descriptor, the proxy's mapping and
        both CLOCKs.  Two id strings per chunk, dict-backed records and a
        CLOCK set of every stored key cost 638 B."""
        deployment = InfiniCacheDeployment(InfiniCacheConfig(
            num_proxies=1, lambdas_per_proxy=8, lambda_memory_bytes=1536 * MIB,
            data_shards=4, parity_shards=2, backup_enabled=False, seed=7,
        ))
        client = deployment.new_client("memory")
        for index in range(64):  # first-use structures, not per chunk
            client.put_sized(f"warm-{index}", 2 * MB)

        def put_all():
            for index in range(2000):
                client.put_sized(f"obj-{index}", 2 * MB)

        retained, _ = _retained(put_all)
        proxy = deployment.proxies[0]
        assert sum(node.chunk_count() for node in proxy.nodes) == (64 + 2000) * 6
        per_chunk = retained / (2000 * 6)
        assert per_chunk <= 480, f"{per_chunk:.0f} B per stored chunk"

    def test_live_flow_costs_under_1000_bytes(self):
        """4 096 transfers in flight over 256 NICs and 16 uplinks, with the
        request path's labels: the flow (which is its own future), its
        completion timer, its index entries and its label's entry in the
        network's label pool (every label here is new; 3.11: 842 B).  A
        second future per flow, with a label string of its own, a
        completion-event label per flow and a bound method per hook and per
        completion cost 1 320 B; ``functools.partial`` hooks and two eager
        lists per future, 1 750 B.  The budget leaves room for the 3.10
        and 3.12 allocators."""
        loop = EventLoop()
        network = FlowNetwork(loop, NetworkFabric())
        for host in range(256):
            network.fabric.host(f"host-{host}", 1e9)
        network.transfer(
            size_bytes=MB, function_bandwidth_bps=1e8, host_id="warm",
            host_capacity_bps=1e9, proxy_id="proxy-warm",
        )

        def start_all():
            return [
                network.transfer(
                    size_bytes=MB, function_bandwidth_bps=1e8,
                    host_id=f"host-{index % 256}", host_capacity_bps=1e9,
                    proxy_id=f"proxy-{index % 16}",
                    label=f"proxy-{index % 16}:serving:obj-{index // 6}#{index % 6}",
                )
                for index in range(4096)
            ]

        retained, flows = _retained(start_all)
        assert network.active_count == 4097
        per_flow = retained / len(flows)
        assert per_flow <= 1000, f"{per_flow:.0f} B per live flow"

    @pytest.mark.parametrize("wait", ["sleep", "future"])
    def test_parked_process_costs_under_480_bytes(self, wait):
        """4 096 processes parked on a sleep or on a future of their own,
        beyond what their generators and labels hold (both are built before
        measuring, so 3.10's larger frames stay out of the number).  3.11:
        394 B asleep (the process, its event and its heap entry) and 208 B
        on a future (the process and the future, which holds the process as
        its lone callback).  A second future per process, two label strings
        built per process, a bound method per wait and a one-item callback
        list cost 609 and 550 B.  The budget leaves room for the 3.10 and
        3.12 allocators."""
        loop = EventLoop()
        labels = [
            f"proxy-{index % 16}:fetch:obj-{index // 6}#{index % 6}" for index in range(4096)
        ]

        def parked():
            yield 1.0 if wait == "sleep" else SimFuture()

        loop.spawn(parked(), "warm")  # first-use structures, not per process
        bare, generators = _retained(lambda: [parked() for _ in labels])
        del generators
        retained, processes = _retained(lambda: [loop.spawn(parked(), label) for label in labels])
        assert not any(process.done for process in processes)
        per_process = (retained - bare) / len(processes)
        assert per_process <= 480, f"{per_process:.0f} B per parked process ({wait})"

    def test_an_undrawn_rng_child_costs_under_256_bytes(self):
        """1 000 children that never draw, like a proxy's ``retry`` stream
        in a fleet without faults (3.11: about 128 B each).  A numpy
        ``Generator`` built up front cost about 960 B more, traced, plus
        its untraced state."""
        rng = SeededRNG(2020)
        retained, children = _retained(lambda: [rng.child("retry", index) for index in range(1000)])
        assert len(children) == 1000
        assert retained / 1000 <= 256, f"{retained / 1000:.0f} B per undrawn child"

    def test_in_flight_roles_have_no_instance_dict(self):
        """A subclass of a slotted class that forgets ``__slots__`` silently
        gains a dict of about 100 B per instance."""
        loop = EventLoop()
        network = FlowNetwork(loop, NetworkFabric())
        flow = network.transfer(
            size_bytes=MB, function_bandwidth_bps=1e8, host_id="host",
            host_capacity_bps=1e9, proxy_id="proxy",
        )

        def parked():
            yield flow

        roles = [
            flow, loop.spawn(parked(), "parked"), SimFuture("future"), flow._completion,
            loop.schedule(1.0, lambda: None, "event"),
        ]
        assert [type(role).__name__ for role in roles] == [
            "Flow", "Process", "SimFuture", "DeadlineTimer", "Event",
        ]
        for role in roles:
            assert not hasattr(role, "__dict__"), type(role).__name__


class TestReplayHistoryBudgets:
    """A replay keeps its totals and one trace, not a ledger of its past.

    The budgets are several times what Python 3.11 measures, so allocator
    differences between the 3.10-3.12 versions CI runs stay inside them.
    """

    def test_closed_sessions_are_not_kept(self):
        """10 000 one-tenant sessions billed through ``on_close``: the
        controller keeps none of them and the bill keeps totals (3.11:
        about 6 KB in all).  A list of every closed session held 369 B
        per session, 3.69 MB here."""
        billing = BillingModel()
        controller = BilledDurationController(
            on_close=lambda charge: billing.charge_invocation(
                1536 * MIB, charge.duration_s, charge.category, charge.busy_by_tenant
            )
        )

        def serve(first, count):
            for index in range(first, first + count):
                controller.record_request(index * 10.0, 0.01, attribution="tenant-a")
            controller.flush()

        serve(0, 16)  # first-use ledger keys, not per session
        retained, _ = _retained(lambda: serve(16, 10_000))
        assert billing.total_invocations == 10_016
        assert retained <= 16 * 1024, f"{retained} B after 10 000 sessions"

    def test_a_whole_store_window_is_not_copied(self):
        """``trace_since`` over a 10 000-row store, with a window covering
        all of it, hands the store over (3.11: 0 B).  A slice copy of the
        columns allocated about 650 KB."""
        loop = EventLoop()
        network = FlowNetwork(loop, NetworkFabric())
        for batch in range(100):
            for index in range(100):
                network.transfer(
                    size_bytes=MB, function_bandwidth_bps=1e8,
                    host_id=f"host-{index}", host_capacity_bps=1e9,
                    proxy_id=f"proxy-{index % 16}",
                    label=f"proxy-{index % 16}:serving:obj-{batch}#{index}",
                )
            loop.run_all()
        retained, window = _retained(lambda: network.trace_since(0))
        assert len(window) == network.retired_flows == 10_000
        assert retained <= 1024, f"{retained} B for a whole-store window"

    def test_a_recorded_sample_costs_under_96_bytes(self):
        """The requests of the figure suite's trace, replayed open loop
        against the object store and unpickled as the parent receives them
        from a ``fan_out`` worker: one row of columns per request (3.11:
        about 61 B with its share of the key strings).  A list of
        ``RequestSample`` tuples held about 227 B per request."""
        trace = production.build_trace(production.ProductionScale())
        store = ObjectStore()
        report = OpenLoopBaselineDriver(ObjectStoreTarget(store), backing_store=store).run(trace)
        retained, samples = _retained(lambda: pickle.loads(pickle.dumps(report.samples)))
        assert len(samples) == len(trace) > 1000
        per_sample = retained / len(samples)
        assert per_sample <= 96, f"{per_sample:.0f} B per recorded sample"

    def test_a_trace_record_costs_under_64_bytes(self):
        """The figure suite's trace, unpickled as a ``fan_out`` worker
        receives it: one row of columns per record (3.11: about 37 B with
        its share of the key strings).  A list of ``TraceRecord``
        dataclasses held about 307 B per record."""
        trace = production.build_trace(production.ProductionScale())
        retained, records = _retained(lambda: pickle.loads(pickle.dumps(trace.records)))
        assert len(records) == len(trace) > 1000
        per_record = retained / len(records)
        assert per_record <= 64, f"{per_record:.0f} B per trace record"

    def test_a_label_is_one_string_however_often_it_moves(self):
        """Four clients re-reading four objects: every transfer of a chunk
        holds the same label string, in the flows and in the trace."""
        deployment = InfiniCacheDeployment(InfiniCacheConfig(
            num_proxies=1, lambdas_per_proxy=8, lambda_memory_bytes=512 * MIB,
            data_shards=4, parity_shards=2, backup_enabled=False, seed=7,
        ))
        seeder = deployment.new_client("seeder")
        for index in range(4):
            seeder.put_sized(f"obj-{index}", 4 * MB)
        plans = [[(f"obj-{(client + r) % 4}", 4 * MB) for r in range(12)] for client in range(4)]
        report = ClosedLoopDriver(deployment).run(plans)
        labels = report.flow_intervals.label
        assert len(labels) > 2 * len(set(labels))  # every label moved again
        assert len({id(label) for label in labels}) == len(set(labels))


#: One instance of each slotted record, a field and another value for it.
_RECORDS = [
    (CacheChunk.sized("photo/1", 3, 1024), "key", "other"),
    (CacheChunk(key="photo/2", index=0, size=4, payload=b"abcd"), "index", 1),
    (ObjectDescriptor(key="photo/1", object_size=4000, data_shards=4,
                      parity_shards=2, chunk_size=1000), "key", "other"),
    (ClientOp("PUT", key="photo/1", size=4000), "key", "other"),
    (ClientOp("SLEEP", delay_s=1.5), "delay_s", 2.0),
    (_ClockEntry(key="photo/1#3", value=1024), "referenced", False),
    (NodeAccess(0.013, True, False), "cold_start", True),
]


@pytest.mark.parametrize(
    "record, name, value", _RECORDS, ids=lambda item: type(item).__name__,
)
class TestSlottedRecords:
    def test_has_no_instance_dict(self, record, name, value):
        assert not hasattr(record, "__dict__")

    def test_pickle_round_trip(self, record, name, value):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record
        assert dataclasses.astuple(copy) == dataclasses.astuple(record)

    def test_replace(self, record, name, value):
        assert dataclasses.replace(record) == record
        changed = dataclasses.replace(record, **{name: value})
        assert getattr(changed, name) == value and changed != record
        assert getattr(record, name) != value

    def test_assignment(self, record, name, value):
        if not type(record).__dataclass_params__.frozen:
            record = dataclasses.replace(record)
            setattr(record, name, value)
            assert getattr(record, name) == value
            return
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)
        # A name that is not a field has no slot; which error says so
        # depends on the Python version.
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1

"""Tests for the flow-level network model: dynamic bandwidth sharing.

Satellite coverage for ``NetworkFabric`` shared-NIC accounting under flows
that join and leave mid-transfer — the dynamic path the event-driven
request drivers exercise — plus the differential property test pinning the
incremental bottleneck-group arbiter byte-for-byte against the
global-recompute reference, and the columnar ``FlowTrace`` pinned against
the deque of named tuples it replaced.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import random
import tracemalloc
from collections import deque
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.network.flows import (
    ARBITER_NAMES,
    FlowInterval,
    FlowNetwork,
    FlowTrace,
    ReferenceFlowNetwork,
    resolve_arbiter,
)
from repro.network.topology import NetworkFabric
from repro.sim import EventLoop, SimFuture
from repro.workload.replay import ConcurrentReplayReport, RequestSample, RequestSamples

MB = 1_000_000.0


def first_n(count: int, futures) -> SimFuture:
    """A gate resolving, inside the resolve of the ``count``-th input to
    resolve, with those inputs' results; a cancelled input never counts.
    The first-d-of-n race of a GET, over bare flows."""
    gate = SimFuture("quorum")
    winners: list[object] = []

    def on_done(future: SimFuture) -> None:
        if gate.done or future.cancelled:
            return
        winners.append(future.result)
        if len(winners) == count:
            gate.resolve(winners)

    for future in futures:
        future.add_done_callback(on_done)
    return gate


#: Every arbiter, each pinned against a fresh reference sweep below (the
#: reference leg pins the oracle's own run-to-run determinism).
ARBITERS = [
    pytest.param(resolve_arbiter(name), id=name) for name in ARBITER_NAMES
]


def make_network(proxy_uplink_bps: float = 10_000 * MB) -> tuple[EventLoop, FlowNetwork]:
    loop = EventLoop()
    fabric = NetworkFabric(proxy_uplink_bps=proxy_uplink_bps)
    return loop, FlowNetwork(loop, fabric)


def start(net: FlowNetwork, *, size: float, host: str = "h0", cap: float = 100 * MB,
          fn_cap: float = 1_000 * MB, proxy: str = "p0", label: str = ""):
    return net.transfer(
        size_bytes=size, function_bandwidth_bps=fn_cap, host_id=host,
        host_capacity_bps=cap, proxy_id=proxy, label=label,
    )


class TestSoloFlow:
    def test_completes_at_size_over_bottleneck(self):
        loop, net = make_network()
        flow = start(net, size=100 * MB)  # host NIC 100 MB/s is the bottleneck
        done = []
        flow.add_done_callback(lambda f: done.append(loop.now))
        loop.run_all()
        assert done == [pytest.approx(1.0)]
        assert net.active_count == 0
        [interval] = net.trace
        assert interval.completed
        assert interval.started_at == 0.0
        assert interval.ended_at == pytest.approx(1.0)
        assert interval.bytes_moved == pytest.approx(100 * MB)

    def test_function_cap_binds_when_smaller(self):
        loop, net = make_network()
        flow = start(net, size=50 * MB, fn_cap=50 * MB)
        loop.run_all()
        assert flow.done
        assert net.trace[0].ended_at == pytest.approx(1.0)

    def test_rejects_degenerate_flows(self):
        loop, net = make_network()
        with pytest.raises(SimulationError):
            start(net, size=0)
        with pytest.raises(SimulationError):
            start(net, size=1.0, fn_cap=0)


class TestJoinAndLeaveMidTransfer:
    def test_joiner_slows_the_incumbent_and_departure_speeds_it_up(self):
        loop, net = make_network()
        nic_capacity = 100 * MB
        incumbent = start(net, size=100 * MB, cap=nic_capacity, label="incumbent")
        ends: dict[str, float] = {}
        incumbent.add_done_callback(lambda f: ends.setdefault("incumbent", loop.now))

        # At t=0.5 the incumbent has moved 50 MB; a joiner halves its share.
        loop.run_until(0.5)
        joiner = start(net, size=25 * MB, cap=nic_capacity, label="joiner")
        joiner.add_done_callback(lambda f: ends.setdefault("joiner", loop.now))
        nic = net.fabric.hosts["h0"]
        assert nic.concurrent_flows == 2
        assert incumbent.rate_bps == pytest.approx(nic_capacity / 2)

        loop.run_all()
        # Joiner: 25 MB at 50 MB/s -> finishes at t=1.0; incumbent then has
        # 25 MB left and the full NIC again -> finishes at t=1.25 (instead
        # of t=1.0 solo or t=1.5 under a static halved share).
        assert ends["joiner"] == pytest.approx(1.0)
        assert ends["incumbent"] == pytest.approx(1.25)
        assert nic.concurrent_flows == 0

    def test_nic_accounting_tracks_live_membership(self):
        loop, net = make_network()
        first = start(net, size=100 * MB)
        assert net.flows_on_host("h0") == 1
        loop.run_until(0.2)
        second = start(net, size=100 * MB)
        assert net.flows_on_host("h0") == 2
        # Per-flow share is capacity / live flows, straight from the NIC.
        assert net.fabric.hosts["h0"].effective_bandwidth() == pytest.approx(50 * MB)
        loop.run_all()
        assert net.flows_on_host("h0") == 0
        assert first.done and second.done

    def test_byte_conservation_across_rate_changes(self):
        loop, net = make_network()
        sizes = [80 * MB, 50 * MB, 20 * MB]
        flows = []
        for index, size in enumerate(sizes):
            loop.run_until(0.1 * index)
            flows.append(start(net, size=size, label=f"f{index}"))
        loop.run_all()
        assert len(net.trace) == 3
        for interval, size in zip(sorted(net.trace, key=lambda i: i.flow_id), sizes):
            assert interval.completed
            assert interval.bytes_moved == pytest.approx(size)


class TestCancellation:
    def test_cancel_releases_share_and_records_partial_progress(self):
        loop, net = make_network()
        survivor = start(net, size=100 * MB, label="survivor")
        straggler = start(net, size=100 * MB, label="straggler")
        loop.run_until(0.5)  # each has moved 25 MB at 50 MB/s
        assert net.cancel(straggler) is True
        assert straggler.cancelled
        partial = [i for i in net.trace if not i.completed]
        assert len(partial) == 1
        assert partial[0].label == "straggler"
        assert partial[0].bytes_moved == pytest.approx(25 * MB)
        loop.run_all()
        # Survivor gets the full NIC back: 75 MB at 100 MB/s from t=0.5.
        done = [i for i in net.trace if i.completed]
        assert done[0].ended_at == pytest.approx(1.25)
        assert net.fabric.hosts["h0"].concurrent_flows == 0

    def test_cancelling_the_future_tears_down_the_flow(self):
        loop, net = make_network()
        flow = start(net, size=100 * MB)
        loop.run_until(0.25)
        flow.cancel()
        assert net.active_count == 0
        assert not net.trace[0].completed
        loop.run_all()  # the stale completion event must not fire
        assert len(net.trace) == 1

    def test_double_cancel_is_a_noop(self):
        loop, net = make_network()
        flow = start(net, size=10 * MB)
        assert net.cancel(flow) is True
        assert net.cancel(flow) is False


def _cancel_one_flow(arbiter, way: str):
    """Cancel one of three flows mid-transfer, with a process waiting on it,
    and return what every observer saw."""
    loop = EventLoop()
    net = arbiter(loop, NetworkFabric(proxy_uplink_bps=150 * MB))
    doomed = start(net, size=100 * MB, label="doomed")
    same_nic = start(net, size=100 * MB, label="same-nic")
    same_uplink = start(net, size=100 * MB, host="h1", label="same-uplink")
    log: list = []
    closed: list = []

    def waiter():
        try:
            yield doomed
        finally:
            closed.append(loop.now)

    waiting = loop.spawn(waiter(), "waiter")
    doomed.on_cancel(lambda: log.append(("hook", net.active_count)))
    doomed.add_done_callback(lambda f: log.append(("first", f.cancelled, loop.now)))
    doomed.add_done_callback(lambda f: log.append(("second", f.cancelled, loop.now)))
    loop.run_until(0.4)
    if way == "flow.cancel()":
        assert doomed.cancel() is True
    elif way == "its waiter cancelled":
        assert waiting.cancel() is True
    else:
        assert net.cancel(doomed) is True
    shares = [
        (flow.label, flow.rate_bps, flow.nic.concurrent_flows) for flow in (same_nic, same_uplink)
    ]
    settled = list(log)
    assert doomed.cancel() is False and net.cancel(doomed) is False
    loop.run_all()
    assert log == settled  # settled once: nothing ran again
    assert closed == [0.4] and waiting.done
    return list(net.trace), shares, log


class TestOneFlowOneSettlement:
    """The three ways to abandon a transfer end in the same state."""

    @pytest.mark.parametrize("arbiter", ARBITERS)
    def test_three_ways_to_cancel_agree(self, arbiter):
        ways = ["flow.cancel()", "its waiter cancelled", "FlowNetwork.cancel(flow)"]
        outcomes = [_cancel_one_flow(arbiter, way) for way in ways]
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        trace, shares, log = outcomes[0]
        assert [(row.label, row.completed) for row in trace] == [
            ("doomed", False), ("same-nic", True), ("same-uplink", True),
        ]
        assert shares == [("same-nic", 75 * MB, 1), ("same-uplink", 75 * MB, 1)]  # the uplink binds
        # The shares go first, then the hooks, then the callbacks in the
        # order they were added.
        assert log == [("hook", 2), ("first", True, 0.4), ("second", True, 0.4)]

    @pytest.mark.parametrize("arbiter", ARBITERS)
    def test_a_bad_completion_deadline_names_the_flow(self, arbiter):
        loop = EventLoop()
        net = arbiter(loop, NetworkFabric())
        flow = start(net, size=100 * MB, label="p0:serving:obj#3")
        loop.run_until(0.5)
        if arbiter is ReferenceFlowNetwork:
            # Eager completion events: every re-aim is a fresh schedule.
            with pytest.raises(ValueError, match="p0:serving:obj#3"):
                net._aim(flow, float("nan"))
            with pytest.raises(SimulationError, match="p0:serving:obj#3"):
                net._aim(flow, 0.25)
            return
        with pytest.raises(ValueError, match="p0:serving:obj#3"):
            flow._completion.set_deadline(float("nan"))
        with pytest.raises(SimulationError, match="p0:serving:obj#3"):
            flow._completion.set_deadline(0.25)


class TestProxyUplinkSharing:
    def test_same_proxy_flows_split_the_uplink(self):
        loop, net = make_network(proxy_uplink_bps=100 * MB)
        a = start(net, size=50 * MB, host="h0", cap=1_000 * MB, proxy="p0")
        b = start(net, size=50 * MB, host="h1", cap=1_000 * MB, proxy="p0")
        assert a.rate_bps == pytest.approx(50 * MB)
        assert b.rate_bps == pytest.approx(50 * MB)
        assert net.active_count == 2  # both flows cross p0's uplink
        loop.run_all()
        assert net.trace[0].ended_at == pytest.approx(1.0)

    def test_distinct_proxies_do_not_contend(self):
        loop, net = make_network(proxy_uplink_bps=100 * MB)
        a = start(net, size=50 * MB, host="h0", cap=1_000 * MB, proxy="p0")
        b = start(net, size=50 * MB, host="h1", cap=1_000 * MB, proxy="p1")
        assert a.rate_bps == pytest.approx(100 * MB)
        assert b.rate_bps == pytest.approx(100 * MB)
        loop.run_all()
        assert all(i.ended_at == pytest.approx(0.5) for i in net.trace)


class TestTraceIntrospection:
    def test_max_concurrent_counts_overlapping_intervals(self):
        loop, net = make_network()
        start(net, size=100 * MB, host="h0")
        start(net, size=100 * MB, host="h1")
        loop.run_until(0.5)
        start(net, size=10 * MB, host="h2")
        loop.run_all()
        assert net.max_concurrent() == 3

    def test_intervals_overlap_predicate(self):
        loop, net = make_network()
        start(net, size=100 * MB, host="h0")
        start(net, size=50 * MB, host="h1")
        loop.run_all()
        first, second = net.trace
        assert first.overlaps(second) and second.overlaps(first)


# ---------------------------------------------------------------------- incremental arbiter
#: Uplink capacities (MB/s) for the differential: never binding, binding
#: for the fast functions only, crossing with the occupancy, always binding.
UPLINKS_MB = (10_000, 400, 150, 60)

#: Function-bandwidth mixes (MB/s).  ``late-fast`` is the slow mix plus one
#: 1 000 MB/s function that joins at t = 1.5 s, after the bound has settled.
FUNCTION_CAPS_MB = {"slow": (40, 80), "mixed": (40, 80, 1_000), "late-fast": (40, 80)}


def _random_schedule(seed: int, caps: str = "mixed", stripes: bool = False,
                     flips: bool = False, operations: int = 120):
    """A reproducible join/leave/abandon schedule over shared NICs/uplinks.

    Returns time-sorted ``(time, kind, payload)`` records:

    * ``start`` opens a transfer at a staggered timestamp — or, with
      ``stripes``, three equal-size siblings on one uplink plus the
      parameters of the follow-up transfers their first-2-of-3 gate starts,
      before or after it cancels the loser;
    * ``abandon`` cancels a started transfer some time later (a no-op if it
      already completed, which both arbiters must agree on);
    * ``flip`` (with ``flips``) sets a host NIC's ``degradation_factor``
      and re-arbitrates it, as the chaos engine does at a window edge.
    """
    rng = random.Random(seed)

    def params(label: str, **fixed):
        drawn = dict(
            size_bytes=rng.choice([1, 4, 10, 25]) * MB,
            function_bandwidth_bps=rng.choice(FUNCTION_CAPS_MB[caps]) * MB,
            host_id=f"h{rng.randrange(6)}",
            host_capacity_bps=100 * MB,
            proxy_id=f"p{rng.randrange(3)}",
            label=label,
        )
        drawn.update(fixed)
        return drawn

    schedule = []
    for index in range(operations):
        start_at = round(rng.uniform(0.0, 3.0), 6)
        first = params(f"op-{index}")
        if stripes:
            shared = dict(size_bytes=first["size_bytes"], proxy_id=first["proxy_id"])
            payload = {
                "chunks": [first] + [
                    params(f"op-{index}/{sibling}", **shared) for sibling in (1, 2)
                ],
                # One or two follow-ups, on the stripe's uplink or anywhere,
                # started after the loser is cancelled or before: occupancy
                # falls then rises, or rises above where it was and falls
                # back (an uplink can then bind mid-cascade and at neither
                # end of it).
                "follow_ups": [
                    params(f"op-{index}/next-{n}", **rng.choice([{}, shared]))
                    for n in range(rng.choice([1, 2]))
                ],
                "follow_ups_first": rng.random() < 0.5,
            }
        else:
            payload = first
        schedule.append((start_at, "start", payload))
        if rng.random() < 0.35:
            schedule.append((round(start_at + rng.uniform(0.01, 1.0), 6), "abandon", f"op-{index}"))
    if caps == "late-fast":
        schedule.append((1.5, "start", params("late-fast", function_bandwidth_bps=1_000 * MB)))
    if flips:
        for _ in range(12):
            schedule.append((
                round(rng.uniform(0.2, 3.5), 6), "flip",
                (f"h{rng.randrange(6)}", rng.choice([0.2, 0.5, 1.0])),
            ))
    schedule.sort(key=lambda item: (item[0], item[1] == "start"))
    return schedule


def _drive(network_cls, seed: int, uplink_mb: float = 400, **schedule_kwargs):
    loop = EventLoop()
    net = network_cls(loop, NetworkFabric(proxy_uplink_bps=uplink_mb * MB))
    flows: dict[str, object] = {}

    def start(params):
        flow = flows[params["label"]] = net.transfer(**params)
        return flow

    def start_stripe(stripe):
        siblings = [start(params) for params in stripe["chunks"]]

        def settle(_gate):
            # Runs inside the winning flow's ``future.resolve``: the losers
            # are cancelled and the next transfer starts mid-cascade.
            if stripe["follow_ups_first"]:
                for params in stripe["follow_ups"]:
                    start(params)
            for flow in siblings:
                if not flow.done:
                    net.cancel(flow)
            if not stripe["follow_ups_first"]:
                for params in stripe["follow_ups"]:
                    start(params)

        first_n(2, siblings).add_done_callback(settle)

    def abandon(label):
        flow = flows.get(label)
        if flow is not None:
            net.cancel(flow)

    def flip(host_id, factor):
        net.fabric.host(host_id, 100 * MB).degradation_factor = factor
        net.reassess_host(host_id)

    for time, kind, payload in _random_schedule(seed, **schedule_kwargs):
        if kind == "flip":
            loop.schedule_at(time, lambda p=payload: flip(*p), label="diff.flip")
        elif kind == "abandon":
            loop.schedule_at(time, lambda l=payload: abandon(l), label="diff.abandon")
        elif "chunks" in payload:
            loop.schedule_at(time, lambda p=payload: start_stripe(p), label="diff.stripe")
        else:
            loop.schedule_at(time, lambda p=payload: start(p), label="diff.start")
    loop.run_all()
    return net, loop


def _assert_same_simulation(network, net_loop, reference, ref_loop):
    # Byte-for-byte: every retired interval (timestamps, byte counts,
    # completion flags) and the retirement order itself must match.
    assert network.trace == reference.trace
    assert network.max_concurrent() == reference.max_concurrent()
    assert network.flow_stats() == reference.flow_stats()
    # Virtual time is identical; the *dispatch* counts may differ (the
    # lazy completion timers add cheap early firings that re-arm, while
    # the eager reference cancels and reschedules instead) — but the
    # lazy idiom must never cancel more events than the eager one.
    assert net_loop.now == ref_loop.now
    assert (
        net_loop.queue.stats()["cancelled"] <= ref_loop.queue.stats()["cancelled"]
    )


class TestIncrementalMatchesReference:
    """The correctness pin: both arbiters are byte-identical."""

    @pytest.mark.parametrize("network_cls", ARBITERS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2020, 31337])
    def test_differential_random_schedules(self, network_cls, seed):
        network, net_loop = _drive(network_cls, seed)
        reference, ref_loop = _drive(ReferenceFlowNetwork, seed)
        _assert_same_simulation(network, net_loop, reference, ref_loop)

    @pytest.mark.parametrize("flips", [False, True], ids=["steady-nics", "nic-flips"])
    @pytest.mark.parametrize("stripes", [False, True], ids=["single", "first-2-of-3"])
    @pytest.mark.parametrize("caps", list(FUNCTION_CAPS_MB))
    @pytest.mark.parametrize("uplink_mb", UPLINKS_MB)
    @pytest.mark.parametrize("seed", [3, 11, 2020])
    def test_differential_across_binding_regimes(self, seed, uplink_mb, caps, stripes, flips):
        """The 400 MB/s uplink against a 1 000 MB/s function cap above keeps
        every uplink binding, so nothing there is ever left out of a sweep;
        here the uplink never binds, binds for some members only, crosses
        with the occupancy and always binds, with cascades that cancel and
        start transfers inside a resolve and with NIC capacity flips."""
        kwargs = dict(uplink_mb=uplink_mb, caps=caps, stripes=stripes, flips=flips,
                      operations=60)
        network, net_loop = _drive(FlowNetwork, seed, **kwargs)
        reference, ref_loop = _drive(ReferenceFlowNetwork, seed, **kwargs)
        _assert_same_simulation(network, net_loop, reference, ref_loop)
        # Same simulation, same re-aims, same consumed sequence numbers —
        # from a subset of the visits.
        assert network.flows_reaimed == reference.flows_reaimed
        assert net_loop.queue.reserve_sequence() == ref_loop.queue.reserve_sequence()
        assert network.flows_swept < reference.flows_swept

    def test_groups_empty_after_drain(self):
        net, _loop = _drive(FlowNetwork, seed=3, uplink_mb=150, stripes=True, flips=True)
        assert net.active_count == 0
        assert net._by_host == {}
        assert net._by_proxy == {}
        assert net._uplink_share == {}
        assert net._uplink_bound == {}
        assert all(nic.concurrent_flows == 0 for nic in net.fabric.hosts.values())


class TestUplinkBindTest:
    """Hand-built boundaries of the O(1) test in front of the uplink sweep.

    Every flow gets a NIC of its own with capacity to spare, so its
    host-side cap is its function bandwidth and the 300 MB/s uplink's share
    (150, 100, 75 MB/s at 2, 3, 4 streams) is the only thing that moves.
    """

    @staticmethod
    def _start(net, host: str, fn_mb: float = 100, size_mb: float = 100):
        return start(net, size=size_mb * MB, host=host, cap=1_000 * MB,
                     fn_cap=fn_mb * MB, label=host)

    @staticmethod
    def _swept_by(net, action):
        before = net.flows_swept
        result = action()
        return result, net.flows_swept - before

    def test_bound_equal_to_the_share_is_not_swept(self):
        _loop, net = make_network(proxy_uplink_bps=300 * MB)
        a, b = self._start(net, "h0"), self._start(net, "h1")
        # Third stream: the share falls to exactly the bound; min(cap, share)
        # is still the cap, so only the newcomer (through its NIC) is visited.
        c, swept = self._swept_by(net, lambda: self._start(net, "h2"))
        assert swept == 1
        assert net._uplink_bound["p0"] == net._uplink_share["p0"] == 100 * MB
        assert [flow.rate_bps for flow in (a, b, c)] == [100 * MB] * 3
        # Fourth stream: 75 MB/s binds everyone, the group is swept in full.
        d, swept = self._swept_by(net, lambda: self._start(net, "h3"))
        assert swept == 4
        assert [flow.rate_bps for flow in (a, b, c, d)] == [75 * MB] * 4

    def test_faster_function_joining_a_skipped_group(self):
        _loop, net = make_network(proxy_uplink_bps=300 * MB)
        a, b = self._start(net, "h0"), self._start(net, "h1")
        fast, swept = self._swept_by(net, lambda: self._start(net, "h2", fn_mb=1_000))
        # The group was judged on its old bound and left out; the newcomer
        # was rated through its NIC and raised the bound on the way.
        assert swept == 1
        assert fast.rate_bps == 100 * MB
        assert net._uplink_bound["p0"] == 1_000 * MB
        # So the next leave sweeps the group and the fast flow speeds up.
        _, swept = self._swept_by(net, lambda: net.cancel(a))
        assert swept == 2
        assert fast.rate_bps == 150 * MB
        assert b.rate_bps == 100 * MB

    def test_full_sweep_resets_the_bound_to_the_exact_maximum(self):
        _loop, net = make_network(proxy_uplink_bps=300 * MB)
        fast = self._start(net, "h0", fn_mb=1_000)
        self._start(net, "h1")
        self._start(net, "h2")
        assert net._uplink_bound["p0"] == 1_000 * MB
        net.cancel(fast)  # bound 1 000 > share: swept in full, without `fast`
        assert net._uplink_bound["p0"] == 100 * MB
        _, swept = self._swept_by(net, lambda: self._start(net, "h3"))
        assert swept == 1  # 100 MB/s share against a 100 MB/s bound again

    def test_group_that_empties_and_refills_starts_from_no_state(self):
        loop, net = make_network(proxy_uplink_bps=300 * MB)
        net.cancel(self._start(net, "h0", fn_mb=1_000))
        assert net._uplink_share == {} and net._uplink_bound == {}
        self._start(net, "h1", fn_mb=50)
        assert net._uplink_bound == {"p0": 50 * MB}
        assert net._uplink_share == {"p0": 300 * MB}
        loop.run_all()
        assert net._uplink_share == {} and net._uplink_bound == {}

    @pytest.mark.parametrize("falls_back", [False, True],
                             ids=["still-binding-at-the-end", "binds-mid-cascade-only"])
    def test_uplink_crossing_inside_one_cascade(self, falls_back):
        """Three streams share 100 MB/s each (not binding).  The first one's
        completion starts two more inside its resolve: 75 MB/s binds, so
        the second start sweeps the group and slows the two survivors.
        Either the cascade ends with the uplink still binding, or the two
        newcomers are cancelled again inside it and the group looks
        untouched at both ends — the survivors were still re-aimed twice,
        and every re-aim consumed the sequence number the reference's did."""

        def drive(network_cls):
            loop = EventLoop()
            net = network_cls(loop, NetworkFabric(proxy_uplink_bps=300 * MB))
            first = self._start(net, "h0", size_mb=10)
            survivors = [self._start(net, "h1"), self._start(net, "h2")]
            seen = {}

            def cascade(_future):
                late = [self._start(net, "h3"), self._start(net, "h4")]
                seen["rates_mid_cascade"] = [flow.rate_bps for flow in survivors]
                if falls_back:
                    for flow in late:
                        net.cancel(flow)

            first.add_done_callback(cascade)
            loop.run_until(0.1)  # `first` completes at t = 0.1 s
            seen["rates"] = [flow.rate_bps for flow in survivors]
            loop.run_all()
            return net, loop, seen

        net, net_loop, seen = drive(FlowNetwork)
        reference, ref_loop, ref_seen = drive(ReferenceFlowNetwork)
        assert seen["rates_mid_cascade"] == ref_seen["rates_mid_cascade"] == [75 * MB] * 2
        assert seen["rates"] == ref_seen["rates"] == [
            (100 if falls_back else 75) * MB  # their own cap again, or the share
        ] * 2
        _assert_same_simulation(net, net_loop, reference, ref_loop)
        assert net.flows_reaimed == reference.flows_reaimed
        assert net_loop.queue.reserve_sequence() == ref_loop.queue.reserve_sequence()

    def test_cascade_ties_finish_in_flow_id_order(self):
        """Sequence numbers are consumed in the order flows are swept, not
        in the order a cascade first touched them.  Here flow 3 speeds up
        before flow 1, four newcomers then slow both and the last one
        leaving speeds both up again, to the same finish time: flow 1 must
        get the smaller number in that last sweep, as under the reference —
        the trace order depends on it."""

        def drive(network_cls):
            loop = EventLoop()
            net = network_cls(loop, NetworkFabric(proxy_uplink_bps=300 * MB))

            def flow(host, size_mb=60.0, fn_mb=1_000):
                return start(net, size=size_mb * MB, host=host, cap=60 * MB,
                             fn_cap=fn_mb * MB, label=host)

            first = flow("hx", size_mb=3, fn_mb=30)
            low, low_neighbour = flow("ha"), flow("ha")
            high, high_neighbour = flow("hb"), flow("hb")
            seen = {}

            def cascade(_future):
                net.cancel(high_neighbour)  # flow 3 alone on its NIC: re-aimed
                net.cancel(low_neighbour)   # then flow 1
                seen["rates_mid_cascade"] = [low.rate_bps, high.rate_bps]
                # Four slow newcomers take the share from 150 to 50 MB/s, under
                # the two fast flows' 60; the last one leaving lifts it back.
                late = [flow(f"h{n}", size_mb=100, fn_mb=30) for n in range(4)]
                net.cancel(late[-1])

            first.add_done_callback(cascade)
            loop.run_all()
            assert low.done and high.done
            return net, loop, seen

        net, net_loop, seen = drive(FlowNetwork)
        reference, ref_loop, ref_seen = drive(ReferenceFlowNetwork)
        assert seen["rates_mid_cascade"] == ref_seen["rates_mid_cascade"] == [60 * MB] * 2
        finished = [i.flow_id for i in net.trace if i.completed and i.flow_id in (1, 3)]
        assert finished == [1, 3]
        [finish] = {i.ended_at for i in net.trace if i.flow_id in (1, 3)}
        assert finish == pytest.approx(1.05)
        _assert_same_simulation(net, net_loop, reference, ref_loop)
        assert net.flows_reaimed == reference.flows_reaimed
        assert net_loop.queue.reserve_sequence() == ref_loop.queue.reserve_sequence()


class TestArbiterMeters:
    def test_every_start_and_retirement_is_one_metered_transition(self):
        """A first-d fan-in: three flows on one uplink, the first completion
        cancels one sibling and starts a follow-up inside its resolve.  The
        profile must count those two nested sweeps like any other."""
        loop, net = make_network(proxy_uplink_bps=150 * MB)
        profile = loop.enable_profiling()
        first = start(net, size=10 * MB, host="h0")
        kept, loser = start(net, size=40 * MB, host="h1"), start(net, size=40 * MB, host="h2")

        def cascade(_future):
            net.cancel(loser)
            start(net, size=10 * MB, host="h3")

        first.add_done_callback(cascade)
        loop.run_all()
        loop.disable_profiling()
        assert kept.done and net.active_count == 0
        stats = net.flow_stats()
        assert (stats["completed_flows"], stats["abandoned_flows"]) == (3.0, 1.0)
        assert profile.arbiter_transitions == 4 + 4  # starts + retirements
        assert profile.flows_swept == net.flows_swept
        assert profile.flows_reaimed == net.flows_reaimed


class TestRunningPeak:
    def test_peak_is_running_high_water_mark(self):
        loop, net = make_network()
        start(net, size=100 * MB, host="h0")
        start(net, size=100 * MB, host="h1")
        assert net.max_concurrent() == 2
        loop.run_all()
        # The peak survives after every flow retires (O(1), no trace sweep).
        assert net.active_count == 0
        assert net.max_concurrent() == 2

    def test_peak_ignores_back_to_back_transfers(self):
        loop, net = make_network()
        first = start(net, size=10 * MB)
        loop.run_all()
        assert first.done
        start(net, size=10 * MB)
        loop.run_all()
        assert net.max_concurrent() == 1

    def test_peak_counts_abandoned_flows_while_live(self):
        loop, net = make_network()
        straggler = start(net, size=100 * MB)
        start(net, size=100 * MB)
        net.cancel(straggler)
        loop.run_all()
        assert net.max_concurrent() == 2


class TestTraceLimit:
    def test_rejects_negative_limit(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            FlowNetwork(loop, NetworkFabric(), trace_limit=-1)

    def test_retains_only_the_newest_intervals(self):
        loop = EventLoop()
        net = FlowNetwork(loop, NetworkFabric(proxy_uplink_bps=10_000 * MB), trace_limit=3)
        for index in range(8):
            loop.schedule_at(
                float(index),
                lambda i=index: net.transfer(
                    size_bytes=1 * MB, function_bandwidth_bps=100 * MB,
                    host_id=f"h{i}", host_capacity_bps=100 * MB,
                    proxy_id="p0", label=f"t{i}",
                ),
            )
        loop.run_all()
        assert len(net.trace) == 3
        assert [interval.label for interval in net.trace] == ["t5", "t6", "t7"]
        assert net.trace_dropped == 5

    def test_aggregates_unchanged_by_eviction(self):
        def totals(trace_limit):
            loop = EventLoop()
            net = FlowNetwork(
                loop, NetworkFabric(proxy_uplink_bps=10_000 * MB), trace_limit=trace_limit
            )
            flows = []
            for index in range(10):
                loop.schedule_at(
                    index * 0.1,
                    lambda i=index: flows.append(net.transfer(
                        size_bytes=5 * MB, function_bandwidth_bps=100 * MB,
                        host_id=f"h{i % 2}", host_capacity_bps=100 * MB,
                        proxy_id="p0", label=f"t{i}",
                    )),
                )
            loop.schedule_at(0.25, lambda: net.cancel(flows[0]))
            loop.run_all()
            return net.flow_stats(), net.max_concurrent()

        unbounded_stats, unbounded_peak = totals(None)
        bounded_stats, bounded_peak = totals(2)
        for key in ("completed_flows", "abandoned_flows", "bytes_completed",
                    "bytes_abandoned", "peak_concurrent_flows"):
            assert bounded_stats[key] == unbounded_stats[key]
        assert bounded_peak == unbounded_peak
        assert bounded_stats["trace_retained"] == 2.0

    def test_trace_since_survives_eviction(self):
        loop = EventLoop()
        net = FlowNetwork(loop, NetworkFabric(proxy_uplink_bps=10_000 * MB), trace_limit=2)
        marker = net.trace_marker()
        for index in range(5):
            loop.schedule_at(
                float(index),
                lambda i=index: net.transfer(
                    size_bytes=1 * MB, function_bandwidth_bps=100 * MB,
                    host_id="h0", host_capacity_bps=100 * MB,
                    proxy_id="p0", label=f"t{i}",
                ),
            )
        loop.run_all()
        # Three of the five intervals were evicted; the window degrades to
        # whatever is still retained instead of mis-slicing by stale index.
        assert [i.label for i in net.trace_since(marker)] == ["t3", "t4"]
        assert len(net.trace_since(net.trace_marker())) == 0


class TestQuorumTieOrder:
    """Heap tie-breaking is observable: which straggler a first-d quorum
    abandons is decided by the ``(time, sequence)`` order of completion
    events that all land on the same float instant.  The lazy deadline
    timers and deferred-transition coalescing must reserve exactly the
    sequence numbers the eager cancel-and-reschedule idiom would have
    consumed, or a *different* chunk loses the race and every erasure-coded
    fingerprint flips.  This pins that invariant across both arbiters.
    """

    CHUNKS = 11
    QUORUM = 10

    def _drive_quorum(self, network_cls):
        loop = EventLoop()
        net = network_cls(loop, NetworkFabric(proxy_uplink_bps=400 * MB))
        flows = [
            net.transfer(
                size_bytes=10 * MB,
                function_bandwidth_bps=80 * MB,
                host_id=f"h{index}",
                host_capacity_bps=100 * MB,
                proxy_id="p0",
                label=f"chunk-{index}",
            )
            for index in range(self.CHUNKS)
        ]
        gate = first_n(self.QUORUM, flows)

        def abandon_stragglers(_):
            for flow in flows:
                if not flow.done:
                    net.cancel(flow)

        gate.add_done_callback(abandon_stragglers)
        loop.run_all()
        return [
            (interval.label, interval.completed, interval.ended_at)
            for interval in net.trace
        ]

    def test_all_arbiters_abandon_the_same_chunk(self):
        # Equal-size chunks through one shared proxy uplink finish at the
        # same instant; the quorum callback cancels whichever chunk's
        # completion event drew the *last* sequence number.
        expected = self._drive_quorum(ReferenceFlowNetwork)
        abandoned = [label for label, completed, _ in expected if not completed]
        assert len(abandoned) == 1
        ends = {end for _, _, end in expected}
        assert len(ends) == 1  # a genuine tie: every interval ends together
        assert self._drive_quorum(FlowNetwork) == expected


class TestArbiterResolution:
    def test_scalar_names_resolve(self):
        assert resolve_arbiter("incremental") is FlowNetwork
        assert resolve_arbiter("reference") is ReferenceFlowNetwork

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError):
            resolve_arbiter("quantum")

    def test_vectorized_name_is_rejected(self):
        # The numpy arbiter was deleted, not aliased: the name is unknown.
        assert ARBITER_NAMES == ("incremental", "reference")
        with pytest.raises(SimulationError, match="incremental"):
            resolve_arbiter("vectorized")


# ---------------------------------------------------------------------- FlowTrace
class _TupleDequeNetwork(FlowNetwork):
    """A network that also keeps the trace as the deque of named tuples the
    columnar store replaced, with that store's expressions verbatim."""

    def __init__(self, loop, fabric, trace_limit=None):
        super().__init__(loop, fabric, trace_limit=trace_limit)
        self.tuples: deque[FlowInterval] = deque(maxlen=trace_limit)
        self.tuples_dropped = 0

    def _retire(self, flow, now, completed):
        super()._retire(flow, now, completed)
        trace = self.tuples
        if trace.maxlen is not None and len(trace) == trace.maxlen:
            self.tuples_dropped += 1
        trace.append(FlowInterval(
            flow.flow_id, flow.label, flow.nic.host_id, flow.proxy_id,
            int(flow.size_bytes), flow.started_at, now, completed, flow.bytes_moved,
        ))

    def tuples_since(self, marker):
        return list(islice(self.tuples, max(0, marker - self.tuples_dropped), None))


def _trace_of(intervals) -> FlowTrace:
    trace = FlowTrace()
    for interval in intervals:
        trace._append(*interval)
    return trace


def _samples_of(samples) -> RequestSamples:
    store = RequestSamples()
    for sample in samples:
        store.append(*sample)
    return store


def _tuple_fingerprint(samples, intervals) -> str:
    """``ConcurrentReplayReport.fingerprint`` as it read named tuples."""
    hasher = hashlib.sha256()
    for sample in samples:
        hasher.update(
            f"{sample.client_id}|{sample.key}|{sample.size}|"
            f"{sample.started_at:.9f}|{sample.finished_at:.9f}|"
            f"{int(sample.hit)}|{int(sample.reset)}\n".encode()
        )
    for interval in intervals:
        hasher.update(
            f"{interval.label}|{interval.host_id}|{interval.size_bytes}|"
            f"{interval.started_at:.9f}|{interval.ended_at:.9f}|"
            f"{int(interval.completed)}\n".encode()
        )
    return hasher.hexdigest()


#: One transfer: (start instant, MB moved, host, proxy, abandon after s or None).
_transfers = st.lists(
    st.tuples(
        st.integers(0, 12).map(lambda quarter: quarter * 0.25),
        st.integers(1, 40),
        st.integers(0, 2),
        st.integers(0, 1),
        st.one_of(st.none(), st.sampled_from([0.0, 0.1, 0.3, 1.0])),
    ),
    max_size=24,
)


def _replay_transfers(transfers, trace_limit, probes):
    """Run ``transfers`` on a :class:`_TupleDequeNetwork`; at each probe
    instant take a marker and check every earlier marker's window.  At the
    end every window a probe took is checked again against the tuples it
    matched then: later transfers and evictions must not reach it."""
    loop = EventLoop()
    net = _TupleDequeNetwork(
        loop, NetworkFabric(proxy_uplink_bps=400 * MB), trace_limit=trace_limit
    )
    markers: list[int] = []
    windows: list[tuple[FlowTrace, list[FlowInterval]]] = []

    def begin(index, size_mb, host, proxy, abandon_after):
        flow = net.transfer(
            size_bytes=size_mb * MB, function_bandwidth_bps=80 * MB,
            host_id=f"host-{host}", host_capacity_bps=100 * MB,
            proxy_id=f"proxy-{proxy}", label=f"proxy-{proxy}:serving:key-{index}#0",
        )
        if abandon_after is not None:
            loop.schedule(abandon_after, lambda: net.cancel(flow))

    def probe():
        for marker in markers:
            window, expected = net.trace_since(marker), net.tuples_since(marker)
            assert list(window) == expected
            windows.append((window, expected))
        markers.append(net.trace_marker())

    for index, (at, size_mb, host, proxy, abandon_after) in enumerate(transfers):
        loop.schedule_at(
            at, lambda a=(index, size_mb, host, proxy, abandon_after): begin(*a)
        )
    for at in probes:
        loop.schedule_at(at, probe)
    loop.run_all()
    probe()
    for window, expected in windows:
        assert list(window) == expected
    return net, markers


class TestFlowTraceMatchesTheTupleDeque:
    @settings(max_examples=60, deadline=None)
    @given(
        transfers=_transfers,
        trace_limit=st.sampled_from([None, 0, 1, 3]),
        probes=st.lists(st.integers(0, 16).map(lambda tick: tick * 0.25), max_size=5),
    )
    def test_same_intervals_order_and_windows(self, transfers, trace_limit, probes):
        net, markers = _replay_transfers(transfers, trace_limit, probes)
        assert len(net.trace) == len(net.tuples)
        assert net.trace == list(net.tuples)
        assert net.trace_dropped == net.tuples_dropped
        assert net.flow_stats()["trace_retained"] == len(net.tuples)
        for marker in markers + [0]:
            window = net.trace_since(marker)
            assert isinstance(window, FlowTrace)
            assert len(window) == len(net.tuples_since(marker))
            assert list(window) == net.tuples_since(marker)
            assert [window[i] for i in range(len(window))] == net.tuples_since(marker)

    @settings(max_examples=40, deadline=None)
    @given(transfers=_transfers)
    def test_pickle_round_trip_is_equal(self, transfers):
        net, _ = _replay_transfers(transfers, None, [])
        trace = net.trace_since(0)
        restored = pickle.loads(pickle.dumps(trace))
        assert restored == trace
        assert list(restored) == list(net.tuples)
        assert all(type(interval.completed) is bool for interval in restored)

    @settings(max_examples=40, deadline=None)
    @given(
        transfers=_transfers,
        samples=st.lists(
            st.builds(
                RequestSample,
                client_id=st.sampled_from(["c-0", "c-1"]),
                key=st.text(max_size=6),
                size=st.integers(1, 10**9),
                started_at=st.floats(0, 1e6, allow_nan=False),
                finished_at=st.floats(0, 1e6, allow_nan=False),
                hit=st.booleans(),
                reset=st.booleans(),
                # Stored as a 32-bit column: a request touches at most one
                # host per chunk.
                hosts_touched=st.integers(0, 2**31 - 1),
            ),
            max_size=4,
        ),
    )
    def test_fingerprint_equals_the_tuple_digest(self, transfers, samples):
        net, _ = _replay_transfers(transfers, None, [])
        report = ConcurrentReplayReport(
            system="infinicache", mode="open-loop", clients=1,
            samples=_samples_of(samples), flow_intervals=net.trace_since(0),
        )
        assert report.fingerprint() == _tuple_fingerprint(samples, net.tuples)

    def test_fingerprint_of_extreme_floats_equals_the_tuple_digest(self):
        intervals = [
            FlowInterval(0, "a|b", "h", "p", 2**62, 0.0, 1e-10, True, 1.5),
            FlowInterval(1, "é", "h", "p", 1, 123456789.123456789, 1e15, False, 0.0),
            FlowInterval(2, "", "", "", 0, 1 / 3, 2 / 3, True, 1e300),
        ]
        report = ConcurrentReplayReport(
            system="x", mode="closed-loop", clients=1,
            flow_intervals=_trace_of(intervals),
        )
        assert report.fingerprint() == _tuple_fingerprint([], intervals)

    def test_sequence_protocol(self):
        intervals = [
            FlowInterval(i, f"t{i}", "h", "p", 10 + i, float(i), i + 0.5, i % 2 == 0, 1.0 * i)
            for i in range(5)
        ]
        trace = _trace_of(intervals)
        assert len(trace) == 5 and trace[-1] == intervals[-1] and trace[1] == intervals[1]
        assert list(trace[1:4]) == intervals[1:4] and isinstance(trace[1:4], FlowTrace)
        assert list(reversed(trace)) == intervals[::-1]
        assert intervals[2] in trace and trace.index(intervals[3]) == 3
        assert trace == _trace_of(intervals) != trace[:4]
        assert trace != intervals  # a trace equals traces, not lists
        with pytest.raises(IndexError):
            trace[5]  # noqa: B018
        # Read-only: no column can be swapped out.
        with pytest.raises(AttributeError):
            trace.extra = []  # type: ignore[attr-defined]

    def test_retains_under_half_the_tuple_deque(self):
        """10 000 retired transfers with production-shaped labels: the
        columns keep less than half of what the named tuples kept."""
        hosts = [f"lambda-host-{index}" for index in range(40)]

        def row(index):
            return (
                index, f"proxy-0:serving:key-{index // 12}#{index % 12}",
                hosts[index % 40], "proxy-0", 400_000 + index, index * 1e-3,
                index * 1e-3 + 0.25, index % 7 != 0, float(400_000 + index),
            )

        def fill_tuples():
            kept = deque()
            for index in range(10_000):
                kept.append(FlowInterval(*row(index)))
            return kept

        def fill_columns():
            kept = FlowTrace()
            for index in range(10_000):
                kept._append(*row(index))
            return kept

        def retained(fill):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = fill()
                gc.collect()
                return tracemalloc.get_traced_memory()[0] - before, kept
            finally:
                tracemalloc.stop()

        tuple_bytes, tuples = retained(fill_tuples)
        column_bytes, columns = retained(fill_columns)
        assert list(columns) == list(tuples)
        assert column_bytes < 0.5 * tuple_bytes


class TestTraceHandOver:
    """A window that covers the whole store is the store, copy-on-write."""

    @staticmethod
    def _move(net, count, first_index=0):
        for index in range(first_index, first_index + count):
            net.transfer(
                size_bytes=MB, function_bandwidth_bps=80 * MB,
                host_id=f"host-{index % 3}", host_capacity_bps=100 * MB,
                proxy_id="proxy-0", label=f"proxy-0:serving:key-{index}#0",
            )
        net.loop.run_all()

    def test_handed_over_trace_pickles_to_an_equal_trace(self):
        net = FlowNetwork(EventLoop(), NetworkFabric())
        self._move(net, 5)
        window = net.trace_since(0)
        restored = pickle.loads(pickle.dumps(window))
        assert restored == window and len(restored) == 5
        assert list(restored) == net.trace
        self._move(net, 4, first_index=5)
        # The network appended to a copy: the handed-over trace, and what it
        # pickled to, still hold the first five transfers only.
        assert restored == window and len(window) == 5
        assert list(window) == net.trace[:5]
        assert len(net.trace_since(0)) == 9

    def test_a_trace_limit_eviction_does_not_reach_a_handed_over_trace(self):
        net = FlowNetwork(EventLoop(), NetworkFabric(), trace_limit=2)
        self._move(net, 2)
        window = net.trace_since(0)
        kept = list(window)
        self._move(net, 6, first_index=2)
        assert net.trace_dropped == 6 and len(net.trace) == 2
        assert list(window) == kept


# ---------------------------------------------------------------------- overlap counts
def _boundary_sweep_peak(intervals) -> int:
    """The concurrency peak as the report computed it over named tuples."""
    boundaries = []
    for interval in intervals:
        boundaries.append((interval.started_at, 1))
        boundaries.append((interval.ended_at, -1))
    boundaries.sort(key=lambda item: (item[0], item[1]))
    live = peak = 0
    for _time, delta in boundaries:
        live += delta
        peak = max(peak, live)
    return peak


def _report_of(intervals) -> ConcurrentReplayReport:
    return ConcurrentReplayReport(
        system="x", mode="open-loop", clients=1,
        flow_intervals=_trace_of(intervals),
    )


#: Intervals on a coarse grid, so equal starts, equal ends, back-to-back
#: pairs and zero-length intervals all come up often.
_intervals = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 3)).map(
        lambda start_length: (start_length[0] * 0.5, (start_length[0] + start_length[1]) * 0.5)
    ),
    max_size=30,
).map(lambda spans: [
    FlowInterval(index, f"f{index}", "h", "p", 1, start, end, start < end, 0.0)
    for index, (start, end) in enumerate(spans)
])


class TestOverlappingFlowPairs:
    def test_zero_length_interval_at_a_start_overlaps_nothing(self):
        a = FlowInterval(0, "a", "h", "p", 1, 1.0, 2.0, True, 1.0)
        b = FlowInterval(1, "b", "h", "p", 1, 1.0, 1.0, False, 0.0)
        assert not a.overlaps(b)
        assert _report_of([a, b]).overlapping_flow_pairs() == 0
        assert _report_of([b, a]).overlapping_flow_pairs() == 0

    def test_zero_length_interval_inside_another_overlaps_it(self):
        a = FlowInterval(0, "a", "h", "p", 1, 1.0, 2.0, True, 1.0)
        b = FlowInterval(1, "b", "h", "p", 1, 1.5, 1.5, False, 0.0)
        assert a.overlaps(b)
        assert _report_of([a, b]).overlapping_flow_pairs() == 1
        assert _report_of([b, a]).overlapping_flow_pairs() == 1

    @settings(max_examples=300, deadline=None)
    @given(intervals=_intervals, seed=st.integers(0, 2**16))
    def test_counts_exactly_the_pairs_overlaps_accepts_in_any_order(self, intervals, seed):
        expected = sum(
            intervals[i].overlaps(intervals[j])
            for i in range(len(intervals))
            for j in range(i + 1, len(intervals))
        )
        shuffled = intervals[:]
        random.Random(seed).shuffle(shuffled)
        for order in (intervals, intervals[::-1], shuffled):
            assert _report_of(order).overlapping_flow_pairs() == expected

    @settings(max_examples=300, deadline=None)
    @given(intervals=_intervals, seed=st.integers(0, 2**16))
    def test_peak_equals_the_boundary_sweep(self, intervals, seed):
        shuffled = intervals[:]
        random.Random(seed).shuffle(shuffled)
        for order in (intervals, shuffled):
            assert _report_of(order).max_concurrent_flows() == _boundary_sweep_peak(order)

"""Tests for the event queue and simulator loop."""

import gc

import pytest

from repro.exceptions import SimulationError
from repro.sim import EventLoop, EventQueue


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("first"))
        queue.push(1.0, lambda: order.append("second"))
        queue.pop().callback()
        queue.pop().callback()
        assert order == ["first", "second"]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append("cancelled"))
        queue.push(2.0, lambda: fired.append("kept"))
        event.cancel()
        popped = queue.pop()
        popped.callback()
        assert fired == ["kept"]

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(5.0, lambda: None)
        queue.push(3.0, lambda: None)
        assert queue.peek_time() == 3.0

    def test_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, lambda: None)
        assert queue


class TestSimulator:
    def test_schedule_and_run_until(self):
        simulator = EventLoop()
        fired = []
        simulator.schedule(5.0, lambda: fired.append(simulator.now))
        simulator.run_until(10.0)
        assert fired == [5.0]
        assert simulator.now == 10.0

    def test_run_until_stops_before_later_events(self):
        simulator = EventLoop()
        fired = []
        simulator.schedule(5.0, lambda: fired.append("early"))
        simulator.schedule(15.0, lambda: fired.append("late"))
        simulator.run_until(10.0)
        assert fired == ["early"]
        simulator.run_until(20.0)
        assert fired == ["early", "late"]

    def test_schedule_at_absolute_time(self):
        simulator = EventLoop()
        fired = []
        simulator.schedule_at(3.0, lambda: fired.append(simulator.now))
        simulator.run_until(5.0)
        assert fired == [3.0]

    def test_schedule_negative_delay_rejected(self):
        simulator = EventLoop()
        with pytest.raises(SimulationError):
            simulator.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        simulator = EventLoop()
        simulator.run_until(10.0)
        with pytest.raises(SimulationError):
            simulator.schedule_at(5.0, lambda: None)

    def test_run_until_past_rejected(self):
        simulator = EventLoop()
        simulator.run_until(10.0)
        with pytest.raises(SimulationError):
            simulator.run_until(5.0)

    def test_chained_scheduling(self):
        """An event can schedule a follow-up; both run within the horizon."""
        simulator = EventLoop()
        fired = []

        def first():
            fired.append("first")
            simulator.schedule(1.0, lambda: fired.append("second"))

        simulator.schedule(1.0, first)
        simulator.run_until(3.0)
        assert fired == ["first", "second"]

    def test_periodic_rescheduling_respects_horizon(self):
        simulator = EventLoop()
        ticks = []

        def tick():
            ticks.append(simulator.now)
            simulator.schedule(1.0, tick)

        simulator.schedule(1.0, tick)
        simulator.run_until(5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_events_processed_counter(self):
        simulator = EventLoop()
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.run_until(3.0)
        assert simulator.events_processed == 2

    def test_run_all_drains_queue(self):
        simulator = EventLoop()
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(2.0, lambda: fired.append(2))
        simulator.run_all()
        assert fired == [1, 2]

    def test_run_all_detects_runaway(self):
        simulator = EventLoop()

        def forever():
            simulator.schedule(1.0, forever)

        simulator.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            simulator.run_all(max_events=100)

    def test_cancelled_event_not_dispatched(self):
        simulator = EventLoop()
        fired = []
        event = simulator.schedule(1.0, lambda: fired.append("no"))
        event.cancel()
        simulator.run_until(2.0)
        assert fired == []


class TestQueueLiveCounter:
    """The O(1) len/bool counter and the tombstone compaction satellite."""

    def test_len_is_constant_time_counter(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        assert len(queue) == 10
        for event in events[:4]:
            event.cancel()
        assert len(queue) == 6
        assert queue

    def test_cancel_is_idempotent_for_the_counter(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_skew_the_counter(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is event
        # Cancelling an already-dispatched event is a no-op for accounting
        # (flows cancel their completion event on retirement, which may have
        # just fired).
        event.cancel()
        assert len(queue) == 1
        assert queue.pop() is not None
        assert len(queue) == 0
        assert not queue

    def test_heavy_cancellation_compacts_the_heap(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(200)]
        for event in events[: 150]:
            event.cancel()
        # Compaction keeps tombstones bounded by half the heap: the 150
        # cancellations must not leave a heap anywhere near 200 entries.
        assert len(queue) == 50
        tombstones = len(queue._heap) - len(queue)
        assert tombstones * 2 <= len(queue._heap)
        assert len(queue._heap) < 150
        popped = []
        while True:
            event = queue.pop()
            if event is None:
                break
            popped.append(event.time)
        assert popped == [float(i) for i in range(150, 200)]

    def test_compaction_preserves_tie_order(self):
        queue = EventQueue()
        order = []
        keep = []
        for index in range(100):
            event = queue.push(1.0, lambda i=index: order.append(i))
            if index % 5:
                event.cancel()
            else:
                keep.append(index)
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback()
        assert order == keep


class TestQueueStats:
    """The tombstone/compaction statistics surfaced for observability."""

    def test_fresh_queue_stats_all_zero(self):
        stats = EventQueue().stats()
        assert stats == {
            "live": 0,
            "tombstones": 0,
            "pushed": 0,
            "popped": 0,
            "cancelled": 0,
            "compactions": 0,
            "peak_heap_size": 0,
        }

    def test_stats_track_push_pop_cancel(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        # Cancel *late* events: pop() skips leading tombstones as it drains,
        # so only tombstones behind the head linger in the heap.
        events[8].cancel()
        events[9].cancel()
        queue.pop()
        stats = queue.stats()
        assert stats["pushed"] == 10
        assert stats["popped"] == 1
        assert stats["cancelled"] == 2
        assert stats["live"] == len(queue) == 7
        assert stats["peak_heap_size"] == 10
        # Two cancellations on a 10-entry heap are below both compaction
        # thresholds, so the tombstones are still sitting in the heap.
        assert stats["tombstones"] == 2
        assert stats["compactions"] == 0

    def test_cancel_after_pop_is_not_counted(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        assert queue.pop() is event
        event.cancel()
        stats = queue.stats()
        assert stats["cancelled"] == 0
        assert stats["tombstones"] == 0

    def test_heavy_cancellation_records_compactions(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        stats = queue.stats()
        assert stats["cancelled"] == 150
        assert stats["compactions"] >= 1
        assert stats["peak_heap_size"] == 200
        # Post-compaction invariant: tombstones bounded by half the heap.
        assert stats["tombstones"] * 2 <= stats["tombstones"] + stats["live"]
        assert stats["live"] == 50

    def test_peak_heap_size_is_monotone(self):
        queue = EventQueue()
        for index in range(5):
            queue.push(float(index), lambda: None)
        while queue.pop() is not None:
            pass
        assert queue.stats()["live"] == 0
        assert queue.stats()["peak_heap_size"] == 5


class TestLoopProfiling:
    """The opt-in event-loop profiler behind ``enable_profiling``."""

    def test_profiling_disabled_by_default(self):
        simulator = EventLoop()
        assert simulator.profile is None

    def test_profile_counts_by_label_key(self):
        simulator = EventLoop()
        simulator.enable_profiling()
        simulator.schedule(1.0, lambda: None, label="tick:a")
        simulator.schedule(2.0, lambda: None, label="tick:b")
        cancelled = simulator.schedule(3.0, lambda: None, label="tock")
        cancelled.cancel()
        simulator.run_until(5.0)
        profile = simulator.disable_profiling()
        # Labels are bucketed by their prefix before ":" to bound cardinality.
        assert profile.scheduled["tick"] == 2
        assert profile.scheduled["tock"] == 1
        assert profile.dispatched["tick"] == 2
        assert profile.cancelled["tock"] == 1
        assert profile.events_dispatched == 2
        assert profile.self_time_s["tick"] >= 0.0

    def test_snapshot_schema(self):
        simulator = EventLoop()
        simulator.enable_profiling()
        simulator.schedule(1.0, lambda: None, label="work")
        simulator.run_until(2.0)
        snapshot = simulator.profile.snapshot()
        assert set(snapshot) == {"counts", "phases", "by_label"}
        assert snapshot["counts"]["scheduled"] == 1
        assert snapshot["counts"]["dispatched"] == 1
        assert set(snapshot["phases"]) == {
            "dispatch_s", "heap_ops_s", "coroutine_steps_s", "arbiter_s", "gc_s",
        }
        assert all(value >= 0.0 for value in snapshot["phases"].values())
        assert snapshot["by_label"]["work"]["dispatched"] == 1
        # Automatic collection is paused inside run_until only, so the total
        # is whatever the interpreter did; none began in dispatch.
        assert snapshot["counts"]["gc_collections_in_dispatch"] == 0
        simulator.disable_profiling()

    def test_disable_profiling_restores_the_fast_path(self):
        simulator = EventLoop()
        simulator.enable_profiling()
        simulator.schedule(1.0, lambda: None, label="a")
        simulator.run_until(2.0)
        simulator.disable_profiling()
        assert simulator.profile is None
        simulator.schedule(1.0, lambda: None, label="b")
        simulator.run_until(4.0)
        assert simulator.events_processed == 2

    def test_profiling_does_not_change_dispatch_order_or_time(self):
        def run(profiled):
            simulator = EventLoop()
            if profiled:
                simulator.enable_profiling()
            fired = []
            simulator.schedule(2.0, lambda: fired.append(("b", simulator.now)))
            simulator.schedule(1.0, lambda: fired.append(("a", simulator.now)))
            simulator.run_all()
            simulator.disable_profiling()
            return fired, simulator.now

        assert run(profiled=True) == run(profiled=False)

    def test_profiled_replay_is_byte_identical(self):
        # The collector hook included: profiling observes, it never steers.
        from repro.cache.deployment import InfiniCacheDeployment
        from repro.experiments.perf import _fleet_config
        from repro.utils.units import MB
        from repro.workload.replay import ClosedLoopDriver, seed_fleet

        def replay(profiled):
            deployment = InfiniCacheDeployment(_fleet_config(8, "incremental", 7))
            plans = seed_fleet(deployment, "perf", 8, 2, 2 * MB, 4)
            if profiled:
                deployment.simulator.enable_profiling()
            report = ClosedLoopDriver(deployment).run(plans)
            deployment.simulator.disable_profiling()
            return report.fingerprint(), deployment.simulator.events_processed

        assert replay(profiled=True) == replay(profiled=False)

    def test_profile_keys_and_counts_of_a_fleet_replay_are_pinned(self):
        """Flow completions and sleeps are scheduled under the bare kinds
        ``"flow.finish"`` and ``"sleep"``, the keys the profile aggregates
        on.  A 64-client replay, counted when those labels still carried
        the flow's and the process's label after a colon."""
        from repro.cache.deployment import InfiniCacheDeployment
        from repro.experiments.perf import _fleet_config
        from repro.utils.units import MB
        from repro.workload.replay import ClosedLoopDriver, seed_fleet

        deployment = InfiniCacheDeployment(_fleet_config(64, "incremental", 2020))
        plans = seed_fleet(deployment, "perf", 64, 2, 2 * MB, 6)
        profile = deployment.simulator.enable_profiling()
        ClosedLoopDriver(deployment).run(plans)
        deployment.simulator.disable_profiling()
        assert profile.scheduled == {
            "billing.session_close": 128, "cache.cost_sample": 1, "cache.warmup": 1,
            "faas.reclaim_sweep": 1, "flow.finish": 7701, "sleep": 2632,
        }
        assert profile.dispatched == {"flow.finish": 3230, "sleep": 2632}
        assert profile.cancelled == {
            "cache.cost_sample": 1, "cache.warmup": 1, "faas.reclaim_sweep": 1,
            "flow.finish": 4471,
        }

    def test_collector_hook_lives_exactly_as_long_as_profiling(self):
        hooks_before = list(gc.callbacks)
        simulator = EventLoop()
        first = simulator.enable_profiling()
        assert gc.callbacks == hooks_before + [first.note_gc]
        # Re-enabling swaps the hook instead of stacking a second one.
        second = simulator.enable_profiling()
        assert gc.callbacks == hooks_before + [second.note_gc]
        assert simulator.disable_profiling() is second
        assert gc.callbacks == hooks_before
        assert simulator.disable_profiling() is None

    def test_collector_meter_tells_dispatch_from_outside(self):
        simulator = EventLoop()
        profile = simulator.enable_profiling()
        was_enabled = gc.isenabled()
        gc.disable()  # only the explicit passes below, whatever pytest allocates
        try:
            gc.collect()
            assert (profile.gc_collections, profile.gc_collections_in_dispatch) == (1, 0)
            simulator.schedule(1.0, gc.collect, label="explicit")
            simulator.run_until(2.0)
            assert (profile.gc_collections, profile.gc_collections_in_dispatch) == (2, 1)
            gc.collect()
            assert (profile.gc_collections, profile.gc_collections_in_dispatch) == (3, 1)
            assert profile.snapshot()["phases"]["gc_s"] == profile.gc_s > 0.0
        finally:
            simulator.disable_profiling()
            if was_enabled:
                gc.enable()


class TestDelayValidation:
    """NaN/negative/infinite delays are rejected at the API boundary.

    Regression for the heap-corruption hole: ``delay < 0`` is False for
    NaN, so before these checks a ``schedule(float("nan"), ...)`` pushed a
    NaN-keyed entry whose every comparison is False — sift-up parked it
    arbitrarily and *other* events started popping out of order.
    """

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_rejects_non_finite_delay(self, bad):
        simulator = EventLoop()
        with pytest.raises(ValueError):
            simulator.schedule(bad, lambda: None, label="bad")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_at_rejects_non_finite_time(self, bad):
        simulator = EventLoop()
        with pytest.raises(ValueError):
            simulator.schedule_at(bad, lambda: None, label="bad")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_queue_push_rejects_bad_time(self, bad):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(bad, lambda: None, label="bad")

    def test_timeout_rejects_nan_delay(self):
        simulator = EventLoop()
        with pytest.raises(ValueError):
            simulator.timeout(float("nan"))

    def test_negative_delay_still_raises_simulation_error(self):
        simulator = EventLoop()
        with pytest.raises(SimulationError):
            simulator.schedule(-0.5, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_a_bad_sleep_names_its_process(self, bad):
        """Sleep events carry the bare kind ``"sleep"``; the error names the
        process through its resume callback."""
        simulator = EventLoop()

        def coroutine():
            yield bad

        with pytest.raises((ValueError, SimulationError), match="p0:fetch:obj#2"):
            simulator.spawn(coroutine(), label="p0:fetch:obj#2")

    def test_nan_push_does_not_corrupt_heap_order(self):
        """A rejected NaN push leaves the queue fully ordered."""
        simulator = EventLoop()
        fired = []
        simulator.schedule(3.0, lambda: fired.append(3.0))
        with pytest.raises(ValueError):
            simulator.schedule(float("nan"), lambda: fired.append(None))
        simulator.schedule(1.0, lambda: fired.append(1.0))
        simulator.schedule(2.0, lambda: fired.append(2.0))
        simulator.run_all()
        assert fired == [1.0, 2.0, 3.0]

    def test_periodic_task_rejects_nan_interval(self):
        from repro.sim.loop import PeriodicTask

        simulator = EventLoop()
        with pytest.raises(SimulationError):
            PeriodicTask(simulator, float("nan"), lambda: None)

    def test_stats_unchanged_by_rejected_push(self):
        """A rejected push must not bump counters or the peak-heap gauge."""
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        before = queue.stats()
        with pytest.raises(ValueError):
            queue.push(float("nan"), lambda: None)
        assert queue.stats() == before

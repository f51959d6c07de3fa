"""Tests for the repro.sim engine: futures, combinators, and processes."""

from __future__ import annotations

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.client import GetResult
from repro.cache.proxy import ChunkFetch, ProxyGetResult, _chunk_quorum
from repro.exceptions import SimulationError
from repro.network.flows import FlowInterval
from repro.sim import CountdownLatch, EventLoop, Process, SimFuture, all_of
from repro.workload.replay import RequestSample


class TestSimFuture:
    def test_resolve_fires_callbacks_once(self):
        future = SimFuture("t")
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result))
        future.resolve(42)
        assert seen == [42]
        # A late callback runs immediately with the stored result.
        future.add_done_callback(lambda f: seen.append(f.result))
        assert seen == [42, 42]

    def test_double_resolve_is_an_error(self):
        future = SimFuture("t")
        future.resolve(1)
        with pytest.raises(SimulationError):
            future.resolve(2)

    def test_pending_result_is_an_error(self):
        with pytest.raises(SimulationError):
            SimFuture("t").result

    def test_cancel_runs_hooks_then_callbacks(self):
        order = []
        future = SimFuture("t")
        future.on_cancel(lambda: order.append("hook"))
        future.add_done_callback(lambda f: order.append(("done", f.cancelled)))
        assert future.cancel() is True
        assert order == ["hook", ("done", True)]
        # Cancelling a settled future is a no-op.
        assert future.cancel() is False


class _ListFuture:
    """The reference for :class:`SimFuture`: a callback list and a hook list
    made eagerly, settled in registration order, hooks before callbacks."""

    def __init__(self) -> None:
        self.done = self.cancelled = False
        self.result: object = None
        self.callbacks: list = []
        self.hooks: list = []

    def add_done_callback(self, callback) -> None:
        if self.done:
            callback(self)
        else:
            self.callbacks.append(callback)

    def on_cancel(self, hook) -> None:
        if not self.done:
            self.hooks.append(hook)

    def _settle(self) -> None:
        callbacks, self.callbacks, self.hooks = self.callbacks, [], []
        for callback in callbacks:
            callback(self)

    def resolve(self, result: object = None) -> None:
        if self.done:
            raise SimulationError("resolved twice")
        self.done, self.result = True, result
        self._settle()

    def cancel(self) -> bool:
        if self.done:
            return False
        self.done = self.cancelled = True
        hooks, self.hooks = self.hooks, []
        for hook in hooks:
            hook()
        self._settle()
        return True


#: One future's life: callbacks (each of which may add another while the
#: future settles) and cancel hooks in any order, one settlement, then late
#: callbacks and a second settlement attempt.
_FUTURE_SCRIPTS = st.tuples(
    st.lists(
        st.one_of(st.tuples(st.just("callback"), st.booleans()), st.just(("hook", False))),
        max_size=6,
    ).filter(lambda steps: sum(kind == "callback" for kind, _ in steps) <= 4),
    st.sampled_from(["resolve", "cancel"]),
    st.integers(0, 2),
    st.sampled_from(["resolve", "cancel"]),
)


def _play(future, script) -> list:
    steps, settle, late, again = script
    log: list = []

    def callback(name, nests):
        def run(settled):
            log.append((name, settled.done, settled.cancelled, settled.result))
            if nests:
                settled.add_done_callback(callback(name + ".nested", False))
        return run

    for index, (kind, nests) in enumerate(steps):
        if kind == "callback":
            future.add_done_callback(callback(f"callback-{index}", nests))
        else:
            future.on_cancel(lambda index=index: log.append(("hook", index, future.done)))
    log.append(("settle", future.cancel() if settle == "cancel" else future.resolve(7)))
    for index in range(late):
        future.add_done_callback(callback(f"late-{index}", False))
    try:
        log.append(("again", future.cancel() if again == "cancel" else future.resolve(8)))
    except SimulationError:
        log.append(("again", "refused"))
    return log


class TestSimFutureMatchesTheListReference:
    """A lone callback is held as is, and a list is made at the second one;
    nothing of that may show."""

    @settings(max_examples=200, deadline=None)
    @given(script=_FUTURE_SCRIPTS)
    def test_same_calls_in_the_same_order(self, script):
        assert _play(SimFuture("f"), script) == _play(_ListFuture(), script)

    def test_a_settled_future_drops_its_callbacks(self):
        future = SimFuture("f")
        future.add_done_callback(lambda f: None)
        future.add_done_callback(lambda f: None)
        future.on_cancel(lambda: None)
        future.resolve()
        assert not future._callbacks and not future._cancel_hooks


class TestCombinators:
    def test_all_of_preserves_input_order(self):
        a, b = SimFuture("a"), SimFuture("b")
        gate = all_of([a, b])
        b.resolve("B")
        assert not gate.done
        a.resolve("A")
        assert gate.result == ["A", "B"]

    def test_all_of_empty_resolves_immediately(self):
        assert all_of([]).result == []

    def test_all_of_counts_cancelled_inputs_as_none(self):
        a, b = SimFuture("a"), SimFuture("b")
        gate = all_of([a, b])
        a.resolve("A")
        b.cancel()
        assert gate.result == ["A", None]

    def test_countdown_latch_resolves_at_zero(self):
        latch = CountdownLatch(2)
        first, second = SimFuture("first"), SimFuture("second")
        first.add_done_callback(latch.count_down)
        second.add_done_callback(latch.count_down)
        first.resolve(None)
        assert latch.remaining == 1 and not latch.future.done
        second.cancel()  # a cancelled request still counts as finished
        assert latch.remaining == 0 and latch.future.done
        assert CountdownLatch(0).future.done

    def test_countdown_latch_rejects_negative_and_overcount(self):
        with pytest.raises(SimulationError):
            CountdownLatch(-1)
        latch = CountdownLatch(1)
        latch.count_down()
        with pytest.raises(SimulationError):
            latch.count_down()

    # The proxy's first-d gate: the GET path resolves with the fastest
    # ``needed`` chunk results and cancels the rest.
    def test_first_n_resolves_in_completion_order(self):
        futures = [SimFuture(str(i)) for i in range(4)]
        gate = _chunk_quorum(futures, 2, "quorum")
        futures[3].resolve("late-3")
        assert not gate.done
        futures[1].resolve("late-1")
        assert gate.result == ["late-3", "late-1"]
        # Further completions do not disturb the resolved gate.
        futures[0].resolve("x")
        assert gate.result == ["late-3", "late-1"]

    def test_first_n_ignores_cancelled_futures(self):
        futures = [SimFuture(str(i)) for i in range(3)]
        gate = _chunk_quorum(futures, 2, "quorum")
        futures[0].cancel()
        futures[1].resolve(1)
        assert not gate.done
        futures[2].resolve(2)
        assert gate.result == [1, 2]

    def test_first_n_rejects_impossible_quorum(self):
        # Two of three must succeed: the second failure settles the gate
        # with None at once, without waiting for the last chunk.
        futures = [SimFuture(str(i)) for i in range(3)]
        gate = _chunk_quorum(futures, 2, "quorum")
        futures[0].resolve(None)
        assert not gate.done
        futures[1].cancel()
        assert gate.done and gate.result is None
        futures[2].resolve("late")
        assert gate.result is None

    def test_first_n_counts_falsy_results_as_failures(self):
        # A chunk process that exhausts its attempts resolves with None
        # rather than cancelling; it must not count towards the quorum.
        futures = [SimFuture(str(i)) for i in range(3)]
        gate = _chunk_quorum(futures, 2, "quorum")
        futures[0].resolve(None)
        futures[1].resolve("chunk-1")
        assert not gate.done
        futures[2].resolve("chunk-2")
        assert gate.result == ["chunk-1", "chunk-2"]


class TestProcesses:
    def test_sleep_advances_virtual_time(self):
        loop = EventLoop()
        log = []

        def proc():
            yield 1.5
            log.append(loop.now)
            yield 2.5
            log.append(loop.now)
            return "done"

        process = loop.spawn(proc())
        result = loop.run_until_complete(process)
        assert result == "done"
        assert log == [1.5, 4.0]

    def test_yield_from_delegation_and_process_waiting(self):
        loop = EventLoop()

        def inner():
            yield 1.0
            return "inner-value"

        def outer():
            value = yield from inner()
            child = loop.spawn(inner())
            other = yield child
            return (value, other)

        process = loop.spawn(outer())
        assert loop.run_until_complete(process) == ("inner-value", "inner-value")
        assert loop.now == 2.0

    def test_concurrent_processes_interleave(self):
        loop = EventLoop()
        log = []

        def proc(name, delay):
            yield delay
            log.append((name, loop.now))

        a = loop.spawn(proc("a", 2.0))
        b = loop.spawn(proc("b", 1.0))
        loop.run_until_complete(all_of([a, b]))
        assert log == [("b", 1.0), ("a", 2.0)]

    def test_cancel_runs_finally_at_current_time(self):
        loop = EventLoop()
        cleanup = []

        def proc():
            try:
                yield 10.0
            finally:
                cleanup.append(loop.now)

        process = loop.spawn(proc())
        loop.run_until(3.0)
        assert process.cancel() is True
        assert process.cancelled
        assert cleanup == [3.0]
        # The pending wake-up was cancelled along with the process.
        loop.run_all()
        assert loop.now == 3.0

    def test_first_n_with_processes_and_loser_cancellation(self):
        loop = EventLoop()

        def proc(delay, name):
            yield delay
            return name

        tasks = [loop.spawn(proc(d, n)) for d, n in ((3.0, "slow"), (1.0, "fast"), (2.0, "mid"))]
        gate = _chunk_quorum(tasks, 2, "quorum")
        winners = loop.run_until_complete(gate)
        assert winners == ["fast", "mid"]
        for task in tasks:
            if not task.done:
                task.cancel()
        assert tasks[0].cancelled

    def test_run_until_complete_detects_deadlock(self):
        loop = EventLoop()

        def proc():
            yield SimFuture("never")

        process = loop.spawn(proc())
        with pytest.raises(SimulationError):
            loop.run_until_complete(process)

    def test_deadlock_error_names_the_parked_processes(self):
        def wait_on(future):
            yield future

        loop = EventLoop()
        lease = loop.spawn(wait_on(SimFuture("lease")), label="client-a")
        ack = loop.spawn(wait_on(SimFuture("ack")), label="client-b")
        # Parked too, but on another loop: not this run's deadlock.
        EventLoop().spawn(wait_on(SimFuture("elsewhere")), label="client-c")
        with pytest.raises(SimulationError) as error:
            loop.run_until_complete(all_of([lease, ack]))
        message = str(error.value)
        assert "'client-a' waiting on 'lease'" in message
        assert "'client-b' waiting on 'ack'" in message
        assert "client-c" not in message

    def test_unsupported_waitable_is_an_error(self):
        loop = EventLoop()

        def proc():
            yield "nonsense"

        with pytest.raises(SimulationError):
            loop.spawn(proc())

    def test_timeout_future_cancellation_cancels_event(self):
        loop = EventLoop()
        future = loop.timeout(5.0)
        future.cancel()
        loop.run_all()
        assert loop.now == 0.0

    def test_cancelling_a_parent_cancels_the_child_it_waits_on(self):
        """The child's ``finally`` runs at the cancellation instant, not when
        its sleep would have ended (or whenever it is garbage-collected)."""
        loop = EventLoop()
        cleanup = []

        def child():
            try:
                yield 5.0
            finally:
                cleanup.append(("child", loop.now))

        def parent():
            try:
                yield loop.spawn(child(), label="child")
            finally:
                cleanup.append(("parent", loop.now))

        process = loop.spawn(parent(), label="parent")
        loop.run_until(1.0)
        assert process.cancel() is True
        assert cleanup == [("parent", 1.0), ("child", 1.0)]
        loop.run_all()
        assert loop.now == 1.0  # the child's wake-up was cancelled with it
        assert cleanup == [("parent", 1.0), ("child", 1.0)]


class TestProcessIsItsOwnFuture:
    """A process settles once, as the future of its return value."""

    @pytest.mark.parametrize("wait", ["yield", "all_of", "run_until_complete"])
    def test_a_waiter_resumes_once_with_the_return_value(self, wait):
        loop = EventLoop()
        resumed = []

        def child():
            yield 1.0
            return "value"

        process = loop.spawn(child(), "child")
        if wait == "run_until_complete":
            resumed.append(loop.run_until_complete(process))
        else:
            def waiter():
                resumed.append((yield process if wait == "yield" else all_of([process])))
                yield 5.0  # a second resume would append again

            waiting = loop.spawn(waiter(), "waiter")
            loop.run_all()
            assert waiting.done and not waiting.cancelled
        loop.run_all()
        assert resumed == (["value"] if wait != "all_of" else [["value"]])
        assert process.result == "value" and not process.cancelled
        with pytest.raises(SimulationError, match="'child' resolved twice"):
            process.resolve("again")

    @pytest.mark.parametrize("cancel", ["process", "its waiter"])
    def test_cancelling_closes_its_generator_once(self, cancel):
        loop = EventLoop()
        closed, resumed = [], []

        def child():
            try:
                yield 10.0
            finally:
                closed.append(loop.now)

        def waiter():
            resumed.append((yield process))

        process = loop.spawn(child(), "child")
        waiting = loop.spawn(waiter(), "waiter")
        loop.run_until(1.0)
        (process if cancel == "process" else waiting).cancel()
        assert process.cancelled and closed == [1.0]
        assert process.cancel() is False and waiting.cancel() is False
        loop.run_all()
        assert closed == [1.0] and loop.now == 1.0  # its wake-up went with it
        # Cancelled directly, the process resumes its waiter with nothing;
        # cancelled through the waiter, nobody is left to resume.
        assert resumed == ([None] if cancel == "process" else [])


class TestInterrupt:
    def test_interrupt_raises_at_the_wait_and_the_coroutine_goes_on(self):
        loop = EventLoop()
        log = []
        flow = SimFuture("flow")
        flow.on_cancel(lambda: log.append(("flow released", loop.now)))

        def proc():
            try:
                try:
                    yield flow
                finally:
                    log.append(("finally", loop.now))
            except KeyError as error:
                log.append(("caught", error.args[0], loop.now))
            yield 2.0
            return "went on"

        process = loop.spawn(proc())
        loop.run_until(1.0)
        assert process.interrupt(KeyError("deadline")) is True
        # finally and handler first, then the abandoned future is released;
        # its late callback does not resume the coroutine a second time.
        assert log == [("finally", 1.0), ("caught", "deadline", 1.0), ("flow released", 1.0)]
        assert flow.cancelled
        assert loop.run_until_complete(process) == "went on"
        assert loop.now == 3.0

    def test_interrupt_cancels_the_abandoned_sleep(self):
        loop = EventLoop()

        def proc():
            try:
                yield 10.0
            except KeyError:
                return "interrupted"

        process = loop.spawn(proc())
        loop.run_until(1.0)
        process.interrupt(KeyError())
        assert process.result == "interrupted"
        loop.run_all()
        assert loop.now == 1.0

    def test_interrupt_cancels_the_child_it_waited_on(self):
        loop = EventLoop()
        cleanup = []

        def child():
            try:
                yield 5.0
            finally:
                cleanup.append(loop.now)

        def parent():
            try:
                yield loop.spawn(child())
            except KeyError:
                pass
            return "done"

        process = loop.spawn(parent())
        loop.run_until(2.0)
        process.interrupt(KeyError())
        assert process.result == "done"
        assert cleanup == [2.0]

    def test_uncaught_interrupt_propagates_and_finished_process_refuses(self):
        loop = EventLoop()

        def proc():
            yield 1.0
            return "done"

        process = loop.spawn(proc())
        with pytest.raises(KeyError):
            process.interrupt(KeyError("unhandled"))
        finished = loop.spawn(proc())
        loop.run_until_complete(finished)
        assert finished.interrupt(KeyError()) is False


class TestBareLoop:
    def test_a_bare_loop_runs_processes(self):
        loop = EventLoop()

        def proc():
            yield 1.0
            return "ok"

        assert loop.run_until_complete(loop.spawn(proc())) == "ok"


class TestDeadlineTimer:
    """Lazy deadlines: O(1) extensions with eager-identical fire order."""

    def test_fires_at_the_deadline(self):
        loop = EventLoop()
        fired = []
        loop.schedule_deadline(1.5, lambda: fired.append(loop.now))
        loop.run_all()
        assert fired == [1.5]

    def test_extension_is_heap_free_until_the_early_fire(self):
        loop = EventLoop()
        fired = []
        timer = loop.schedule_deadline(1.0, lambda: fired.append(loop.now))
        pushed_after_arm = loop.queue.stats()["pushed"]
        timer.set_deadline(2.0)
        timer.set_deadline(3.0)
        # Extensions are field writes: no pushes, no tombstones.
        assert loop.queue.stats()["pushed"] == pushed_after_arm
        assert loop.queue.stats()["cancelled"] == 0
        loop.run_all()
        assert fired == [3.0]
        # The one stale entry fired early and re-armed once — a single
        # extra push for any number of extensions, and still no cancels.
        assert loop.queue.stats()["pushed"] == pushed_after_arm + 1
        assert loop.queue.stats()["cancelled"] == 0

    def test_moving_earlier_cancels_and_repushes(self):
        loop = EventLoop()
        fired = []
        timer = loop.schedule_deadline(5.0, lambda: fired.append(loop.now))
        timer.set_deadline(1.0)
        assert loop.queue.stats()["cancelled"] == 1
        loop.run_all()
        assert fired == [1.0]

    def test_moving_to_the_exact_entry_time_takes_the_eager_path(self):
        # ``when == entry.time`` must cancel-and-push (not no-op) so the
        # entry consumes a fresh sequence number exactly like the eager
        # idiom — same-timestamp tie order is observable.
        loop = EventLoop()
        order = []
        timer = loop.schedule_deadline(1.0, lambda: order.append("timer"))
        loop.schedule_at(1.0, lambda: order.append("other"))
        timer.set_deadline(1.0)
        assert loop.queue.stats()["cancelled"] == 1
        loop.run_all()
        assert order == ["other", "timer"]

    def test_cancel_then_rearm(self):
        loop = EventLoop()
        fired = []
        timer = loop.schedule_deadline(1.0, lambda: fired.append(loop.now))
        timer.cancel()
        assert not timer.active
        loop.run_all()
        assert fired == []
        timer.set_deadline(2.0)
        assert timer.active
        loop.run_all()
        assert fired == [2.0]

    def test_rearm_after_firing(self):
        loop = EventLoop()
        fired = []
        timer = loop.schedule_deadline(1.0, lambda: fired.append(loop.now))
        loop.run_all()
        timer.set_deadline(4.0)
        loop.run_all()
        assert fired == [1.0, 4.0]

    def test_extension_reserves_the_eager_tie_break(self):
        # Extending *before* a same-deadline push must fire first (the
        # reservation holds the earlier sequence number), extending *after*
        # must fire second — exactly the order the eager cancel-and-push
        # idiom produces, even though the lazy re-arm push physically
        # happens later, at the early firing.
        def drive(extend_first: bool) -> list[str]:
            loop = EventLoop()
            order: list[str] = []
            timer = loop.schedule_deadline(1.0, lambda: order.append("timer"))
            if extend_first:
                timer.set_deadline(2.0)
                loop.schedule_at(2.0, lambda: order.append("other"))
            else:
                loop.schedule_at(2.0, lambda: order.append("other"))
                timer.set_deadline(2.0)
            loop.run_all()
            return order

        assert drive(extend_first=True) == ["timer", "other"]
        assert drive(extend_first=False) == ["other", "timer"]

    def test_reserved_sequence_matches_eager_cancel_and_push(self):
        # The eager reference implementation of the same schedule.
        eager_loop = EventLoop()
        eager_order: list[str] = []
        event = eager_loop.schedule_at(1.0, lambda: eager_order.append("timer"))
        eager_loop.schedule_at(2.0, lambda: eager_order.append("other"))
        event.cancel()
        eager_loop.schedule_at(2.0, lambda: eager_order.append("timer"))
        eager_loop.run_all()

        lazy_loop = EventLoop()
        lazy_order: list[str] = []
        timer = lazy_loop.schedule_deadline(1.0, lambda: lazy_order.append("timer"))
        lazy_loop.schedule_at(2.0, lambda: lazy_order.append("other"))
        timer.set_deadline(2.0)
        lazy_loop.run_all()

        assert eager_order == lazy_order == ["other", "timer"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_deadline_is_rejected_and_the_timer_kept(self, bad):
        # A NaN compares false against the pending entry's time, so it used
        # to pass for an extension and fire the callback at the old deadline.
        loop = EventLoop()
        fired = []
        timer = loop.schedule_deadline(5.0, lambda: fired.append(loop.now))
        with pytest.raises(ValueError, match="finite"):
            timer.set_deadline(bad)
        assert timer.active and timer.deadline == 5.0
        loop.run_all()
        assert fired == [5.0]

    def test_a_past_deadline_is_rejected_and_the_timer_kept(self):
        loop = EventLoop()
        fired = []
        timer = loop.schedule_deadline(5.0, lambda: fired.append(loop.now))
        loop.run_until(2.0)
        with pytest.raises(SimulationError, match="before now"):
            timer.set_deadline(1.0)
        loop.run_all()
        assert fired == [5.0]


def _process():
    def sleeper():
        yield 1.0

    return EventLoop().spawn(sleeper())


@pytest.mark.parametrize("make", [
    lambda: SimFuture("f"),
    _process,
    lambda: ChunkFetch(0, "node-0", None, 0.0, lost=False),
    lambda: ProxyGetResult("k", found=False, recoverable=False, descriptor=None),
    lambda: GetResult("k", hit=False, size=0, latency_s=0.0, proxy_id="p"),
    lambda: RequestSample("c", "k", 1, 0.0, 1.0, hit=True),
    lambda: FlowInterval(1, "x", "h", "p", 1, 0.0, 1.0, True, 1.0),
], ids=["SimFuture", "Process", "ChunkFetch", "ProxyGetResult", "GetResult",
        "RequestSample", "FlowInterval"])
def test_per_event_and_per_request_objects_have_no_instance_dict(make):
    """One or more of each per chunk transfer or request: slotted, no dict."""
    assert not hasattr(make(), "__dict__")


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector_state(request):
    """Start the test with the cyclic collector in a known state; restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _run_until(loop, future):
    loop.run_until(10.0)


def _run_all(loop, future):
    loop.run_all()


def _run_until_complete(loop, future):
    loop.run_until_complete(future)


RUNNERS = pytest.mark.parametrize(
    "run", [_run_until, _run_all, _run_until_complete], ids=lambda run: run.__name__
)


class TestCollectorPause:
    """``run*`` dispatches with automatic cyclic collection off and then
    puts back whatever state it found (see ``EventLoop._dispatching``)."""

    @RUNNERS
    def test_paused_in_callbacks_and_restored_afterwards(self, run, collector_state):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(gc.isenabled()))
        run(loop, loop.timeout(2.0))
        assert seen == [False]
        assert gc.isenabled() is collector_state

    def test_nested_run_does_not_re_enable_early(self, collector_state):
        loop = EventLoop()
        seen = []

        def outer():
            loop.run_until_complete(loop.timeout(1.0))
            seen.append(("after nested run", gc.isenabled()))

        loop.schedule(1.0, outer)
        loop.schedule(5.0, lambda: seen.append(("later callback", gc.isenabled())))
        loop.run_all()
        assert seen == [("after nested run", False), ("later callback", False)]
        assert gc.isenabled() is collector_state

    @RUNNERS
    def test_a_raising_callback_restores_the_state(self, run, collector_state):
        loop = EventLoop()

        def boom():
            raise RuntimeError("callback failed")

        loop.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="callback failed"):
            run(loop, loop.timeout(2.0))
        assert gc.isenabled() is collector_state

    def test_the_drained_queue_error_restores_the_state(self, collector_state):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="never resolved"):
            loop.run_until_complete(SimFuture("never"))
        assert gc.isenabled() is collector_state

    @pytest.mark.parametrize("bounded", ["run_all", "run_until_complete"])
    def test_the_max_events_error_restores_the_state(self, bounded, collector_state):
        loop = EventLoop()

        def again():
            loop.schedule(1.0, again)

        again()
        with pytest.raises(SimulationError, match="dispatched 5 events"):
            if bounded == "run_all":
                loop.run_all(max_events=5)
            else:
                loop.run_until_complete(SimFuture("never"), max_events=5)
        assert gc.isenabled() is collector_state

    def test_an_explicit_collect_in_a_callback_still_collects(self):
        loop = EventLoop()
        found = []

        def make_and_collect():
            cycle = []
            cycle.append(cycle)
            del cycle
            found.append(gc.collect())

        loop.schedule(1.0, make_and_collect)
        loop.run_all()
        assert found[0] >= 1

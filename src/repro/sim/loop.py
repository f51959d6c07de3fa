"""Event queue and the discrete-event loop.

The loop owns a :class:`~repro.sim.clock.SimClock` and a priority queue of
:class:`Event` records.  Components schedule callbacks with
:meth:`EventLoop.schedule` (relative delay) or :meth:`EventLoop.schedule_at`
(absolute time) and the loop runs them in timestamp order, breaking ties by
insertion order so runs are fully deterministic.

On top of the callback layer the loop offers three higher-level primitives:

* :meth:`EventLoop.timeout` — a :class:`~repro.sim.process.SimFuture` that
  resolves after a virtual delay (the awaitable form of ``schedule``);
* :meth:`EventLoop.spawn` — run a generator coroutine as a
  :class:`~repro.sim.process.Process`, the helper multi-step operations
  (GETs racing d-of-n chunk fetches, closed-loop clients) are written as;
* :class:`PeriodicTask` — a timer that refires every interval until stopped
  (warm-ups, backups, reclamation sweeps, autoscaler ticks).
"""

from __future__ import annotations

import gc
import itertools
import math
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Callable, Iterator, Optional

from repro.exceptions import SimulationError
from repro.sim.clock import SimClock
from repro.sim.process import Process, ProcessGenerator, SimFuture


def _label_key(label: str) -> str:
    """Aggregation key for an event label: the text before the first colon.

    A label may embed an owner's identity
    ("billing.session_close:p0-node-3"), so the raw strings are unbounded;
    the prefix ("billing.session_close") is the stable subsystem name the
    profiler keys on.  The hottest kinds ("flow.finish", "sleep") carry no
    identity at all.
    """
    return label.partition(":")[0] or "(unlabelled)"


class LoopProfile:
    """Wall-clock accounting for one profiled stretch of the event loop.

    Counts scheduled/dispatched/cancelled events and accumulates *real*
    (``perf_counter``) self-time per label key, plus four subsystem meters
    fed by the loop (heap ops), :class:`~repro.sim.process.Process`
    (coroutine steps), the flow arbiter (settle/re-aim transitions) and
    ``gc.callbacks`` (cyclic-collector passes).  The meters nest — a
    coroutine step runs inside an event callback — so they attribute
    wall-clock to subsystems rather than forming a disjoint partition.
    """

    def __init__(self) -> None:
        self.scheduled: dict[str, int] = {}
        self.dispatched: dict[str, int] = {}
        self.cancelled: dict[str, int] = {}
        self.self_time_s: dict[str, float] = {}
        self.heap_s = 0.0
        #: Processes :meth:`EventLoop.spawn` created while profiling was on.
        self.processes_spawned = 0
        self.coroutine_steps = 0
        self.coroutine_s = 0.0
        self.arbiter_transitions = 0
        self.arbiter_s = 0.0
        #: Flows the arbiter's sweeps visited / re-aimed while profiling was
        #: on (``FlowNetwork.flows_swept`` / ``flows_reaimed`` over the same
        #: stretch); swept ÷ transitions is the arbiter's work per call.
        self.flows_swept = 0
        self.flows_reaimed = 0
        #: Cyclic-collector passes, process-wide; ``run*`` pauses automatic ones.
        self.gc_s = 0.0
        self.gc_collections = 0
        self.gc_collections_in_dispatch = 0
        self.active_runs = 0
        self._gc_started = 0.0

    def note_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: time each collection, note where it began."""
        if phase == "start":
            self._gc_started = perf_counter()  # repro: allow[D102] (profiling meter)
            self.gc_collections += 1
            self.gc_collections_in_dispatch += self.active_runs > 0
        else:
            self.gc_s += perf_counter() - self._gc_started  # repro: allow[D102] (profiling meter)

    def note_scheduled(self, label: str) -> None:
        key = _label_key(label)
        self.scheduled[key] = self.scheduled.get(key, 0) + 1

    def note_cancelled(self, label: str) -> None:
        key = _label_key(label)
        self.cancelled[key] = self.cancelled.get(key, 0) + 1

    def note_dispatch(self, label: str, seconds: float) -> None:
        key = _label_key(label)
        self.dispatched[key] = self.dispatched.get(key, 0) + 1
        self.self_time_s[key] = self.self_time_s.get(key, 0.0) + seconds

    @property
    def dispatch_s(self) -> float:
        """Total measured callback self-time across all labels."""
        return sum(self.self_time_s.values())

    @property
    def events_dispatched(self) -> int:
        return sum(self.dispatched.values())

    def top_labels(self, limit: int = 10) -> list[dict]:
        """The hottest label keys by callback self-time."""
        ranked = sorted(self.self_time_s.items(), key=lambda item: item[1], reverse=True)
        return [
            {
                "label": key,
                "dispatched": self.dispatched.get(key, 0),
                "self_s": seconds,
            }
            for key, seconds in ranked[:limit]
        ]

    def snapshot(self) -> dict:
        """A JSON-friendly dump of every meter."""
        return {
            "counts": {
                "scheduled": sum(self.scheduled.values()),
                "dispatched": self.events_dispatched,
                "cancelled": sum(self.cancelled.values()),
                "processes_spawned": self.processes_spawned,
                "coroutine_steps": self.coroutine_steps,
                "arbiter_transitions": self.arbiter_transitions,
                "flows_swept": self.flows_swept,
                "flows_reaimed": self.flows_reaimed,
                "gc_collections": self.gc_collections,
                "gc_collections_in_dispatch": self.gc_collections_in_dispatch,
            },
            "phases": {
                "dispatch_s": self.dispatch_s,
                "heap_ops_s": self.heap_s,
                "coroutine_steps_s": self.coroutine_s,
                "arbiter_s": self.arbiter_s,
                "gc_s": self.gc_s,
            },
            "by_label": {
                key: {
                    "scheduled": self.scheduled.get(key, 0),
                    "dispatched": self.dispatched.get(key, 0),
                    "cancelled": self.cancelled.get(key, 0),
                    "self_s": self.self_time_s.get(key, 0.0),
                }
                for key in sorted(
                    set(self.scheduled) | set(self.dispatched) | set(self.cancelled)
                )
            },
        }


class Event:
    """A scheduled callback.

    Events order by ``(time, sequence)`` so the heap pops them in
    deterministic order.  ``cancelled`` events stay in the heap but are
    skipped when popped, which is cheaper than heap removal and matches how
    the billed-duration timers are frequently rescheduled.  Cancelling
    notifies the owning queue so its live count stays O(1) and heavily
    tombstoned heaps get compacted.

    The heap itself stores ``(time, sequence, event)`` tuples, so ordering
    is decided by C-level tuple comparison (sequences are unique, so two
    events are never compared) — a measurable win at fleet scale, where
    hundreds of thousands of flow-completion events are pushed and re-aimed.
    """

    __slots__ = ("time", "sequence", "callback", "label", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None],
        label: str = "",
        _queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        #: Owning queue while the event sits in its heap; cleared on pop so a
        #: late ``cancel()`` of an already-dispatched event cannot skew counts.
        self._queue = _queue

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(time={self.time}, sequence={self.sequence}, label={self.label!r}, {state})"

    def cancel(self) -> None:
        """Mark the event so the loop skips it when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        queue, self._queue = self._queue, None
        if queue is not None:
            queue._note_cancel(self)


class DeadlineTimer:
    """A timer whose deadline can move *later* without touching the heap.

    The cancel-and-reschedule idiom turns every deadline extension into a
    tombstone plus a fresh heap push; under extension-heavy workloads (flow
    re-aims when a competing flow joins, billed-session windows stretched by
    every request) the queue ends up mostly tombstones.  A ``DeadlineTimer``
    instead keeps **at most one** live heap entry, aimed at the earliest
    deadline requested since it was last (re)armed, and treats the
    ``deadline`` field as authoritative at fire time:

    * moving the deadline *later* is a plain field write — the stale entry
      fires early, notices the stored deadline is still ahead, and re-arms
      itself once at the current deadline;
    * moving it *earlier* (or to the entry's exact time) still cancels and
      re-pushes eagerly, because the entry must fire no later than the
      deadline;
    * the callback runs only when the loop reaches the stored deadline, so
      firing times are identical to the eager idiom.

    Tie-breaking is *also* identical: every extension reserves the
    sequence number the eager cancel-and-push would have consumed (a
    counter increment, no heap traffic), and the eventual re-arm pushes
    under that reserved number.  Same-timestamp ordering is observable —
    simultaneous chunk completions decide which flow loses a
    first-``d``-of-``n`` quorum — so the lazy timer must not perturb it.

    Obtained from :meth:`EventLoop.schedule_deadline`.
    """

    __slots__ = ("loop", "callback", "label", "deadline", "_event", "_sequence")

    def __init__(
        self,
        loop: "EventLoop",
        deadline: float,
        callback: Callable[[], None],
        label: str = "",
    ) -> None:
        self.loop = loop
        self.callback = callback
        self.label = label
        self.deadline = deadline
        # The timer is its own event callback: arming it allocates no
        # bound method.
        self._event: Optional[Event] = loop.schedule_at(deadline, self, label)
        self._sequence: Optional[int] = None

    @property
    def active(self) -> bool:
        """Whether a firing is pending (the timer has not run or been cancelled)."""
        return self._event is not None

    def set_deadline(self, when: float) -> None:
        """Move the deadline; re-arms a fired/cancelled timer.

        Extensions are O(1) field writes; only moving the deadline to or
        before the pending entry's time costs a cancel plus a push.

        Raises:
            ValueError: if ``when`` is NaN or infinite.
            SimulationError: if ``when`` is before now.

            Both are checked before the pending entry is touched, so a
            rejected call leaves the timer armed exactly as it was.  (A NaN
            compares false against the entry's time and used to be taken
            for an extension, firing the callback at the old deadline.)
        """
        event = self._event
        if event is not None and event.time < when < math.inf:
            # Extension, past the pending entry's time and finite: keep the
            # entry (it will fire early and re-arm) but reserve the sequence
            # number an eager re-push would have consumed, so the re-armed
            # entry ties against same-timestamp events exactly like the
            # eager one (``EventQueue.reserve_sequence``, inlined).
            self.deadline = when
            self._sequence = next(self.loop.queue._counter)
            return
        loop = self.loop
        if not loop.clock._now - 1e-12 <= when < math.inf:
            if not math.isfinite(when):
                raise ValueError(
                    f"timer deadline must be finite, got {when!r} "
                    f"(label={self.label!r}, callback={self.callback!r})"
                )
            raise SimulationError(
                f"cannot move a timer deadline to {when}, which is before "
                f"now={loop.clock._now} (label={self.label!r}, callback={self.callback!r})"
            )
        self.deadline = when
        if event is not None:
            event.cancel()
        self._sequence = None
        self._event = loop.schedule_at(when, self, self.label)

    def __repr__(self) -> str:
        return f"DeadlineTimer({self.deadline}, {self.callback!r})"

    def cancel(self) -> None:
        """Cancel the pending firing (``set_deadline`` re-arms afterwards)."""
        event, self._event = self._event, None
        self._sequence = None
        if event is not None:
            event.cancel()

    def __call__(self) -> None:
        """Fire: run the callback, or re-arm if the deadline moved later."""
        if self.deadline > self.loop.clock._now:
            # The deadline moved later since this entry was pushed: re-arm
            # once at the stored deadline instead of having churned the heap
            # on every extension, under the sequence number reserved by the
            # (most recent) extension.
            sequence, self._sequence = self._sequence, None
            if sequence is None:
                self._event = self.loop.schedule_at(self.deadline, self, self.label)
            else:
                self._event = self.loop.queue.push_reserved(
                    self.deadline, sequence, self, self.label
                )
            return
        self._event = None
        self._sequence = None
        self.callback()


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    The queue keeps a running count of non-cancelled entries so ``len()``
    and truth-testing are O(1), and rebuilds the heap whenever cancelled
    tombstones outnumber live events (bounding memory and pop cost under
    cancel-heavy workloads such as flow rescheduling).
    """

    #: Never bother compacting heaps smaller than this.
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        #: Lifetime statistics (never reset by compaction).
        self._pushed = 0
        self._popped = 0
        self._cancelled = 0
        self._compactions = 0
        self._peak_heap = 0
        #: Optional :class:`LoopProfile` attached by the owning loop.
        self.profile: Optional["LoopProfile"] = None

    def push(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Insert a callback to run at absolute virtual ``time``.

        Raises:
            ValueError: if ``time`` is NaN, infinite, or negative.  A NaN
                timestamp would silently poison the heap invariant — every
                comparison against NaN is False, so sift-up parks the entry
                wherever it lands and *other* events start popping out of
                order long after the bad push.
        """
        return self.push_reserved(time, next(self._counter), callback, label)

    def reserve_sequence(self) -> int:
        """Consume and return the next tie-breaking sequence number.

        What a :class:`DeadlineTimer` extension does (inlined there): the
        re-armed entry then ties like the eager push it stands in for.
        """
        return next(self._counter)

    def push_reserved(
        self, time: float, sequence: int, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Insert a callback at ``time`` under ``sequence``: fresh, or timer-reserved."""
        if not math.isfinite(time) or time < 0:
            raise ValueError(
                f"event time must be finite and non-negative, got {time!r} "
                f"(label={label!r}, callback={callback!r})"
            )
        event = Event(time, sequence, callback, label, self)
        heap = self._heap
        heappush(heap, (time, sequence, event))
        self._live += 1
        self._pushed += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)
        if self.profile is not None:
            self.profile.note_scheduled(label)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if not event.cancelled:
                event._queue = None
                self._live -= 1
                self._popped += 1
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest pending event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def _note_cancel(self, event: Event) -> None:
        self._live -= 1
        self._cancelled += 1
        if self.profile is not None:
            self.profile.note_cancelled(event.label)
        heap_size = len(self._heap)
        if heap_size >= self.COMPACT_MIN_SIZE and (heap_size - self._live) * 2 > heap_size:
            self._heap = [entry for entry in self._heap if not entry[2].cancelled]
            heapify(self._heap)
            self._compactions += 1

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------ statistics
    @property
    def tombstones(self) -> int:
        """Cancelled events still occupying heap slots."""
        return len(self._heap) - self._live

    def stats(self) -> dict[str, int]:
        """Lifetime queue statistics (tombstone pressure, compactions, peaks)."""
        return {
            "live": self._live,
            "tombstones": self.tombstones,
            "pushed": self._pushed,
            "popped": self._popped,
            "cancelled": self._cancelled,
            "compactions": self._compactions,
            "peak_heap_size": self._peak_heap,
        }


class EventLoop:
    """Drives a virtual clock through a queue of scheduled events.

    A single :class:`EventLoop` instance is shared by the FaaS platform, the
    cache components, the flow-level network model, and the workload drivers
    so that warm-up timers, reclamation sweeps, chunk flows, and request
    arrivals interleave consistently.
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        self.queue = EventQueue()
        self._events_processed = 0
        self._profile: Optional[LoopProfile] = None

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.clock._now

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far (useful in tests)."""
        return self._events_processed

    # ------------------------------------------------------------------ profiling
    @property
    def profile(self) -> Optional[LoopProfile]:
        """The active :class:`LoopProfile`, or ``None`` when not profiling."""
        return self._profile

    def enable_profiling(self) -> LoopProfile:
        """Start wall-clock profiling; returns the (fresh) profile.

        Enable *before* running the loop: the run methods snapshot the
        profile reference on entry, so flipping it mid-run has no effect
        until the next ``run_*`` call.
        """
        self.disable_profiling()
        self._profile = LoopProfile()
        self.queue.profile = self._profile
        gc.callbacks.append(self._profile.note_gc)
        return self._profile

    def disable_profiling(self) -> Optional[LoopProfile]:
        """Stop profiling; returns the profile collected so far (if any)."""
        profile, self._profile = self._profile, None
        self.queue.profile = None
        if profile is not None:
            gc.callbacks.remove(profile.note_gc)
        return profile

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Raises:
            ValueError: if ``delay`` is NaN or infinite (``delay < 0`` is
                False for NaN, so without this check a NaN would corrupt
                the heap ordering instead of failing here, at the API
                boundary where the caller is identifiable).
            SimulationError: if ``delay`` is negative.
        """
        if not math.isfinite(delay):
            raise ValueError(
                f"event delay must be finite, got {delay!r} "
                f"(label={label!r}, callback={callback!r})"
            )
        if delay < 0:
            raise SimulationError(
                f"cannot schedule an event {delay} seconds in the past "
                f"(label={label!r}, callback={callback!r})"
            )
        queue = self.queue
        return queue.push_reserved(self.clock._now + delay, next(queue._counter), callback, label)

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run at absolute virtual ``time``.

        Raises:
            ValueError: if ``time`` is NaN or infinite (``max(nan, now)``
                returns NaN, so the pre-check is load-bearing).
            SimulationError: if ``time`` is in the past.
        """
        if not math.isfinite(time):
            raise ValueError(
                f"event time must be finite, got {time!r} "
                f"(label={label!r}, callback={callback!r})"
            )
        now = self.clock._now
        if time < now - 1e-12:
            raise SimulationError(
                f"cannot schedule an event at {time}, which is before now={now} "
                f"(label={label!r}, callback={callback!r})"
            )
        queue = self.queue
        return queue.push_reserved(max(time, now), next(queue._counter), callback, label)

    def schedule_deadline(
        self,
        deadline: float,
        callback: Callable[[], None],
        label: str = "",
    ) -> DeadlineTimer:
        """A lazily re-aimed timer: extending the deadline is a field write.

        Use instead of the cancel+reschedule idiom when a deadline is
        extended far more often than it is shortened (billed-session close
        watchdogs, flow-finish re-aims); see :class:`DeadlineTimer`.
        """
        return DeadlineTimer(self, deadline, callback, label)

    # ------------------------------------------------------------------ awaitables
    def timeout(self, delay: float, label: str = "sim.timeout") -> SimFuture:
        """A future that resolves with the (virtual) wake-up time after ``delay``.

        Cancelling the future cancels the underlying event, so an abandoned
        sleeper never fires.
        """
        future = SimFuture(label=label)

        def fire() -> None:
            if not future.done:
                future.resolve(self.clock.now)

        event = self.schedule(delay, fire, label)
        future.on_cancel(event.cancel)
        return future

    def spawn(self, generator: ProcessGenerator, label: str = "") -> Process:
        """Run a coroutine generator as a process, started immediately.

        The returned :class:`~repro.sim.process.Process` is a future
        resolving with the generator's return value; other coroutines wait on
        it by yielding the process.
        """
        process = Process(self, generator, label=label)
        if self._profile is not None:
            self._profile.processes_spawned += 1
        process.start()
        return process

    # ------------------------------------------------------------------ running
    @contextmanager
    def _dispatching(self) -> Iterator[Optional[LoopProfile]]:
        """The scope of one ``run*`` call: automatic cyclic collection is off.

        No request path leaves cyclic garbage (``tests/test_sim_gc.py``), so
        a pass here would only re-scan a heap that grows with the fleet.
        Exit restores the state found on entry (nested runs, a caller who
        disabled the collector); explicit ``gc.collect()`` calls still work.
        """
        profile, was_enabled = self._profile, gc.isenabled()
        gc.disable()
        if profile is not None:
            profile.active_runs += 1
        try:
            yield profile
        finally:
            if profile is not None:
                profile.active_runs -= 1
            if was_enabled:
                gc.enable()

    def run_until(self, end_time: float) -> None:
        """Dispatch events in order until the queue is empty or ``end_time``.

        The clock ends exactly at ``end_time`` even if the last event fires
        earlier, so periodic reports (hourly cost buckets, for example) cover
        the full requested window.
        """
        if end_time < self.clock.now:
            raise SimulationError(
                f"run_until({end_time}) is before current time {self.clock.now}"
            )
        with self._dispatching() as profile:
            while True:
                if profile is None:
                    next_time = self.queue.peek_time()
                    if next_time is None or next_time > end_time:
                        break
                    event = self.queue.pop()
                else:
                    heap_started = perf_counter()  # repro: allow[D102] (profiling meter)
                    next_time = self.queue.peek_time()
                    if next_time is None or next_time > end_time:
                        profile.heap_s += perf_counter() - heap_started  # repro: allow[D102] (profiling meter)
                        break
                    event = self.queue.pop()
                    profile.heap_s += perf_counter() - heap_started  # repro: allow[D102] (profiling meter)
                if event is None:
                    break
                self.clock.advance_to(event.time)
                self._events_processed += 1
                if profile is None:
                    event.callback()
                else:
                    started = perf_counter()  # repro: allow[D102] (profiling meter)
                    event.callback()
                    profile.note_dispatch(event.label, perf_counter() - started)  # repro: allow[D102] (profiling meter)
        self.clock.advance_to(end_time)

    def run_all(self, max_events: int = 10_000_000) -> None:
        """Dispatch every pending event (bounded by ``max_events``).

        Raises:
            SimulationError: if the bound is hit, which almost always means a
                component is rescheduling itself unconditionally.
        """
        dispatched = 0
        with self._dispatching() as profile:
            while True:
                if profile is None:
                    event = self.queue.pop()
                else:
                    heap_started = perf_counter()  # repro: allow[D102] (profiling meter)
                    event = self.queue.pop()
                    profile.heap_s += perf_counter() - heap_started  # repro: allow[D102] (profiling meter)
                if event is None:
                    return
                self.clock.advance_to(event.time)
                self._events_processed += 1
                if profile is None:
                    event.callback()
                else:
                    started = perf_counter()  # repro: allow[D102] (profiling meter)
                    event.callback()
                    profile.note_dispatch(event.label, perf_counter() - started)  # repro: allow[D102] (profiling meter)
                dispatched += 1
                if dispatched >= max_events:
                    raise SimulationError(
                        f"run_all dispatched {max_events} events without draining the queue; "
                        "a component is likely rescheduling itself forever"
                    )

    def run_until_complete(self, future: SimFuture, max_events: int = 10_000_000) -> object:
        """Dispatch events until ``future`` settles; returns its result.

        Unlike :meth:`run_all` this terminates even while periodic timers
        (warm-ups, reclamation sweeps) keep the queue perpetually non-empty —
        it is how the workload drivers run "until every client finishes".

        Raises:
            SimulationError: if the queue drains with the future still
                pending (a deadlocked process: the message names every
                parked process and the future it waits on), or
                ``max_events`` is hit.
        """
        dispatched = 0
        clock, queue = self.clock, self.queue
        with self._dispatching() as profile:
            while not future._done:
                if profile is None:
                    event = queue.pop()
                else:
                    heap_started = perf_counter()  # repro: allow[D102] (profiling meter)
                    event = queue.pop()
                    profile.heap_s += perf_counter() - heap_started  # repro: allow[D102] (profiling meter)
                if event is None:
                    raise SimulationError(
                        f"event queue drained but {future.label!r} never resolved; "
                        f"parked: {self._parked_processes()}"
                    )
                # ``SimClock.advance_to`` inlined, its backwards check kept.
                time = event.time
                if time > clock._now:
                    clock._now = float(time)
                elif time < clock._now - 1e-12:
                    clock.advance_to(time)  # raises: the clock never runs backwards
                self._events_processed += 1
                if profile is None:
                    event.callback()
                else:
                    started = perf_counter()  # repro: allow[D102] (profiling meter)
                    event.callback()
                    profile.note_dispatch(event.label, perf_counter() - started)  # repro: allow[D102] (profiling meter)
                dispatched += 1
                if dispatched >= max_events:
                    raise SimulationError(
                        f"run_until_complete dispatched {max_events} events while waiting "
                        f"for {future.label!r}"
                    )
        return future.result if not future.cancelled else None

    def _parked_processes(self) -> str:
        """Every unfinished process of this loop and what it waits on.

        Only a deadlocked run calls this, so it walks the collector's object
        list instead of having the hot path keep a registry of live
        processes.  Sorted by label, at most twenty of them.
        """
        limit = 20
        parked = sorted(
            f"{obj.label!r} waiting on "
            + (repr(obj._waiting_on.label) if obj._waiting_on is not None else "sleep")
            for obj in gc.get_objects()
            if isinstance(obj, Process) and obj.loop is self and obj._started
            and not obj._done
        )
        if not parked:
            return "no process (an unresolved future nobody waits on)"
        shown = ", ".join(parked[:limit])
        if len(parked) > limit:
            shown += f", and {len(parked) - limit} more"
        return shown


class PeriodicTask:
    """A callback rescheduled every ``interval_s`` until stopped.

    Wraps the schedule-yourself-again idiom the periodic maintenance actors
    (warm-up, backup, reclamation sweeps, autoscaler, failure detector)
    share, including cancellation of the pending event on :meth:`stop` so a
    stopped task never fires late.
    """

    def __init__(
        self,
        simulator: EventLoop,
        interval_s: float,
        callback: Callable[[], object],
        label: str = "",
    ) -> None:
        if not math.isfinite(interval_s) or interval_s <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval_s}")
        self.simulator = simulator
        self.interval_s = interval_s
        self.callback = callback
        self.label = label
        self._started = False
        self._pending: Optional[Event] = None

    def start(self) -> None:
        """Schedule the first firing (idempotent)."""
        if self._started:
            return
        self._started = True
        self._pending = self.simulator.schedule(self.interval_s, self._fire, self.label)

    def stop(self) -> None:
        """Cancel the pending firing and stop rescheduling."""
        self._started = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _fire(self) -> None:
        if not self._started:
            return
        self.callback()
        self._pending = self.simulator.schedule(self.interval_s, self._fire, self.label)

"""Futures and coroutine processes for the discrete-event engine.

A :class:`Process` expresses a multi-step simulated operation — "invoke the
Lambda, wait for the chunk flow, then decode" — as an ordinary Python
generator.  The generator *yields* the things it wants to wait on and the
event loop resumes it when they are ready:

* a ``float``/``int`` — sleep that many virtual seconds;
* a :class:`SimFuture` — resume when the future resolves (e.g. a network
  flow completing);
* another :class:`Process` — resume when that process finishes (its return
  value is sent back in).

Sequential composition uses plain ``yield from`` delegation (the client GET
coroutine delegates to the proxy GET coroutine); *concurrent* composition
spawns child processes with :meth:`~repro.sim.loop.EventLoop.spawn` and
waits on a future that settles when they do, such as :func:`all_of` (a PUT
waiting for every chunk to land).

Cancellation is cooperative: cancelling a process closes its generator —
running any ``finally`` blocks at the *current* virtual time, which is how
an abandoned straggler fetch bills the partial transfer it performed — and
then cancels whatever the process was waiting on, which releases resources
such as in-flight network flows (or cancels the child process it waits on).
:meth:`Process.interrupt` is the recoverable form: it raises an exception at
the coroutine's current wait, which the coroutine may catch and go on.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Optional

from repro.exceptions import SimulationError

if TYPE_CHECKING:
    from repro.sim.loop import Event, EventLoop


#: What a future calls when it settles: a function, or a waiter that is
#: its own callback (a parked :class:`Process`).
_Callback = Callable[["SimFuture"], None]


class SimFuture:
    """A single-assignment result that callbacks (and processes) can await."""

    # One or more per chunk transfer: slots skip the instance dict.
    __slots__ = ("label", "_done", "_cancelled", "_result", "_callbacks", "_cancel_hooks")

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._done = False
        self._cancelled = False
        self._result: object = None
        # Most futures get one callback: a lone one is held as is and a list
        # is made only at the second.  Hooks are a list made on first use
        # (many futures get none).  Both are dropped on settle.
        self._callbacks: "_Callback | list[_Callback] | None" = None
        self._cancel_hooks: "list[Callable[[], None]] | tuple[()]" = ()

    @property
    def done(self) -> bool:
        """Whether the future has resolved (or been cancelled)."""
        return self._done

    @property
    def cancelled(self) -> bool:
        """Whether the future was cancelled rather than resolved."""
        return self._cancelled

    @property
    def result(self) -> object:
        """The resolved value (``None`` for a cancelled future).

        Raises:
            SimulationError: if the future is still pending.
        """
        if not self._done:
            raise SimulationError(f"future {self.label!r} has not resolved yet")
        return self._result

    def add_done_callback(self, callback: _Callback) -> None:
        """Run ``callback(self)`` when the future settles (now, if already done)."""
        if self._done:
            callback(self)
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = callback
        elif isinstance(callbacks, list):
            callbacks.append(callback)
        else:
            self._callbacks = [callbacks, callback]

    def on_cancel(self, hook: Callable[[], None]) -> None:
        """Register a resource-release hook run if the future is cancelled."""
        if self._done:
            return
        hooks = self._cancel_hooks
        if isinstance(hooks, list):
            hooks.append(hook)
        else:
            self._cancel_hooks = [hook]

    def _settle(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        self._cancel_hooks = ()
        if isinstance(callbacks, list):
            for callback in callbacks:
                callback(self)
        elif callbacks is not None:
            callbacks(self)

    def resolve(self, result: object = None) -> None:
        """Resolve the future with ``result`` and fire the callbacks."""
        if self._done:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self._done = True
        self._result = result
        self._settle()

    def cancel(self) -> bool:
        """Cancel the future; returns ``False`` if it had already settled.

        Cancel hooks run first (releasing e.g. a timer backing the future),
        then done-callbacks fire with ``cancelled=True``.
        """
        if self._done:
            return False
        self._done = True
        self._cancelled = True
        hooks, self._cancel_hooks = self._cancel_hooks, ()
        for hook in hooks:
            hook()
        self._settle()
        return True

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else ("done" if self._done else "pending")
        return f"SimFuture({self.label!r}, {state})"


def all_of(futures: Iterable[SimFuture], label: str = "sim.all_of") -> SimFuture:
    """A future resolving when *every* input future has settled.

    The result is the list of input results in input order; cancelled inputs
    contribute ``None``.
    """
    pending = list(futures)
    gate = SimFuture(label=label)
    remaining = len(pending)
    if remaining == 0:
        gate.resolve([])
        return gate

    def on_done(_future: SimFuture) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining == 0 and not gate.done:
            gate.resolve([f.result if not f.cancelled else None for f in pending])

    for future in pending:
        future.add_done_callback(on_done)
    return gate


class CountdownLatch:
    """A future that resolves after a known number of completions.

    The open-loop injectors (trace replay, the cluster-scale experiment)
    schedule all their arrivals up front and need to run the loop "until
    every injected request has finished"; the latch is that completion
    signal.  :meth:`count_down` is also usable directly as a future
    done-callback.
    """

    def __init__(self, count: int, label: str = "sim.latch") -> None:
        if count < 0:
            raise SimulationError(f"latch count must be non-negative, got {count}")
        self._remaining = count
        self.future = SimFuture(label=label)
        if count == 0:
            self.future.resolve(None)

    @property
    def remaining(self) -> int:
        """Completions still outstanding."""
        return self._remaining

    def count_down(self, _future: "SimFuture | None" = None) -> None:
        """Record one completion; resolves the latch future at zero."""
        if self._remaining <= 0:
            raise SimulationError(f"latch {self.future.label!r} counted below zero")
        self._remaining -= 1
        if self._remaining == 0:
            self.future.resolve(None)


#: What a process generator may yield: a delay, a future, or a child process.
Waitable = object
ProcessGenerator = Generator[Waitable, object, object]


class Process(SimFuture):
    """Drives one coroutine generator over the event loop.

    A process is the future of its generator's ``return`` value: waiting on
    it (by yielding it) hands that value back to the waiter.  It is also its
    own done-callback while it is parked on a future, so a wait allocates
    nothing beyond the future's callback slot.
    """

    __slots__ = ("loop", "generator", "_waiting_on", "_sleep_event", "_started", "_cancelling")

    def __init__(self, loop: "EventLoop", generator: ProcessGenerator, label: str = "") -> None:
        super().__init__(label or getattr(generator, "__name__", "process"))
        self.loop = loop
        self.generator = generator
        #: The future (a flow, a quorum, a child process) the coroutine is
        #: parked on.
        self._waiting_on: Optional[SimFuture] = None
        #: Pending plain-sleep event when the coroutine yielded a number; the
        #: numeric fast path schedules the resume directly instead of
        #: building a timeout future (see :meth:`_wait_on`).
        self._sleep_event: Optional["Event"] = None
        self._started = False
        self._cancelling = False

    def start(self) -> None:
        """Run the coroutine up to its first wait (idempotent)."""
        if self._started:
            return
        self._started = True
        self._step(None)

    def cancel(self) -> bool:
        """Abort the process at the current virtual time.

        Closes the generator (running its ``finally`` blocks) and cancels
        whatever it was waiting on, so held resources — pending timers,
        in-flight network flows, a child process and what *it* holds — are
        released; the process settles as a cancelled future last.  Returns
        ``False`` if the process had already finished.
        """
        if self._done:
            return False
        self._cancelling = True
        waiting, self._waiting_on = self._waiting_on, None
        sleep_event, self._sleep_event = self._sleep_event, None
        self.generator.close()
        if sleep_event is not None:
            sleep_event.cancel()
        if waiting is not None:
            waiting.cancel()
        SimFuture.cancel(self)
        return True

    def interrupt(self, error: BaseException) -> bool:
        """Raise ``error`` inside the coroutine at its current wait.

        The coroutine's ``finally`` blocks run at the current virtual time,
        as on :meth:`cancel`, but the coroutine may catch ``error`` and go
        on: its next yield is waited on as usual and its return value
        resolves the process.  Once the coroutine is parked again (or done),
        what it was waiting on is released in :meth:`cancel`'s order — the
        sleep event, then the future or child process — and that future's
        late callback is ignored.  An ``error`` the coroutine does not catch
        propagates to the caller.  Returns ``False`` if the process had
        already finished.
        """
        if self._done:
            return False
        waiting, self._waiting_on = self._waiting_on, None
        sleep_event, self._sleep_event = self._sleep_event, None
        # The abandoned wait may settle while the coroutine handles the
        # error (it can release the wait itself); that must not resume it.
        self._cancelling = True
        finished = False
        profile = self.loop._profile
        started = perf_counter() if profile is not None else 0.0  # repro: allow[D102] (profiling meter)
        try:
            target = self.generator.throw(error)
        except StopIteration as stop:
            finished, target = True, getattr(stop, "value", None)
        finally:
            if profile is not None:
                profile.coroutine_steps += 1
                profile.coroutine_s += perf_counter() - started  # repro: allow[D102] (profiling meter)
            if sleep_event is not None:
                sleep_event.cancel()
            if waiting is not None:
                waiting.cancel()
            self._cancelling = False
        if finished:
            self.resolve(target)
        else:
            self._wait_on(target)
        return True

    # ------------------------------------------------------------------ driving
    def _step(self, value: object) -> None:
        profile = self.loop._profile
        if profile is None:
            try:
                target = self.generator.send(value)
            except StopIteration as stop:
                self.resolve(getattr(stop, "value", None))
                return
        else:
            # Meter only the generator resumption itself; the downstream
            # future callbacks fired by resolve() bill to their own meters.
            started = perf_counter()  # repro: allow[D102] (profiling meter)
            try:
                target = self.generator.send(value)
            except StopIteration as stop:
                profile.coroutine_steps += 1
                profile.coroutine_s += perf_counter() - started  # repro: allow[D102] (profiling meter)
                self.resolve(getattr(stop, "value", None))
                return
            profile.coroutine_steps += 1
            profile.coroutine_s += perf_counter() - started  # repro: allow[D102] (profiling meter)
        self._wait_on(target)

    def _wait_on(self, target: Waitable) -> None:
        # Futures first: flows, quorums and child processes are what request
        # coroutines mostly wait on.  A child process is parked on as itself,
        # so cancelling this process cancels the child (its ``finally``
        # blocks run now, its flows are released) instead of only ceasing
        # to listen to it.
        if isinstance(target, SimFuture):
            self._waiting_on = target
            target.add_done_callback(self)
        elif isinstance(target, (int, float)):
            # Plain-sleep fast path: closed-loop clients sleep between every
            # operation, so skipping the timeout future (a SimFuture, two
            # closures, and a callback list per yield) is one of the hottest
            # allocation savings in a macro run.  Timing, event kind, and
            # the value sent back into the generator (the wake-up time) are
            # identical to ``loop.timeout``.
            # A bad delay fails in ``schedule``, whose error names the
            # callback and so this process.
            self._sleep_event = self.loop.schedule(float(target), self._resume_sleep, "sleep")
        else:
            raise SimulationError(
                f"process {self.label!r} yielded unsupported waitable {target!r}"
            )

    def _resume_sleep(self) -> None:
        self._sleep_event = None
        if self._done or self._cancelling:
            return
        self._step(self.loop.clock._now)

    def __call__(self, future: SimFuture) -> None:
        """Resume the coroutine with what ``future`` settled to: the process
        is the done-callback of the future it is parked on."""
        if self._done or self._cancelling:
            return
        self._waiting_on = None
        self._step(future._result if not future._cancelled else None)

    def __repr__(self) -> str:
        state = "done" if self._done else ("running" if self._started else "new")
        return f"Process({self.label!r}, {state})"

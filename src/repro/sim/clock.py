"""Virtual simulation clock.

The clock is the single source of truth for "now" inside a simulation.  It
only moves forward.  Components that model synchronous latency (e.g. a chunk
transfer that takes 18 ms) call :meth:`SimClock.advance`; components that
model asynchronous behaviour (reclamation sweeps, warm-up timers, racing
chunk flows) schedule events on the :class:`~repro.sim.loop.EventLoop`,
which drives the same clock.
"""

from __future__ import annotations

from repro.exceptions import SimulationError


class SimClock:
    """A monotonically non-decreasing virtual clock measured in seconds.

    The event loop's hot paths read ``_now`` directly rather than through
    the :attr:`now` property: one attribute load instead of a call.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds since simulation start."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` seconds and return the new time.

        Raises:
            SimulationError: if ``delta`` is negative, which would indicate a
                bug in a latency model (time never flows backwards).
        """
        if delta < 0:
            raise SimulationError(f"cannot advance clock by negative delta {delta}")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to an absolute ``timestamp``.

        Advancing to a time earlier than ``now`` is an error; advancing to the
        current time is a no-op.  The event loop uses this when dispatching
        scheduled events.
        """
        if timestamp < self._now - 1e-12:
            raise SimulationError(
                f"cannot move clock backwards from {self._now} to {timestamp}"
            )
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"

"""``repro.sim`` — the discrete-event simulation engine.

The InfiniCache reproduction runs on a simulated AWS substrate rather than a
real cloud, so everything time-dependent (invocation latency, chunk flows,
warm-up timers, function reclamation, request arrivals) is driven by a
shared virtual clock and event queue defined here.

Three layers, lowest first:

* **clock + events** — :class:`SimClock`, :class:`Event`,
  :class:`EventQueue`, :class:`EventLoop`: callbacks
  scheduled at absolute virtual times, executed in deterministic
  ``(time, insertion)`` order.
* **timers** — :class:`PeriodicTask`: the refire-every-interval idiom the
  maintenance actors (warm-up, backup, reclamation sweeps, autoscaler)
  share.
* **processes** — :class:`Process` coroutines plus :class:`SimFuture` and
  the :func:`all_of` barrier: multi-step operations
  ("invoke the Lambda, wait for the chunk flow, then decode") written as
  generators, with genuine concurrency between processes — the substrate of
  the overlapping-request drivers in :mod:`repro.workload.replay` and the
  proxy's first-d-of-n chunk racing.

See ``docs/simulation.md`` for the programming model and examples.
"""

from repro.sim.clock import SimClock
from repro.sim.loop import Event, EventLoop, EventQueue, PeriodicTask
from repro.sim.process import CountdownLatch, Process, SimFuture, all_of

__all__ = [
    "SimClock",
    "Event",
    "EventQueue",
    "EventLoop",
    "PeriodicTask",
    "CountdownLatch",
    "Process",
    "SimFuture",
    "all_of",
]

"""Run independent simulations side by side on every usable core.

The evaluation is mostly independent runs: Figure 1's two datacentre
traces, Figure 8's six reclamation days, Figure 11's cells, Figure 12's
client counts, the production trace's five replays, the chaos sweep's
hardening levels, the autoscaler comparison's policies, a scenario grid's
``(cell, replication)`` units.  :func:`fan_out` maps a top-level function
over such a list in ``fork``ed worker processes and hands the results back
in unit order, so the caller cannot tell it from a list comprehension —
each unit derives its own seed from what it is given, never from which
worker runs it or when.

Why ``fork``: a ``spawn`` pool re-imports ``repro`` in every worker, and
on a 2-core host a 2-worker one took about 0.4 s to start, longer than
most of these units run; a forked pool starts in about 6 ms
(``docs/performance.md``, "Fan-out"), and its workers also see anything
registered at run time (a custom scenario collector, say).  The cost is
that a worker starts from a copy of the parent's memory, so a unit must be
a pure function of its argument: state one unit writes is visible neither
to the parent nor to another unit.  A fork copies only the calling thread,
so call this from a thread whose siblings hold no lock a unit needs; the
pool forks all its workers before it starts threads of its own, and
nothing in ``repro`` starts any.

Why ``ProcessPoolExecutor``: a worker that dies (killed, ``os._exit``,
out of memory) breaks the pool once, which is raised here as a
:class:`~repro.exceptions.SimulationError`; ``multiprocessing.Pool`` would
replace the worker and wait forever for the lost result.  An exception a
unit raises reaches the caller unchanged.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence, TypeVar

from repro.exceptions import SimulationError

__all__ = ["fan_out", "usable_cpus"]

_Unit = TypeVar("_Unit")
_Result = TypeVar("_Result")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(
    fn: Callable[[_Unit], _Result],
    units: Sequence[_Unit],
    workers: Optional[int] = None,
) -> list[_Result]:
    """``[fn(unit) for unit in units]``, computed on up to ``workers`` cores.

    ``fn`` must be a module-level function and every unit and result
    picklable.  ``workers`` defaults to :func:`usable_cpus`; the pool gets
    ``min(workers, len(units))`` processes, and with one (or on a platform
    without ``fork``) the units run here, in order.  Units are handed out
    one at a time in list order, so put the longest first.
    """
    count = min(len(units), usable_cpus() if workers is None else workers)
    if count <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(unit) for unit in units]
    try:
        with ProcessPoolExecutor(
            max_workers=count, mp_context=multiprocessing.get_context("fork")
        ) as executor:
            return list(executor.map(fn, units))
    except BrokenProcessPool as error:
        raise SimulationError(
            f"a worker process died while running {fn.__qualname__} over "
            f"{len(units)} units (killed, out of memory, or exited); "
            "the run is abandoned rather than left waiting for its result"
        ) from error

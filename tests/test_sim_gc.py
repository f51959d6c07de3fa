"""No request path leaves cyclic garbage behind.

``EventLoop.run*`` dispatches with the cyclic collector paused (see
``repro.sim.loop``), which is memory-neutral only while everything a request
allocates is freed by reference counting.  Each test here replays one request
path with the collector off, keeps the deployment and the report alive, and
asserts that a full collection afterwards finds nothing unreachable.
"""

from __future__ import annotations

import gc
import random
from collections import Counter

from repro.baselines.s3 import ObjectStore
from repro.cache.deployment import InfiniCacheDeployment
from repro.experiments import perf, production
from repro.faults import FaultSchedule, LinkBlackhole
from repro.faults.engine import ChaosEngine
from repro.faults.scenario import demo_config, demo_schedule
from repro.workload.replay import ClientOp, ClosedLoopDriver, OpenLoopDriver


def _type_name(obj: object) -> str:
    """Type name; generators and functions also say which one they are."""
    qualname = getattr(obj, "__qualname__", None)
    if qualname is not None and not isinstance(obj, type):
        return f"{type(obj).__name__}:{qualname}"
    return type(obj).__name__


def _cyclic_garbage(replay) -> tuple[int, Counter]:
    """Run ``replay()`` with the collector off; count what only it could free.

    Returns the number of unreachable objects the following full collection
    found and their type histogram (taken with ``gc.DEBUG_SAVEALL``).  The
    value ``replay`` returns — deployment, report — stays alive throughout,
    so only garbage counts, never the live deployment's own back-pointers.
    """
    was_enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()  # earlier tests' garbage is not this replay's
    gc.disable()
    try:
        alive = replay()
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        histogram = Counter(_type_name(obj) for obj in gc.garbage)
        del alive
        return unreachable, histogram
    finally:
        gc.set_debug(debug)
        del gc.garbage[:]
        if was_enabled:
            gc.enable()
        gc.collect()  # free what DEBUG_SAVEALL kept


def _assert_cycle_free(replay) -> None:
    unreachable, histogram = _cyclic_garbage(replay)
    assert unreachable == 0, (
        f"{unreachable} unreachable objects only the cyclic collector frees: "
        + ", ".join(f"{count} {name}" for name, count in histogram.most_common(12))
    )


def test_plain_closed_loop_makes_no_cycles():
    def replay():
        deployment, plans = perf.fleet(64, "incremental")
        gc.collect()
        report = ClosedLoopDriver(deployment).run(plans)
        assert report.requests == 64 * 6 and report.hit_ratio == 1.0
        return deployment, report

    _assert_cycle_free(replay)


def _hardened_replay(schedule, rounds, check):
    """A replay of 8 clients mixing PUTs and GETs on the demo deployment."""

    def replay():
        deployment = InfiniCacheDeployment(demo_config(2020))
        engine = ChaosEngine(deployment, schedule)
        engine.install()
        driver = ClosedLoopDriver(deployment, backing_store=ObjectStore(), warm_pool=True)
        rng = random.Random(2020)
        plans = [
            [
                op
                for round_index in range(rounds)
                for op in (
                    ClientOp(
                        "PUT" if rng.random() < 0.3 else "GET",
                        key=f"obj-{(client + round_index) % 16:03d}",
                        size=2_000_000,
                    ),
                    ClientOp("SLEEP", delay_s=3.0),
                )
            ]
            for client in range(8)
        ]
        gc.collect()
        report = driver.run(plans)
        check(report, deployment.counters())
        return deployment, engine, report

    return replay


def test_hardened_path_under_the_demo_storm_makes_no_cycles():
    def check(report, _counters):
        # The storm really hit: some reads were lost chunks or store fallbacks.
        assert report.misses + report.degraded_hits + report.recoveries > 0

    _assert_cycle_free(_hardened_replay(demo_schedule(), 70, check))


def test_interrupted_chunk_races_make_no_cycles():
    """Every link blackholed for 12 s: deadlines fire and hedges start, and
    pairs that run out their hedge deadline are interrupted into retries, so
    exceptions are thrown into generators many times over."""

    def check(_report, counters):
        assert counters["proxy.chunk_hedges"] > 0
        # No invocation faults and no breaker trips in this schedule: every
        # retry follows a pair whose hedge deadline expired.
        assert counters["proxy.chunk_retries"] > 0
        assert "proxy.chunk_faults" not in counters

    schedule = FaultSchedule((LinkBlackhole(at_s=4.0, duration_s=12.0, host_fraction=1.0),))
    _assert_cycle_free(_hardened_replay(schedule, 8, check))


def test_open_loop_replay_makes_no_cycles():
    def replay():
        scale = production.ProductionScale.quick()
        trace = production.build_trace(scale)
        deployment = production.build_deployment(scale, backup_enabled=True, seed_offset=1)
        gc.collect()
        report = OpenLoopDriver(deployment).run(trace)
        assert report.requests == len(trace.records)
        return deployment, report

    _assert_cycle_free(replay)

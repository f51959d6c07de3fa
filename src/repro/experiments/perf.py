"""Simulator performance harness: events/sec as a first-class metric.

The ROADMAP's north star is a simulator that handles fleet-scale workloads
— thousands of concurrent closed-loop clients — which makes the *simulator's
own* throughput (dispatched events per wall-clock second) a quantity worth
measuring and guarding, exactly as caching simulators such as Icarus
benchmark their event cores.  This module is that measurement layer:

* **micro benchmarks** exercise one subsystem in isolation — the event
  queue's push/cancel/pop cycle (tombstone compaction), the flow
  network's join/leave arbitration churn, the Reed-Solomon codec's
  encode / decode / rebuild throughput on real bytes, the FaaS
  platform's invoke → complete → bill cycle with its exact ledger,
  Figure 8's fleet warm-up rounds with theirs, and
  deadline-bounded chunk attempts under a link blackhole with exact counts
  of what they spawn and schedule;
* **macro benchmarks** run the closed-loop replay driver end to end at
  fleet sizes (8 → 4096 clients) and report wall-clock, events/sec, and
  the peak number of simultaneously active flows; one more rung replays
  one trace hour of the production ``infinicache.all`` run open-loop, at
  the paper's pool geometry (the quick geometry under ``--quick``);
* the **arbiter comparison** runs the same closed-loop scenario under the
  incremental bottleneck-group arbiter and the global-recompute
  :class:`~repro.network.flows.ReferenceFlowNetwork`, asserting both
  produce byte-identical replay fingerprints and reporting the speedup.

``python -m repro perf`` runs the suite and writes ``BENCH_perf.json``;
CI runs it with ``--quick`` and fails the build on fingerprint drift
(never on timing noise).  See ``docs/performance.md`` for how to read the
output.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field, replace

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.erasure.codec import ErasureCodec
from repro.experiments import production
from repro.experiments.production import ProductionScale
from repro.faas.platform import FaaSPlatform
from repro.faas.reclamation import PoissonReclamationPolicy
from repro.network.flows import resolve_arbiter
from repro.network.topology import NetworkFabric
from repro.sim.loop import EventLoop
from repro.utils.rng import SeededRNG
from repro.utils.units import MB, MIB, MINUTE
from repro.workload.replay import ClosedLoopDriver, OpenLoopDriver, seed_fleet

#: The fleet sizes the full suite sweeps (the quick CI variant trims this).
DEFAULT_CLIENT_COUNTS = (8, 64, 256, 1024, 4096)

#: Fleet size used for the incremental-vs-reference arbiter comparison.
DEFAULT_COMPARE_CLIENTS = 256

#: The seed of every seeded run in the suite: the fleet, the warm-up
#: sweeps' reclamation draws and the hardened deployment.
SEED = 2020


@dataclass
class PerfSample:
    """One benchmark measurement: wall-clock, event count, and context."""

    name: str
    wall_s: float
    events: int
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def events_per_s(self) -> float:
        """Dispatched events per wall-clock second (the headline metric)."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation for ``BENCH_perf.json``."""
        payload: dict[str, object] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "events": self.events,
            "events_per_s": self.events_per_s,
        }
        payload.update(self.extra)
        return payload


# ---------------------------------------------------------------------- micro
#: ``micro_event_queue`` cancels every ``EVENT_QUEUE_CANCEL_EVERY``-th timer.
EVENT_QUEUE_CANCEL_EVERY = 2


def micro_event_queue(events: int = 50_000) -> PerfSample:
    """Push ``events`` timers, cancel every ``EVENT_QUEUE_CANCEL_EVERY``-th, drain the rest.

    Exercises the O(1) live counter and the tombstone compaction path: the
    cancelled half must neither linger in the heap nor slow the pops.
    """
    loop = EventLoop()
    start = time.perf_counter()
    scheduled = [
        loop.schedule((index % 97) * 0.001 + 0.001, lambda: None, label="perf.noop")
        for index in range(events)
    ]
    cancelled = range(0, events, EVENT_QUEUE_CANCEL_EVERY)
    for index in cancelled:
        scheduled[index].cancel()
    assert len(loop.queue) == events - len(cancelled)
    loop.run_all(max_events=events + 1)
    wall = time.perf_counter() - start
    return PerfSample(
        name="micro.event_queue",
        wall_s=wall,
        events=loop.events_processed,
        extra={"scheduled": events, "cancelled": len(cancelled)},
    )


def micro_flow_churn(
    flows: int = 2_000,
    hosts: int = 32,
    proxies: int = 8,
    arbiter: str = "incremental",
    tag: str = "",
) -> PerfSample:
    """Raw arbitration churn: staggered transfers joining and leaving.

    Drives the flow network directly (no cache on top): ``flows`` transfers
    start at staggered times across ``hosts`` NICs and ``proxies`` uplinks,
    so every start and finish is a rate transition on a populated network.
    ``tag`` distinguishes non-default geometries in the sample name (the
    suite uses it for the dense large-group variant).
    """
    loop = EventLoop()
    fabric = NetworkFabric(proxy_uplink_bps=2_000 * MB)
    network = resolve_arbiter(arbiter)(loop, fabric)

    start = time.perf_counter()
    for index in range(flows):
        loop.schedule_at(
            index * 0.002,
            lambda i=index: network.transfer(
                size_bytes=4 * MB,
                function_bandwidth_bps=80 * MB,
                host_id=f"h{i % hosts}",
                host_capacity_bps=200 * MB,
                proxy_id=f"p{i % proxies}",
                label=f"churn-{i}",
            ),
            label="perf.flow_start",
        )
    loop.run_all()
    wall = time.perf_counter() - start
    assert network.completed_flows == flows
    suffix = f"{arbiter},{tag}" if tag else arbiter
    return PerfSample(
        name=f"micro.flow_churn[{suffix}]",
        wall_s=wall,
        events=loop.events_processed,
        extra={
            "arbiter": arbiter,
            "flows": flows,
            "hosts": hosts,
            "proxies": proxies,
            "peak_active_flows": network.max_concurrent(),
            "flows_swept": network.flows_swept,
            "flows_reaimed": network.flows_reaimed,
        },
    )


#: ``micro_erasure`` geometry: the paper's default code on the object size
#: ``bench/``'s ``bytes_rw`` workload and erasure micros use.
ERASURE_MICRO_CODE = (10, 2)
ERASURE_MICRO_OBJECT_BYTES = 4 * MB
ERASURE_MICRO_CALLS = 4


def micro_erasure() -> PerfSample:
    """Codec throughput on real bytes: encode, decode, rebuild (MB/s each).

    One RS(10+2) stripe of a seeded 4 MB object; ``decode`` and ``rebuild``
    run with the first two *data* chunks missing, so both do the full
    two-shard recovery.  Each operation's result is compared with the input
    (outside the timed loop), so a kernel that got faster by getting wrong
    fails here, not later.
    """
    codec = ErasureCodec(*ERASURE_MICRO_CODE)
    payload = random.Random(0).randbytes(ERASURE_MICRO_OBJECT_BYTES)
    chunks = codec.encode("perf.erasure", payload)  # also warms the matrices
    survivors = chunks[2:]
    codec.decode(survivors)
    megabytes = ERASURE_MICRO_CALLS * ERASURE_MICRO_OBJECT_BYTES / MB
    rates: dict[str, object] = {}
    start = time.perf_counter()
    for name, call, expected in (
        ("encode", lambda: codec.encode("perf.erasure", payload), chunks),
        ("decode", lambda: codec.decode(survivors), payload),
        ("rebuild", lambda: codec.rebuild_missing(survivors), chunks),
    ):
        phase_start = time.perf_counter()
        for _ in range(ERASURE_MICRO_CALLS):
            result = call()
        rates[f"{name}_MBps"] = megabytes / (time.perf_counter() - phase_start)
        if result != expected:
            raise RuntimeError(f"erasure {name} returned different bytes")
    wall = time.perf_counter() - start
    return PerfSample(
        name="micro.erasure",
        wall_s=wall,
        events=3 * ERASURE_MICRO_CALLS,
        extra={
            "code": "RS({}+{})".format(*ERASURE_MICRO_CODE),
            "object_bytes": ERASURE_MICRO_OBJECT_BYTES,
            **rates,
        },
    )


#: ``micro_faas_cycle``: invocations, and every how many one is reclaimed.
FAAS_CYCLES = 100_000
FAAS_RECLAIM_EVERY = 1_000


def micro_faas_cycle() -> PerfSample:
    """The invoke -> complete -> bill cycle on one platform, ledger included.

    ``FAAS_CYCLES`` invocations of one 1536 MiB function, rotating through
    four durations, the ``serving`` / ``warmup`` categories and unattributed,
    one-tenant and three-tenant charges.  Every ``FAAS_RECLAIM_EVERY``-th
    instance is reclaimed *mid-flight* — it is still billed, and the next
    invocation cold-starts.  Reports cycles/s (noise) beside the ledger
    (exact: floats are carried as ``repr`` so JSON cannot round them).  The
    suite runs it in quick and in full mode alike, because CI's quick run is
    gated against the full committed payload.
    """
    platform = FaaSPlatform(EventLoop())
    platform.register_function("perf-faas", 1536 * MIB)
    durations = (0.001, 0.05, 0.123, 0.2)
    attributions: tuple[dict[str, float] | None, ...] = (
        None,
        {"tenant-a": 0.4},
        {"tenant-a": 0.25, "tenant-b": 1.5, "tenant-c": 0.0},
    )
    gc.collect()
    start = time.perf_counter()
    for index in range(FAAS_CYCLES):
        instance = platform.invoke("perf-faas").instance
        if index % FAAS_RECLAIM_EVERY == FAAS_RECLAIM_EVERY - 1:
            platform.reclaim_instance(instance)
        platform.complete_invocation(
            instance,
            durations[index % len(durations)],
            "warmup" if index % 5 == 0 else "serving",
            attributions[index % len(attributions)],
        )
    wall = time.perf_counter() - start
    billing, counters = platform.billing, platform.metrics.counters()
    return PerfSample(
        name="micro.faas_cycle",
        wall_s=wall,
        events=FAAS_CYCLES,
        extra={
            "cycles": FAAS_CYCLES,
            "reclaims": int(counters.get("faas.reclaims", 0.0)),
            "cold_starts": int(counters["faas.cold_starts"]),
            "total_invocations": billing.total_invocations,
            "total_billed_seconds": repr(billing.total_billed_seconds),
            "total_cost": repr(billing.total_cost),
        },
    )


#: ``micro_fleet_warm_up``: the fleet, and the one-minute rounds it is kept warm.
WARM_UP_FUNCTIONS = 150
WARM_UP_ROUNDS = 240


def micro_fleet_warm_up() -> PerfSample:
    """Figure 8's keep-alive loop: one ``warm_up`` round per virtual minute.

    ``WARM_UP_FUNCTIONS`` 256 MiB functions are all re-invoked (1 ms,
    ``warmup``) once a minute for ``WARM_UP_ROUNDS`` minutes, while the
    platform's one-minute sweeps reclaim instances under a Poisson policy
    (mean 0.6 per sweep, as Figure 8's 1-minute days); a reclaimed function
    cold-starts at the next round.  Reports rounds/s (noise) beside the exact ledger:
    invocations, cold starts, reclaims, and the billed seconds and cost as
    ``repr`` strings.
    """
    loop = EventLoop()
    platform = FaaSPlatform(
        loop, reclamation_policy=PoissonReclamationPolicy(SeededRNG(SEED), 0.6)
    )
    for index in range(WARM_UP_FUNCTIONS):
        platform.register_function(f"probe-{index:04d}", 256 * MIB)
    names = platform.registered_functions()
    platform.start_reclamation_sweeps()
    gc.collect()
    start = time.perf_counter()
    for round_index in range(WARM_UP_ROUNDS):
        platform.warm_up(names)
        loop.run_until((round_index + 1) * MINUTE)
    wall = time.perf_counter() - start
    billing, counters = platform.billing, platform.metrics.counters()
    return PerfSample(
        name="micro.fleet_warm_up",
        wall_s=wall,
        events=WARM_UP_ROUNDS,
        extra={
            "functions": WARM_UP_FUNCTIONS,
            "rounds": WARM_UP_ROUNDS,
            "invocations": int(counters["faas.invocations"]),
            "cold_starts": int(counters["faas.cold_starts"]),
            "reclaims": int(counters.get("faas.reclaims", 0.0)),
            "total_billed_seconds": repr(billing.total_billed_seconds),
            "total_cost": repr(billing.total_cost),
        },
    )


#: ``micro_hardened_chunk``: closed-loop readers, and the GETs each one issues.
HARDENED_CLIENTS = 16
HARDENED_ROUNDS = 40

#: Event labels of the attempt deadline and of the hedge pair's deadline.
_DEADLINE_LABELS = ("chunk.deadline", "chunk.hedge_deadline")


def micro_hardened_chunk() -> PerfSample:
    """Deadline-bounded chunk attempts under a link blackhole, counted exactly.

    The demo hardened deployment (three attempts per chunk, a 1 s chunk
    deadline, breakers) serves ``HARDENED_CLIENTS`` closed-loop readers
    ``HARDENED_ROUNDS`` GETs each, one second apart, while every host link
    is blackholed from t = 4 s to 10 s and from 20 s to 26 s: chunks in
    flight then miss their deadline, hedge, and run out the hedge deadline
    into a retry.  The replay runs twice, timed (attempts/s: noise) and
    profiled for the exact counts —
    deadline-bounded attempts (each arms one ``chunk.deadline`` event),
    processes spawned, deadline events scheduled and cancelled (attempt and
    hedge deadlines together) and hedges.
    """
    # Imported here: the chaos engine is this micro's alone.
    from repro.faults import ChaosEngine, FaultSchedule, LinkBlackhole
    from repro.faults.scenario import demo_config, demo_plans

    def replay(profiled: bool):
        deployment = InfiniCacheDeployment(demo_config(SEED))
        ChaosEngine(deployment, FaultSchedule((
            LinkBlackhole(at_s=4.0, duration_s=6.0, host_fraction=1.0),
            LinkBlackhole(at_s=20.0, duration_s=6.0, host_fraction=1.0),
        ))).install()
        driver = ClosedLoopDriver(deployment, warm_pool=True)
        plans = demo_plans(clients=HARDENED_CLIENTS, rounds=HARDENED_ROUNDS, think_s=1.0)
        gc.collect()
        profile = deployment.simulator.enable_profiling() if profiled else None
        start = time.perf_counter()
        report = driver.run(plans)
        wall = time.perf_counter() - start
        deployment.simulator.disable_profiling()
        return wall, report, deployment.counters(), profile

    wall, report, _counters, _profile = replay(profiled=False)
    _wall, _report, counters, profile = replay(profiled=True)
    attempts = profile.scheduled.get(_DEADLINE_LABELS[0], 0)
    return PerfSample(
        name="micro.hardened_chunk",
        wall_s=wall,
        events=attempts,
        extra={
            "requests": report.requests,
            "attempts": attempts,
            "processes_spawned": profile.processes_spawned,
            "deadlines_scheduled": sum(profile.scheduled.get(label, 0) for label in _DEADLINE_LABELS),
            "deadlines_cancelled": sum(profile.cancelled.get(label, 0) for label in _DEADLINE_LABELS),
            "hedges": int(counters.get("proxy.chunk_hedges", 0)),
            "retries": int(counters.get("proxy.chunk_retries", 0)),
        },
    )


# ---------------------------------------------------------------------- macro
#: The closed-loop fleet: each client re-reads its own objects.
FLEET_REQUESTS_PER_CLIENT = 6
FLEET_OBJECTS_PER_CLIENT = 2
FLEET_OBJECT_BYTES = 2 * MB


def fleet(
    clients: int, arbiter: str
) -> tuple[InfiniCacheDeployment, list[list[tuple[str, int]]]]:
    """A seeded ``arbiter`` deployment for ``clients`` closed-loop clients,
    and their plans.

    Proxies scale with the fleet (as the cluster autoscaler would provision
    them) so the scenario stays in the regime the paper evaluates — client
    count grows, per-proxy load stays bounded.  1536 MiB functions get a VM
    host to themselves (paper §2.2), so NIC contention is per-node and the
    proxy uplinks stay unsaturated: each flow transition touches a handful
    of flows, not the fleet.  Client ``i`` owns ``FLEET_OBJECTS_PER_CLIENT``
    objects ``perf/{i}/obj-{n}`` of ``FLEET_OBJECT_BYTES``, seeded before
    the clock starts, and its plan is ``FLEET_REQUESTS_PER_CLIENT`` GETs
    over them (``bench/workloads.py`` mirrors this geometry and these keys).
    """
    deployment = InfiniCacheDeployment(InfiniCacheConfig(
        num_proxies=max(2, min(256, clients // 4)),
        lambdas_per_proxy=8,
        lambda_memory_bytes=1536 * MIB,
        data_shards=4,
        parity_shards=2,
        backup_enabled=False,
        straggler=StragglerModel(probability=0.05),
        flow_arbiter=arbiter,
        seed=SEED,
    ))
    plans = seed_fleet(
        deployment, "perf", clients,
        FLEET_OBJECTS_PER_CLIENT, FLEET_OBJECT_BYTES, FLEET_REQUESTS_PER_CLIENT,
    )
    return deployment, plans


def macro_closed_loop(clients: int, arbiter: str = "incremental") -> PerfSample:
    """One closed-loop replay of :func:`fleet` under ``arbiter``, instrumented.

    Returns wall-clock, total dispatched events, events/sec, the peak
    number of simultaneously active flows, the flows the arbiter swept and
    re-aimed, and the replay fingerprint (which the arbiter comparison
    checks for drift).  Garbage left by earlier scenarios is collected
    before the clock starts so successive measurements do not bleed into
    each other.
    """
    deployment, plans = fleet(clients, arbiter)
    events_before = deployment.simulator.events_processed
    gc.collect()
    start = time.perf_counter()
    report = ClosedLoopDriver(deployment).run(plans)
    wall = time.perf_counter() - start
    events = deployment.simulator.events_processed - events_before
    return PerfSample(
        name=f"macro.closed_loop[{clients}]",
        wall_s=wall,
        events=events,
        extra={
            "arbiter": arbiter,
            "clients": clients,
            "requests": report.requests,
            "hit_ratio": report.hit_ratio,
            "peak_active_flows": report.peak_active_flows,
            # The arbiter's work as counts, exact per seed unlike wall_s
            # (seeding is synchronous and starts no flow).
            "flows_swept": deployment.flows.flows_swept,
            "flows_reaimed": deployment.flows.flows_reaimed,
            "flow_intervals": len(report.flow_intervals),
            "sim_duration_s": report.duration_s,
            "fingerprint": report.fingerprint(),
        },
    )


#: The production replay the open-loop rung runs, for one trace hour.
OPEN_LOOP_REPLAY = "infinicache.all"


def open_loop_scales(quick: bool) -> tuple[ProductionScale, ...]:
    """Production scales the open-loop rung runs at, one trace hour each.

    The full suite runs the quick geometry too, so the committed payload
    holds the rung ``--quick`` is gated against.
    """
    quick_scale = ProductionScale.quick()
    if quick:
        return (quick_scale,)
    return (quick_scale, replace(ProductionScale.paper(), duration_hours=1.0))


def open_loop_geometry(scale: ProductionScale) -> str:
    """The pool, the code and the trace length of the open-loop rung at
    ``scale``: the key :func:`check_regression` matches rungs on."""
    return (
        f"{scale.lambdas_per_proxy}x{production.LAMBDA_MEMORY_MIB}MiB "
        f"RS({production.DATA_SHARDS}+{production.PARITY_SHARDS}) "
        f"{scale.duration_hours:g}h"
    )


def macro_open_loop_production(scale: ProductionScale) -> PerfSample:
    """The ``infinicache.all`` production replay at ``scale``, instrumented.

    Open-loop arrivals from the Dallas-style trace, one proxy with
    ``scale.lambdas_per_proxy`` functions, warm-up and backup on.  Trace
    generation and deployment are set up before the clock starts.  Returns
    wall-clock, events, the flow intervals the report retains, the hit
    ratio and the replay fingerprint; ``geometry`` names the pool, the
    code and the trace length the exact counts belong to.
    """
    trace = production.build_trace(scale)
    backup, offset = production.INFINICACHE_SETTINGS[OPEN_LOOP_REPLAY]
    deployment = production.build_deployment(scale, backup_enabled=backup, seed_offset=offset)
    events_before = deployment.simulator.events_processed
    gc.collect()
    start = time.perf_counter()
    report = OpenLoopDriver(deployment).run(trace)
    wall = time.perf_counter() - start
    return PerfSample(
        name="macro.open_loop_production",
        wall_s=wall,
        events=deployment.simulator.events_processed - events_before,
        extra={
            "geometry": open_loop_geometry(scale),
            "records": len(trace.records),
            "hit_ratio": report.hit_ratio,
            "flow_intervals": len(report.flow_intervals),
            "fingerprint": report.fingerprint(),
        },
    )


def profile_closed_loop(clients: int) -> dict[str, object]:
    """One :func:`fleet` replay with event-loop profiling on: where time goes.

    Produces the ``profile`` section of ``BENCH_perf.json``: wall-clock
    split into the loop's own phases — heap push/pop, coroutine steps,
    flow-arbiter transitions, collector passes, total callback dispatch —
    plus per-label scheduled/dispatched/cancelled counts and the heaviest
    callback labels by self-time.  The phases are *attributions*, not a
    disjoint partition: coroutine steps and arbiter transitions mostly run
    inside dispatched callbacks (so they largely nest within
    ``dispatch_s``), but the first step of a freshly spawned process runs
    at spawn time, outside any callback.  ``other_s`` is the wall-clock
    not spent in callback dispatch or heap operations (driver and loop
    bookkeeping, including those spawn-time steps).
    """
    deployment, plans = fleet(clients, "incremental")
    gc.collect()
    deployment.simulator.enable_profiling()
    start = time.perf_counter()
    ClosedLoopDriver(deployment).run(plans)
    wall = time.perf_counter() - start
    profile = deployment.simulator.disable_profiling()
    snapshot = profile.snapshot()
    phases = dict(snapshot["phases"])
    # coroutine_steps_s and arbiter_s nest inside dispatch_s, so only the
    # top-level meters count toward "accounted" wall-clock.
    phases["other_s"] = max(wall - phases["dispatch_s"] - phases["heap_ops_s"], 0.0)
    return {
        "schema": "repro.perf.profile/1",
        "clients": clients,
        "wall_s": wall,
        "events": profile.events_dispatched,
        "phases": phases,
        "counts": snapshot["counts"],
        "top_labels": profile.top_labels(limit=10),
    }


#: Keys the ``profile`` section's ``phases`` mapping must carry.
PROFILE_PHASE_KEYS = (
    "dispatch_s", "heap_ops_s", "coroutine_steps_s", "arbiter_s", "gc_s", "other_s",
)

#: Keys the ``profile`` section's ``counts`` mapping must carry.
PROFILE_COUNT_KEYS = (
    "scheduled", "dispatched", "cancelled",
    "coroutine_steps", "arbiter_transitions",
    "flows_swept", "flows_reaimed",
    "gc_collections", "gc_collections_in_dispatch",
)


def validate_profile(section: object) -> list[str]:
    """Schema-validate a ``profile`` section; returns human-readable errors.

    The ``--quick`` CI step runs this over the freshly written
    ``BENCH_perf.json`` so a refactor of the loop instrumentation cannot
    silently drop a phase or count from the payload.
    """
    errors: list[str] = []
    if not isinstance(section, dict):
        return [f"profile section must be an object, got {type(section).__name__}"]
    if section.get("schema") != "repro.perf.profile/1":
        errors.append(f"unexpected profile schema {section.get('schema')!r}")
    for key in ("clients", "events"):
        if not isinstance(section.get(key), int) or section.get(key, -1) < 0:
            errors.append(f"profile.{key} must be a non-negative integer")
    if not isinstance(section.get("wall_s"), (int, float)) or section.get("wall_s", -1) < 0:
        errors.append("profile.wall_s must be a non-negative number")
    phases = section.get("phases")
    if not isinstance(phases, dict):
        errors.append("profile.phases must be an object")
    else:
        for key in PROFILE_PHASE_KEYS:
            value = phases.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"profile.phases.{key} must be a non-negative number")
    counts = section.get("counts")
    if not isinstance(counts, dict):
        errors.append("profile.counts must be an object")
    else:
        for key in PROFILE_COUNT_KEYS:
            value = counts.get(key)
            if not isinstance(value, int) or value < 0:
                errors.append(f"profile.counts.{key} must be a non-negative integer")
    top_labels = section.get("top_labels")
    if not isinstance(top_labels, list):
        errors.append("profile.top_labels must be a list")
    else:
        for entry in top_labels:
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("label"), str)
                or not isinstance(entry.get("self_s"), (int, float))
                or not isinstance(entry.get("dispatched"), int)
            ):
                errors.append(f"malformed top_labels entry: {entry!r}")
                break
    return errors


#: Per sample name, the fields that repeat exactly per seed (ledgers, counts
#: and digests, never rates): :func:`check_regression` gates them on
#: equality and :func:`format_report` prints them.  The billing ledgers
#: carry their floats as ``repr`` strings, so JSON cannot round them.
EXACT_KEYS = {
    "micro.faas_cycle": (
        "cycles", "reclaims", "cold_starts",
        "total_invocations", "total_billed_seconds", "total_cost",
    ),
    "micro.fleet_warm_up": (
        "rounds", "invocations", "cold_starts", "reclaims",
        "total_billed_seconds", "total_cost",
    ),
    "micro.hardened_chunk": (
        "attempts", "processes_spawned", "deadlines_scheduled", "deadlines_cancelled", "hedges",
    ),
    "macro.open_loop_production": ("events", "flow_intervals", "fingerprint"),
}


def validate_faas_cycle(payload: dict[str, object]) -> list[str]:
    """Schema-validate the ``micro.faas_cycle`` sample; returns readable errors.

    Runs beside :func:`validate_profile`: the ledger fields CI gates on must
    be present, the counts integers and the two floats ``repr`` strings.
    """
    sample = next(
        (sample for sample in payload.get("micro", ())
         if isinstance(sample, dict) and sample.get("name") == "micro.faas_cycle"),
        None,
    )
    if sample is None:
        return ["payload has no micro.faas_cycle sample"]
    errors: list[str] = []
    for key in EXACT_KEYS["micro.faas_cycle"]:
        value = sample.get(key)
        if key in ("total_billed_seconds", "total_cost"):
            try:
                valid = isinstance(value, str) and repr(float(value)) == value
            except ValueError:
                valid = False
            if not valid:
                errors.append(f"micro.faas_cycle.{key} must be the repr of a float")
        elif not isinstance(value, int) or value < 0:
            errors.append(f"micro.faas_cycle.{key} must be a non-negative integer")
    return errors


def compare_arbiters(clients: int = DEFAULT_COMPARE_CLIENTS) -> dict[str, object]:
    """Same scenario, both arbiters: speedup plus a fingerprint-drift check.

    The reference arbiter re-examines *every* active flow on each
    transition; the incremental arbiter touches only the two affected
    bottleneck groups.  Both must replay the workload byte-for-byte
    identically — ``fingerprints_identical`` is what CI gates on, because
    it is immune to timing noise.
    """
    incremental = macro_closed_loop(clients, arbiter="incremental")
    reference = macro_closed_loop(clients, arbiter="reference")
    return {
        "clients": clients,
        "incremental_wall_s": incremental.wall_s,
        "reference_wall_s": reference.wall_s,
        "speedup": reference.wall_s / incremental.wall_s if incremental.wall_s > 0 else 0.0,
        "incremental_events_per_s": incremental.events_per_s,
        "reference_events_per_s": reference.events_per_s,
        "fingerprint": incremental.extra["fingerprint"],
        "fingerprints_identical": (
            incremental.extra["fingerprint"] == reference.extra["fingerprint"]
        ),
    }


# ---------------------------------------------------------------------- suite
#: Quick-mode rungs: 256 stays in so the CI throughput guard has a committed
#: ``events_per_s`` to compare against at a meaningful fleet size.
QUICK_CLIENT_COUNTS = (8, 64, 256)

#: The throughput floor: a macro rung of at least ``REGRESSION_MIN_CLIENTS``
#: fails when its ``events_per_s`` drops more than ``REGRESSION_THRESHOLD``
#: below the committed rate.  Smaller fleets finish in well under a second
#: and swing ±30 % run to run on interpreter warm-up alone.
REGRESSION_THRESHOLD = 0.30
REGRESSION_MIN_CLIENTS = 256


def check_regression(payload: dict[str, object], baseline: dict[str, object]) -> list[str]:
    """Compare a fresh suite payload against a committed baseline.

    Returns one error string per macro rung present in *both* payloads whose
    fresh ``events_per_s`` fell more than :data:`REGRESSION_THRESHOLD` below
    the committed value.  Rungs only one side ran (quick mode trims the
    sweep) are skipped, as are rungs below :data:`REGRESSION_MIN_CLIENTS`.
    Micro timings and wall-clocks are too noisy to gate on and are ignored.

    ``flows_swept`` and ``flows_reaimed`` are gated on every shared rung,
    with no tolerance: the counts are exact per seed, so a rung that sweeps
    or re-aims more flows than the committed payload says is a code change,
    never noise.  Every sample named in :data:`EXACT_KEYS` is gated the same
    way, on equality, against the committed sample of the same name and
    ``geometry``: a difference is a billing-arithmetic change, a change in
    what a deadline-bounded chunk attempt spawns and schedules, or a changed
    replay.  A micro sample has no geometry, so a payload that lost one
    fails on every field; an open-loop rung the fresh run did not reach
    (``--quick`` runs the quick geometry only) gates nothing.  The
    profile's ``gc_collections_in_dispatch`` is gated against zero:
    ``EventLoop.run*`` pauses the cyclic collector, so one pass inside it
    means the pause broke.
    """
    errors: list[str] = []
    in_dispatch = (payload.get("profile") or {}).get("counts", {}).get(
        "gc_collections_in_dispatch", 0
    )
    if in_dispatch:
        errors.append(
            f"profile: {in_dispatch} cyclic-collector passes started inside "
            "EventLoop.run*, which pauses the collector (exact: must be 0)"
        )

    def exact_samples(source: dict[str, object]) -> dict[tuple[object, object], dict]:
        return {
            (sample.get("name"), sample.get("geometry")): sample
            for sample in (*source.get("micro", ()), *source.get("open_loop", ()))
            if isinstance(sample, dict) and sample.get("name") in EXACT_KEYS
        }

    fresh_samples = exact_samples(payload)
    for (name, geometry), reference in exact_samples(baseline).items():
        sample = fresh_samples.get((name, geometry))
        if sample is None and geometry is not None:
            continue
        sample = sample or {}
        label = f"{name}[{geometry}]" if geometry is not None else name
        for key in EXACT_KEYS[name]:
            if sample.get(key) != reference.get(key):
                errors.append(
                    f"{label} changed: {key} is {sample.get(key)!r}, the committed "
                    f"payload has {reference.get(key)!r} (exact per seed)"
                )
    committed = {
        sample["clients"]: sample
        for sample in baseline.get("macro", ())
        if isinstance(sample, dict) and "clients" in sample
    }
    for sample in payload.get("macro", ()):
        reference = committed.get(sample.get("clients"))
        if reference is None:
            continue
        for counter, verb in (("flows_swept", "swept"), ("flows_reaimed", "re-aimed")):
            # A baseline written before the counter existed gates nothing.
            committed_count = reference.get(counter)
            fresh_count = sample.get(counter, 0)
            if committed_count is not None and fresh_count > committed_count:
                errors.append(
                    f"macro.closed_loop[{sample['clients']}] arbiter work regressed: "
                    f"{fresh_count} flows {verb}, the committed payload has "
                    f"{committed_count} (the count is exact per seed)"
                )
        if (sample.get("clients") or 0) < REGRESSION_MIN_CLIENTS:
            continue
        committed_rate = reference.get("events_per_s", 0.0)
        fresh_rate = sample.get("events_per_s", 0.0)
        if committed_rate > 0 and fresh_rate < (1.0 - REGRESSION_THRESHOLD) * committed_rate:
            errors.append(
                f"macro.closed_loop[{sample['clients']}] throughput regressed: "
                f"{fresh_rate:.0f} events/s is more than {REGRESSION_THRESHOLD:.0%} "
                f"below the committed {committed_rate:.0f} events/s"
            )
    return errors


def run_suite(
    client_counts: tuple[int, ...] | None = None, quick: bool = False
) -> dict[str, object]:
    """Run the full perf suite; returns the ``BENCH_perf.json`` payload.

    Args:
        client_counts: fleet sizes for the closed-loop macro sweep; when
            omitted, ``quick`` picks between the default and the trimmed
            CI sweep.  An explicit value is always honored as given.
        quick: CI smoke mode — smaller micros, the trimmed sweep by
            default, and the arbiter comparison at the largest swept fleet
            instead of :data:`DEFAULT_COMPARE_CLIENTS`, keeping the step
            seconds-fast.
    """
    if client_counts is None:
        client_counts = QUICK_CLIENT_COUNTS if quick else DEFAULT_CLIENT_COUNTS
    micro = [
        micro_event_queue(events=10_000 if quick else 50_000),
        micro_flow_churn(flows=500 if quick else 2_000, arbiter="incremental"),
        micro_flow_churn(flows=500 if quick else 2_000, arbiter="reference"),
        # The default churn geometry (32 hosts / 8 proxies) keeps bottleneck
        # groups small, as every workload does; the dense variant puts the
        # whole population behind 2 NICs and 1 uplink — the incremental
        # arbiter's O(group size) worst case, kept measured.
        micro_flow_churn(
            flows=300 if quick else 1_000, hosts=2, proxies=1,
            arbiter="incremental", tag="dense",
        ),
        micro_erasure(),
        micro_faas_cycle(),
        micro_fleet_warm_up(),
        micro_hardened_chunk(),
    ]
    # The comparison runs before the big sweeps; with the collector paused
    # inside ``run*`` its timing no longer depends on that (measured either
    # side of the 1024 and 4096 rungs, docs/performance.md).  The micro pass
    # above doubles as cache warm-up (hash-ring points, shared RS matrices).
    comparison = compare_arbiters(max(client_counts) if quick else DEFAULT_COMPARE_CLIENTS)
    macro = [macro_closed_loop(clients) for clients in client_counts]
    open_loop = [macro_open_loop_production(scale) for scale in open_loop_scales(quick)]
    return {
        "schema": "repro.perf/1",
        "quick": quick,
        "unix_time": time.time(),
        "micro": [sample.as_dict() for sample in micro],
        "macro": [sample.as_dict() for sample in macro],
        "open_loop": [sample.as_dict() for sample in open_loop],
        "profile": profile_closed_loop(max(client_counts)),
        "arbiter_comparison": comparison,
    }


def format_report(payload: dict[str, object]) -> str:
    """Human-readable rendering of a ``run_suite`` payload."""
    from repro.utils.report import format_table

    micro_rows = [
        [sample["name"], sample["wall_s"], sample["events"], sample["events_per_s"]]
        for sample in payload["micro"]
    ]
    macro_rows = [
        [
            sample["clients"],
            sample["wall_s"],
            sample["events"],
            sample["events_per_s"],
            sample["peak_active_flows"],
            sample["flows_swept"],
            sample["sim_duration_s"],
        ]
        for sample in payload["macro"]
    ]
    lines = [
        format_table(
            ["benchmark", "wall_s", "events", "events/s"],
            micro_rows,
            title="Micro benchmarks (event queue, flow arbitration, codec calls, FaaS cycles)",
        ),
    ]
    for sample in payload["micro"]:
        if "encode_MBps" in sample:
            lines.append(
                f"{sample['name']} {sample['code']}, "
                f"{sample['object_bytes'] / MB:.0f} MB object: "
                f"encode {sample['encode_MBps']:.0f} MB/s, "
                f"decode (2 data chunks lost) {sample['decode_MBps']:.0f} MB/s, "
                f"rebuild {sample['rebuild_MBps']:.0f} MB/s"
            )
        if sample["name"] in EXACT_KEYS:
            lines.append(f"{sample['name']}, exact per seed: " + ", ".join(
                f"{sample[key]} {key.replace('_', ' ')}" for key in EXACT_KEYS[sample["name"]]
            ))
    lines += [
        "",
        format_table(
            ["clients", "wall_s", "events", "events/s", "peak_flows", "swept", "sim_s"],
            macro_rows,
            title="Closed-loop macro sweep (incremental arbiter)",
        ),
    ]
    open_loop = payload.get("open_loop")
    if open_loop:
        lines.append("")
        lines.append(
            format_table(
                ["geometry", "wall_s", "events", "events/s", "intervals", "hit_ratio"],
                [
                    [sample["geometry"], sample["wall_s"], sample["events"],
                     sample["events_per_s"], sample["flow_intervals"], sample["hit_ratio"]]
                    for sample in open_loop
                ],
                title=f"Open-loop production replay ({OPEN_LOOP_REPLAY}, one trace hour)",
            )
        )
    profile = payload.get("profile")
    if profile:
        phases = profile["phases"]
        phase_rows = [
            [key.removesuffix("_s"), phases[key], phases[key] / profile["wall_s"]
             if profile["wall_s"] > 0 else 0.0]
            for key in PROFILE_PHASE_KEYS
        ]
        lines.append("")
        lines.append(
            format_table(
                ["phase", "wall_s", "share"],
                phase_rows,
                title=(
                    f"Event-loop profile at {profile['clients']} clients "
                    "(phases are attributions, not a disjoint partition)"
                ),
            )
        )
        counts = profile["counts"]
        transitions = counts["arbiter_transitions"]
        lines.append(
            f"arbiter: {transitions} transitions swept {counts['flows_swept']} flows "
            f"({counts['flows_swept'] / transitions if transitions else 0.0:.1f} per "
            f"transition) and re-aimed {counts['flows_reaimed']}"
        )
        lines.append(
            f"collector: {counts['gc_collections']} passes in {phases['gc_s']:.3f}s, "
            f"{counts['gc_collections_in_dispatch']} of them inside EventLoop.run*"
        )
        top = profile.get("top_labels") or []
        if top:
            lines.append(
                format_table(
                    ["label", "dispatched", "self_s"],
                    [[row["label"], row["dispatched"], row["self_s"]] for row in top[:5]],
                    title="Hottest callback labels",
                )
            )
    comparison = payload["arbiter_comparison"]
    lines.append("")
    lines.append(
        f"arbiter comparison at {comparison['clients']} clients: "
        f"incremental {comparison['incremental_wall_s']:.2f}s vs "
        f"reference {comparison['reference_wall_s']:.2f}s "
        f"-> {comparison['speedup']:.1f}x speedup; "
        "fingerprints "
        + ("identical" if comparison["fingerprints_identical"] else "DIVERGED")
    )
    return "\n".join(lines)

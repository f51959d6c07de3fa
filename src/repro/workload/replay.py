"""Event-driven trace replay: the paper's single execution path.

Every experiment drives the cache through one of the drivers in this
module, all of which run on the discrete-event engine (`repro.sim`):

* :class:`ClosedLoopDriver` — **N concurrent clients**: each client is a
  coroutine issuing its next operation the moment the previous one
  completes; this is the driver behind the Figure 12-style concurrent
  throughput scaling measurements.  Plans may mix GET/PUT/INVALIDATE/SLEEP
  operations (:class:`ClientOp`), which is how the microbenchmark figures
  (4 and 11) express their re-place-then-measure rounds.
* :class:`OpenLoopDriver` — **arrival-timestamped injection**: every trace
  record is scheduled as an event at its timestamp and runs as a coroutine
  process, so a slow request is still in flight when the next one arrives.
  :meth:`OpenLoopDriver.run_schedule` exposes the same injection machinery
  for custom per-arrival coroutines (the multi-tenant ``cluster_scale``
  replay).
* :class:`OpenLoopBaselineDriver` — the same open-loop injection against a
  latency-model baseline (ElastiCache or the raw object store) on its own
  event loop, so the comparison systems of Figures 13, 15, 16 and Table 1
  replay through the identical arrival path as the cache.

Common semantics follow the paper's evaluation:

* the cache is **read-only and write-through**: a GET miss triggers a RESET —
  fetch the object from the backing store and insert it into the cache —
  whose latency includes the backing-store fetch;
* every object in the trace is assumed to exist in the backing store (it is
  pre-populated before the replay starts).

All drivers produce a :class:`ConcurrentReplayReport` carrying per-request
intervals, hit/miss/RESET accounting and time series, latency projections
(percentiles, the Figure 16 size buckets), cost breakdowns, the flow-level
transfer trace, and a :meth:`~ConcurrentReplayReport.fingerprint` digest —
the quantity the golden differential-replay suite pins per figure.

This is the only replay stack: a one-request-at-a-time replay is the N=1
closed loop, or an open loop whose arrivals are spaced wider than a request.
:func:`seed_fleet` builds the "every client re-reads its own objects" fleet.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Generator, NamedTuple, Optional, Sequence, Union

from repro.baselines.elasticache import ElastiCacheCluster
from repro.baselines.s3 import ObjectStore
from repro.cache.client import InfiniCacheClient
from repro.cache.deployment import InfiniCacheDeployment
from repro.exceptions import WorkloadError
from repro.network.flows import FlowTrace, overlapping_pairs, peak_concurrency
from repro.obs.metrics import MetricRegistry, TimeSeries
from repro.sim.loop import EventLoop
from repro.sim.process import CountdownLatch, ProcessGenerator, all_of
from repro.utils.stats import summarize
from repro.utils.units import HOUR
from repro.workload.trace import Trace


#: The paper's Figure 16 object-size buckets.
SIZE_BUCKETS = ("<1MB", "[1,10)MB", "[10,100)MB", ">=100MB")


def hourly_costs(metrics: MetricRegistry, end_time: float) -> dict[str, list[float]]:
    """Per-hour cost increments by category (Figure 13(b)-(d)).

    Reads the cumulative cost series the deployment samples every minute
    and differences them into hourly buckets.
    """
    hourly: dict[str, list[float]] = {}
    hours = int(end_time // HOUR) + 1
    for category in ("serving", "warmup", "backup", "total"):
        name = f"cost.cumulative.{category}"
        if not metrics.has_series(name):
            hourly[category] = [0.0] * hours
            continue
        series = metrics.series(name)
        per_hour = []
        previous = 0.0
        for hour in range(1, hours + 1):
            window = series.window(0.0, hour * HOUR)
            cumulative = window[-1][1] if window else previous
            per_hour.append(max(0.0, cumulative - previous))
            previous = cumulative
        hourly[category] = per_hour
    return hourly


# ---------------------------------------------------------------------- samples and reports
class RequestSample(NamedTuple):
    """One request's interval on the virtual clock, as a driver recorded it.

    A named tuple: one per request, and the production and autoscaling
    reports carry them back from worker processes through ``pickle``.
    """

    client_id: str
    key: str
    size: int
    started_at: float
    finished_at: float
    hit: bool
    reset: bool = False
    #: Whether the hit needed an erasure-coded degraded read (Figure 14).
    recovery: bool = False
    #: Distinct VM hosts the request's chunks touched (Figure 4's x-axis);
    #: zero for baseline systems, which have no chunk fan-out.
    hosts_touched: int = 0
    #: The request was served from the backing store because fewer than
    #: ``data_shards`` chunks were reachable (a degraded hit).  Deliberately
    #: *not* part of :meth:`ConcurrentReplayReport.fingerprint` — fault-free
    #: runs never set it, so the golden figure fingerprints are untouched.
    degraded: bool = False

    @property
    def latency_s(self) -> float:
        """End-to-end request latency, RESET handling included."""
        return self.finished_at - self.started_at

    def overlaps(self, other: "RequestSample") -> bool:
        """Whether two requests were in flight at the same instant."""
        return self.started_at < other.finished_at and other.started_at < self.finished_at


@dataclass
class ConcurrentReplayReport:
    """Everything measured by an event-driven (overlapping-request) replay."""

    system: str
    #: ``"closed-loop"`` or ``"open-loop"``.
    mode: str
    clients: int
    trace_name: str = ""
    requests: int = 0
    hits: int = 0
    misses: int = 0
    resets: int = 0
    recoveries: int = 0
    #: Requests served from the backing store because the cache's chunks
    #: were transiently unreachable (fault injection).
    degraded_hits: int = 0
    #: Resilience counters harvested from the deployment after the run
    #: (chunk retries, hedges, breaker rejections, injected faults, ...).
    resilience: dict[str, float] = field(default_factory=dict)
    samples: list[RequestSample] = field(default_factory=list)
    #: RESET / recovery occurrences on the virtual clock (Figure 14's
    #: per-hour activity series).  Each event is stamped at the clock
    #: instant its outcome became known — miss detection for a RESET, GET
    #: completion for a recovery — which may trail the request's arrival;
    #: the clock only moves forward, so the series stays monotone even
    #: though overlapping requests resolve out of arrival order.
    reset_events: TimeSeries = field(default_factory=lambda: TimeSeries("resets"))
    recovery_events: TimeSeries = field(default_factory=lambda: TimeSeries("recoveries"))
    #: Chunk-transfer intervals recorded by the flow network during the run:
    #: an owned columnar copy of its trace window (a sequence of
    #: :class:`~repro.network.flows.FlowInterval`; the digest and the
    #: concurrency counts below read its columns).
    flow_intervals: FlowTrace = field(default_factory=FlowTrace)
    #: High-water mark of simultaneously-active transfers on the underlying
    #: flow network up to the end of this run (O(1) to maintain, available
    #: even under trace limits).  Equals this run's peak whenever the run is
    #: the deployment's first replay — the usual pattern; a later run on a
    #: reused deployment inherits any higher earlier peak.
    peak_active_flows: int = 0
    #: Transfers retired during the run but not in ``flow_intervals``:
    #: evicted by a ``flow_trace_limit``, or released by
    #: :meth:`release_flow_intervals`.  Non-zero means the interval-derived
    #: views (``max_concurrent_flows()``, overlap counts) cover only the
    #: retained tail of the run; so does ``fingerprint()``, unless the
    #: release fixed it first.
    flow_intervals_dropped: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Object bytes delivered to clients (hits plus RESET fetches).
    total_bytes: int = 0
    total_cost: float = 0.0
    cost_breakdown: dict[str, float] = field(default_factory=dict)
    #: Per-hour cost increments by category (Figure 13(b)-(d)).
    hourly_cost: dict[str, list[float]] = field(default_factory=dict)
    #: The digest :meth:`release_flow_intervals` fixed, if it ran.
    _fixed_digest: Optional[str] = field(default=None, init=False, repr=False)

    @property
    def hit_ratio(self) -> float:
        """Fraction of GETs served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def duration_s(self) -> float:
        """Virtual seconds between the first request start and the last finish."""
        return self.finished_at - self.started_at

    @property
    def aggregate_throughput_bps(self) -> float:
        """Object bytes per second of simulated wall-clock time."""
        return self.total_bytes / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def latencies(self) -> list[tuple[int, float]]:
        """``(object size, latency seconds)`` for every GET, hit or miss."""
        return [(sample.size, sample.latency_s) for sample in self.samples]

    def latency_values(self) -> list[float]:
        """All request latency samples in seconds."""
        return [sample.latency_s for sample in self.samples]

    def latency_summary(self) -> dict[str, float]:
        """Percentile summary of the latency samples."""
        return summarize(self.latency_values())

    def latencies_by_size_bucket(self) -> dict[str, list[float]]:
        """Latencies grouped into the paper's Figure 16 size buckets."""
        buckets: dict[str, list[float]] = {bucket: [] for bucket in SIZE_BUCKETS}
        for size, latency in self.latencies:
            if size < 1_000_000:
                buckets["<1MB"].append(latency)
            elif size < 10_000_000:
                buckets["[1,10)MB"].append(latency)
            elif size < 100_000_000:
                buckets["[10,100)MB"].append(latency)
            else:
                buckets[">=100MB"].append(latency)
        return buckets

    def hit_samples(self) -> list[RequestSample]:
        """Only the requests served from the cache (microbenchmark figures)."""
        return [sample for sample in self.samples if sample.hit]

    def fold_sample_bounds(self) -> None:
        """Set ``started_at``/``finished_at`` from the recorded samples.

        Shared by every driver so cache and baseline reports derive their
        ``duration_s`` (and therefore throughput) identically.
        """
        if self.samples:
            self.started_at = min(s.started_at for s in self.samples)
            self.finished_at = max(s.finished_at for s in self.samples)

    def max_concurrent_flows(self) -> int:
        """Peak number of simultaneously in-flight chunk transfers."""
        intervals = self.flow_intervals
        return peak_concurrency(intervals.started_at, intervals.ended_at)

    def overlapping_flow_pairs(self) -> int:
        """Number of chunk-transfer interval pairs that overlap in time
        (exactly the pairs for which ``FlowInterval.overlaps`` holds).

        Strictly zero for the sequential facade (one transfer's interval is
        collapsed to a point before the next starts); positive as soon as
        two transfers — of one request or of two concurrent requests —
        genuinely share the wire.
        """
        intervals = self.flow_intervals
        return overlapping_pairs(intervals.started_at, intervals.ended_at)

    def release_flow_intervals(self) -> None:
        """Fix :meth:`fingerprint` at the whole run's digest, then drop the
        flow-interval columns, counting them in ``flow_intervals_dropped``.

        For a report whose reader needs only the digest, samples, counters
        and costs: a replay run on a :func:`~repro.utils.fanout.fan_out`
        worker calls this before the report is pickled back, so the parent
        receives (and keeps) none of the intervals.  Call it once the run is
        over; later changes to the report do not reach the fixed digest.
        """
        self._fixed_digest = self.fingerprint()
        self.flow_intervals_dropped += len(self.flow_intervals)
        self.flow_intervals = FlowTrace()

    def fingerprint(self) -> str:
        """Deterministic digest of the run (for seeds-fixed determinism checks).

        Covers every request interval and every flow interval, rounded to
        nanoseconds so the digest is stable across platforms; after
        :meth:`release_flow_intervals`, the digest it fixed.
        """
        if self._fixed_digest is not None:
            return self._fixed_digest
        hasher = hashlib.sha256()
        for sample in self.samples:
            hasher.update(
                f"{sample.client_id}|{sample.key}|{sample.size}|"
                f"{sample.started_at:.9f}|{sample.finished_at:.9f}|"
                f"{int(sample.hit)}|{int(sample.reset)}\n".encode()
            )
        intervals = self.flow_intervals
        for label, host_id, size_bytes, started_at, ended_at, completed in zip(
            intervals.label, intervals.host_id, intervals.size_bytes,
            intervals.started_at, intervals.ended_at, intervals.completed,
        ):
            hasher.update(
                f"{label}|{host_id}|{size_bytes}|"
                f"{started_at:.9f}|{ended_at:.9f}|{completed}\n".encode()
            )
        return hasher.hexdigest()


# ---------------------------------------------------------------------- client operations
@dataclass(frozen=True)
class ClientOp:
    """One scripted closed-loop client operation.

    Plans handed to :class:`ClosedLoopDriver` may mix plain ``(key, size)``
    tuples (GETs, the common case) with explicit operations:

    * ``GET`` — fetch, with the RESET path on a miss (recorded as a sample);
    * ``PUT`` — sized insert (re-placement rounds of Figures 4 and 11);
    * ``INVALIDATE`` — drop the cached object (write-through overwrite);
    * ``SLEEP`` — advance this client's virtual time by ``delay_s`` (the
      between-rounds idle the microbenchmark figures use, during which
      warm-ups, backups, and reclamations keep ticking).
    """

    op: str
    key: str = ""
    size: int = 0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in ("GET", "PUT", "INVALIDATE", "SLEEP"):
            raise WorkloadError(f"unsupported client op {self.op!r}")
        if self.op in ("GET", "PUT") and (not self.key or self.size <= 0):
            raise WorkloadError(f"{self.op} ops need a key and a positive size")
        if self.op == "INVALIDATE" and not self.key:
            raise WorkloadError("INVALIDATE ops need a key")
        if self.op == "SLEEP" and self.delay_s < 0:
            raise WorkloadError("SLEEP delay must be non-negative")


#: What a closed-loop plan may contain: a GET tuple or an explicit op.
PlanEntry = Union[tuple[str, int], ClientOp]


def _normalise_plan(entries: Sequence[PlanEntry]) -> list[ClientOp]:
    ops: list[ClientOp] = []
    for entry in entries:
        if isinstance(entry, ClientOp):
            ops.append(entry)
        else:
            key, size = entry
            ops.append(ClientOp("GET", key=key, size=size))
    return ops


def seed_fleet(deployment: InfiniCacheDeployment, prefix: str, clients: int,
               objects_per_client: int, object_size: int,
               requests_per_client: int) -> list[list[tuple[str, int]]]:
    """Seed a fleet's private objects and return its per-client GET plans.

    ``clients × objects_per_client`` objects of ``object_size`` bytes are
    inserted as ``{prefix}/{client}/obj-{n}`` through one seeder client
    (sized PUTs through the synchronous API; the clock does not move).
    Client ``i``'s plan is ``requests_per_client`` GETs cycling over its own
    objects, so requests spread over the proxies.
    """
    seeder = deployment.new_client("fleet-seeder")
    for index in range(clients):
        for obj in range(objects_per_client):
            seeder.put_sized(f"{prefix}/{index}/obj-{obj}", object_size)
    return [
        [
            (f"{prefix}/{index}/obj-{round_index % objects_per_client}", object_size)
            for round_index in range(requests_per_client)
        ]
        for index in range(clients)
    ]


# ---------------------------------------------------------------------- arrival injection
#: A process coroutine that resolves with nothing.
VoidProcess = Generator[object, object, None]
#: One open-loop arrival: ``(timestamp, process label, coroutine factory)``.
Arrival = tuple[float, str, Callable[[], ProcessGenerator]]


def _trace_arrivals(
    trace: Trace,
    label: str,
    put: Callable[[str, int], ProcessGenerator],
    get: Callable[[str, int], ProcessGenerator],
) -> list[Arrival]:
    """One arrival per trace record, spawning ``put(key, size)`` for a PUT
    record and ``get(key, size)`` for a GET."""
    return [
        (
            record.timestamp,
            f"{label}.{record.operation.lower()}.{record.key}",
            partial(put if record.operation == "PUT" else get, record.key, record.size),
        )
        for record in trace.records
    ]


def _run_arrivals(loop: EventLoop, arrivals: Sequence[Arrival], latch_label: str) -> None:
    """Schedule every arrival and run the loop until all spawned processes
    finish."""
    latch = CountdownLatch(len(arrivals), label=latch_label)

    def inject(label: str, factory: Callable[[], ProcessGenerator]) -> None:
        process = loop.spawn(factory(), label=label)
        process.future.add_done_callback(latch.count_down)

    for timestamp, label, factory in arrivals:
        loop.schedule_at(
            timestamp, lambda l=label, f=factory: inject(l, f), label="driver.arrival"
        )
    loop.run_until_complete(latch.future)


class _EventDriver:
    """Shared machinery of the open- and closed-loop drivers."""

    def __init__(
        self,
        deployment: InfiniCacheDeployment,
        backing_store: Optional[ObjectStore] = None,
        warm_pool: bool = False,
    ) -> None:
        self.deployment = deployment
        self.backing_store = backing_store or ObjectStore()
        #: Warm every proxy's full Lambda pool before the first request, so
        #: the pool is spread over its full set of VM hosts (the Figure 4
        #: methodology deploys the pool before measuring).
        self.warm_pool = warm_pool

    def _start(self) -> int:
        """Start the deployment (and optional warm-up phase); returns the
        flow-trace marker bounding this run's transfer intervals."""
        trace_marker = self.deployment.flows.trace_marker()
        self.deployment.start()
        if self.warm_pool:
            now = self.deployment.simulator.now
            for proxy in self.deployment.proxies:
                proxy.warm_up_pool(now)
        return trace_marker

    def _reject_past_arrival(self, first_arrival_s: float) -> None:
        """Refuse, before anything is started or scheduled, a replay whose
        first arrival the clock has passed (the loop would fail mid-injection)."""
        now = self.deployment.simulator.now
        if first_arrival_s < now:
            raise WorkloadError(
                f"the first arrival is at t={first_arrival_s}, but the deployment's "
                f"clock is already at {now}; replay on a fresh deployment"
            )

    def request_process(self, client: InfiniCacheClient, client_id: str, key: str,
                        size: int, report: ConcurrentReplayReport) -> VoidProcess:
        """Coroutine for one GET, recorded in ``report``.

        A miss takes the RESET path: fetch from the backing store, then write
        through to the cache.  A degraded result (still cached, but too few
        chunks reachable) is served from the backing store too, yet counts as
        a degraded hit — not an error, not a RESET — and re-inserts nothing:
        the mapping is left for the failure detector to heal.
        """
        env = self.deployment.request_env
        started = env.now
        report.requests += 1
        tracer = env.tracer
        span = tracer.begin("request", client=client_id, key=key, op="GET")
        result = yield from client.get_process(key, env, span=span)
        reset = False
        degraded = not result.hit and result.degraded
        if result.hit:
            report.hits += 1
            report.total_bytes += result.size
            if result.recovery_performed:
                report.recoveries += 1
                # Stamped at the instant the outcome is known (env.now, not
                # the arrival time): the clock only moves forward, so the
                # series stays monotone even when requests overlap.
                report.recovery_events.record(env.now, 1.0)
        else:
            if degraded:
                report.degraded_hits += 1
            else:
                report.misses += 1
                reset = result.data_lost
                if reset:
                    report.resets += 1
                    report.reset_events.record(env.now, 1.0)
            fetched = self.backing_store.get(key)
            if fetched is None:
                raise WorkloadError(f"object {key!r} is missing from the backing store")
            _size, store_latency = fetched
            fetch_span = tracer.begin("store.fetch", span, key=key)
            yield store_latency
            tracer.finish(fetch_span)
            if not degraded:
                yield from client.put_sized_process(key, size, env, span=span)
            report.total_bytes += size
        served = result.hit or degraded
        tracer.finish(span, hit=served, reset=reset, degraded=degraded)
        report.samples.append(RequestSample(
            client_id=client_id, key=key, size=size,
            started_at=started, finished_at=env.now,
            hit=served, reset=reset,
            recovery=result.hit and result.recovery_performed,
            hosts_touched=result.hosts_touched,
            degraded=degraded,
        ))

    def _collect(self, report: ConcurrentReplayReport, trace_marker: int) -> None:
        """Fold the run's flow-trace window and request bounds into the report."""
        flows = self.deployment.flows
        report.flow_intervals = flows.trace_since(trace_marker)
        report.peak_active_flows = flows.max_concurrent()
        retired_during_run = flows.trace_marker() - trace_marker
        report.flow_intervals_dropped = retired_during_run - len(report.flow_intervals)
        report.fold_sample_bounds()

    #: Deployment counters folded into ``report.resilience`` after a run.
    RESILIENCE_COUNTERS = (
        "proxy.chunk_retries",
        "proxy.chunk_hedges",
        "proxy.chunk_faults",
        "proxy.breaker_rejections",
        "proxy.degraded_fallbacks",
        "proxy.put_failures",
        "proxy.repair_faults",
        "faas.injected_faults",
        "faas.reclaims",
        "backup.interrupted_rounds",
    )

    def _finish(self, report: ConcurrentReplayReport, trace_marker: int) -> ConcurrentReplayReport:
        self._collect(report, trace_marker)
        all_counters = self.deployment.counters()
        report.resilience = {
            name: all_counters[name]
            for name in self.RESILIENCE_COUNTERS
            if name in all_counters
        }
        self.deployment.stop()
        report.total_cost = self.deployment.total_cost()
        report.cost_breakdown = self.deployment.cost_breakdown()
        report.hourly_cost = hourly_costs(
            self.deployment.metrics, self.deployment.simulator.now
        )
        # Fold the final billing ledgers into the deployment's registry so a
        # metrics export after the run carries the labelled cost breakdowns.
        self.deployment.billing.publish_metrics(self.deployment.metrics)
        return report


class ClosedLoopDriver(_EventDriver):
    """N concurrent clients, each issuing back-to-back operations.

    Every client is a coroutine process: it waits for its own previous
    operation (decode included) before issuing the next one, so offered load
    rises with the client count exactly as in the paper's Figure 12 setup.
    """

    def _client_process(self, client: InfiniCacheClient, client_id: str,
                        ops: Sequence[ClientOp],
                        report: ConcurrentReplayReport) -> ProcessGenerator:
        env = self.deployment.request_env
        for op in ops:
            if op.op == "GET":
                yield from self.request_process(client, client_id, op.key, op.size, report)
            elif op.op == "PUT":
                yield from client.put_sized_process(op.key, op.size, env)
            elif op.op == "INVALIDATE":
                client.invalidate(op.key)
            elif op.op == "SLEEP" and op.delay_s > 0:
                yield op.delay_s
        return client_id

    def run(self, requests_by_client: Sequence[Sequence[PlanEntry]]) -> ConcurrentReplayReport:
        """Drive one coroutine client per plan until all complete.

        Args:
            requests_by_client: per client, the operations it issues in
                order — ``(key, size)`` GET tuples and/or :class:`ClientOp`
                entries.  GET sizes pre-populate the backing store for the
                RESET path and are re-inserted on miss.
        """
        if not requests_by_client:
            raise WorkloadError("the closed-loop driver needs at least one client")
        plans = [_normalise_plan(entries) for entries in requests_by_client]
        for ops in plans:
            for op in ops:
                if op.op == "GET":
                    self.backing_store.put(op.key, op.size)
        report = ConcurrentReplayReport(
            system="infinicache", mode="closed-loop", clients=len(plans),
        )
        trace_marker = self._start()
        loop = self.deployment.simulator
        processes = [
            loop.spawn(
                self._client_process(
                    self.deployment.new_client(f"closed-loop-{index}"),
                    f"closed-loop-{index}", ops, report,
                ),
                label=f"driver.client.{index}",
            )
            for index, ops in enumerate(plans)
        ]
        loop.run_until_complete(all_of([process.future for process in processes]))
        return self._finish(report, trace_marker)


class OpenLoopDriver(_EventDriver):
    """Arrival-timestamped request injection from a trace.

    Every record is scheduled at its trace timestamp and spawned as a
    process when the clock reaches it — the offered load follows the trace
    regardless of how long individual requests take, so slow requests
    overlap with later arrivals instead of delaying them.
    """

    def _overwrite_process(self, client: InfiniCacheClient, key: str,
                           size: int) -> VoidProcess:
        client.invalidate(key)
        yield from client.put_sized_process(key, size, self.deployment.request_env)

    def run(self, trace: Trace) -> ConcurrentReplayReport:
        """Inject every trace record at its timestamp; returns when all finish."""
        if not trace.records:
            raise WorkloadError("cannot replay an empty trace")
        self._reject_past_arrival(min(record.timestamp for record in trace.records))
        for key, size in trace.unique_objects().items():
            self.backing_store.put(key, size)
        report = ConcurrentReplayReport(
            system="infinicache", mode="open-loop", clients=1, trace_name=trace.name,
        )
        trace_marker = self._start()
        client = self.deployment.new_client("open-loop")
        arrivals = _trace_arrivals(
            trace, "driver",
            put=lambda key, size: self._overwrite_process(client, key, size),
            get=lambda key, size: self.request_process(client, "open-loop", key, size, report),
        )
        _run_arrivals(self.deployment.simulator, arrivals, "open_loop.complete")
        return self._finish(report, trace_marker)

    def run_schedule(
        self,
        arrivals: Sequence[Arrival],
        report: ConcurrentReplayReport,
        finalize: bool = True,
    ) -> ConcurrentReplayReport:
        """Open-loop injection of custom coroutines (multi-tenant replays).

        Each arrival is ``(timestamp, label, factory)`` where ``factory()``
        builds the coroutine to spawn at that virtual time.  The caller owns
        the report (and may have its coroutines append
        :class:`RequestSample` records to it); the driver owns the arrival
        scheduling, the completion latch, and the flow-trace window.  With
        ``finalize=False`` the deployment is left running — the cluster
        experiments stop the cluster themselves and read costs from it.
        """
        if arrivals:
            self._reject_past_arrival(min(timestamp for timestamp, _, _ in arrivals))
        trace_marker = self._start()
        _run_arrivals(self.deployment.simulator, arrivals, "open_loop.schedule")
        if finalize:
            return self._finish(report, trace_marker)
        self._collect(report, trace_marker)
        return report


# ---------------------------------------------------------------------- baseline replays
class ElastiCacheTarget:
    """Adapter driving an :class:`ElastiCacheCluster` under the open loop."""

    system = "elasticache"

    def __init__(self, cluster: ElastiCacheCluster) -> None:
        self.cluster = cluster

    def get(self, key: str, now: float) -> Optional[float]:
        """Latency of a GET served at ``now``, or ``None`` on a miss."""
        return self.cluster.get(key, now)

    def put(self, key: str, size: int, now: float) -> float:
        """Latency of a PUT served at ``now``."""
        return self.cluster.put(key, size, now)

    def finalize(self, trace: Trace, report: ConcurrentReplayReport) -> None:
        """Capacity-billed cost for the replay window."""
        report.total_cost = self.cluster.cost_for_duration(trace.records[-1].timestamp)
        report.cost_breakdown = {"capacity": report.total_cost, "total": report.total_cost}


class ObjectStoreTarget:
    """Adapter replaying directly against the backing store (the S3 baseline)."""

    system = "s3"

    def __init__(self, store: ObjectStore) -> None:
        self.store = store

    def get(self, key: str, now: float) -> Optional[float]:
        """Latency of fetching the object from the store (never a miss once
        the trace has been pre-populated)."""
        fetched = self.store.get(key)
        if fetched is None:
            return None
        _size, latency = fetched
        return latency

    def put(self, key: str, size: int, now: float) -> float:
        """Latency of uploading the object to the store."""
        return self.store.put(key, size)

    def finalize(self, trace: Trace, report: ConcurrentReplayReport) -> None:
        """Per-request cost accumulated over the replay."""
        report.total_cost = self.store.request_cost()
        report.cost_breakdown = {"requests": report.total_cost, "total": report.total_cost}


class OpenLoopBaselineDriver:
    """Open-loop trace replay against a latency-model baseline system.

    The comparison systems of Figures 13, 15, 16 and Table 1 (ElastiCache,
    raw S3) have no chunk fan-out to simulate, but their replays still run
    through the same arrival-timestamped injection as the cache — each
    record spawns a coroutine on a private event loop at its trace
    timestamp — so every system in a comparison replays the identical
    offered load and produces the same :class:`ConcurrentReplayReport`
    shape (and fingerprint) as the event-driven cache replay.
    """

    def __init__(self, target: Union[ElastiCacheTarget, ObjectStoreTarget],
                 backing_store: Optional[ObjectStore] = None) -> None:
        self.target = target
        self.backing_store = backing_store or ObjectStore()

    def _request_process(self, loop: EventLoop, key: str, size: int,
                         report: ConcurrentReplayReport) -> VoidProcess:
        started = loop.now
        report.requests += 1
        latency = self.target.get(key, started)
        if latency is not None:
            report.hits += 1
            report.total_bytes += size
            if latency > 0:
                yield latency
        else:
            # Baseline misses are compulsory or capacity misses; the
            # provider never reclaims its memory, so they are not RESETs.
            report.misses += 1
            fetched = self.backing_store.get(key)
            if fetched is None:
                raise WorkloadError(f"object {key!r} is missing from the backing store")
            _size, store_latency = fetched
            yield store_latency
            insert_latency = self.target.put(key, size, loop.now)
            if insert_latency > 0:
                yield insert_latency
            report.total_bytes += size
        report.samples.append(RequestSample(
            client_id=self.target.system, key=key, size=size,
            started_at=started, finished_at=loop.now,
            hit=latency is not None,
        ))

    def _put_process(self, loop: EventLoop, key: str, size: int) -> VoidProcess:
        latency = self.target.put(key, size, loop.now)
        if latency > 0:
            yield latency

    def run(self, trace: Trace) -> ConcurrentReplayReport:
        """Inject every trace record at its timestamp; returns when all finish."""
        if not trace.records:
            raise WorkloadError("cannot replay an empty trace")
        for key, size in trace.unique_objects().items():
            self.backing_store.put(key, size)
        loop = EventLoop()
        report = ConcurrentReplayReport(
            system=self.target.system, mode="open-loop", clients=1,
            trace_name=trace.name,
        )
        arrivals = _trace_arrivals(
            trace, "baseline",
            put=lambda key, size: self._put_process(loop, key, size),
            get=lambda key, size: self._request_process(loop, key, size, report),
        )
        _run_arrivals(loop, arrivals, "baseline.complete")
        report.fold_sample_bounds()
        self.target.finalize(trace, report)
        return report

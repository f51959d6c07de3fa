"""Flow-level network model: transfers as intervals on the virtual clock.

The synchronous request path estimates a chunk's transfer time once, from a
static snapshot of how many flows share each NIC (``flows_on_host`` /
``concurrent_request_streams``).  That cannot express the paper's headline
phenomena — throughput scaling with concurrent clients, first-d-of-n
straggler abandonment — because those are effects of flows *joining and
leaving while other flows are still in progress*.

:class:`FlowNetwork` models exactly that.  A transfer is an *interval* on
the shared :class:`~repro.sim.loop.EventLoop` clock: it starts, progresses
at the current fair-share rate, and finishes when its bytes run out.

A flow's rate is the bottleneck of three caps — the function's own
bandwidth, its VM host's NIC fair share, and its proxy's uplink fair share.
The two shared caps depend only on *how many* flows currently occupy that
NIC or that uplink, so a flow start/finish/abandon can change the rate of
exactly two **bottleneck groups**: the flows on the touched host NIC and
the flows on the touched proxy uplink.  The arbiter therefore indexes
active flows by NIC and by uplink, and every flow start, completion and
abandonment runs one transition, at once, that

1. **selects** the flows to visit from the groups dirty at that moment (the
   touched pair, plus any a retirement released just before resolving the
   future this call runs inside): a host-NIC group always, an uplink group
   only when an O(1) test on two floats kept per uplink says its share can
   bind a member (:meth:`FlowNetwork._affected_flows` has the argument),
2. **recomputes** the three-way minimum for the selected flows,
3. **settles** the progress of those whose rate actually changes (progress
   between rate changes is linear, so settlement is lazy — a flow is only
   brought up to date when its rate flips or it retires), and
4. **re-aims** completion events only for those flows.

A first-d-of-n completion is thus a few small sweeps at one instant, not
one batched sweep (measured and removed, see ``docs/performance.md``).  A
transition is O(host group) while the uplink does not bind and O(uplink
group) while it does, not O(total active flows), which lets the closed-loop
drivers scale to thousand-client fleets.  :class:`ReferenceFlowNetwork`
keeps the original global-recompute sweep — with identical numeric
semantics — as the differential-testing and perf-baseline reference.

Host-NIC sharing uses the same :class:`~repro.network.topology.HostNic`
registry as the static model — ``acquire``/``release`` still track live
flow membership, so the shared-NIC accounting responds to flows that join
and leave mid-transfer.

Every finished or abandoned flow leaves a :class:`FlowInterval` in
:attr:`FlowNetwork.trace`; the drivers surface that trace so experiments
(and tests) can assert genuine overlap between concurrent transfers.  Long
open-loop runs can cap the retained intervals with ``trace_limit`` —
aggregate statistics (counts, bytes, the running concurrency peak) are kept
independently of the retained window and do not change.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection
from dataclasses import dataclass, field, fields
from itertools import islice
from operator import attrgetter
from time import perf_counter
from typing import Any, Optional

from repro.exceptions import SimulationError
from repro.network.topology import HostNic, NetworkFabric
from repro.sim.loop import EventLoop
from repro.sim.process import SimFuture

#: Valid ``InfiniCacheConfig.flow_arbiter`` names (see :func:`resolve_arbiter`).
ARBITER_NAMES = ("incremental", "reference")


def peak_concurrency(intervals: list[tuple[float, float]]) -> int:
    """Peak number of ``(start, end)`` intervals alive at one instant.

    Boundary sweep with departures ordered before arrivals at equal
    timestamps, so back-to-back intervals do not count as overlapping.
    """
    boundaries: list[tuple[float, int]] = []
    for started_at, ended_at in intervals:
        boundaries.append((started_at, 1))
        boundaries.append((ended_at, -1))
    boundaries.sort(key=lambda item: (item[0], item[1]))
    live = peak = 0
    for _time, delta in boundaries:
        live += delta
        peak = max(peak, live)
    return peak


@dataclass(frozen=True, slots=True)
class FlowInterval:
    """One completed (or abandoned) transfer, as recorded in the trace.

    Slotted: a long replay keeps one per transfer, and a report that comes
    back from a worker process carries them all through ``pickle``.
    """

    flow_id: int
    label: str
    host_id: str
    proxy_id: str
    size_bytes: int
    started_at: float
    ended_at: float
    #: ``False`` when the flow was cancelled mid-transfer (an abandoned
    #: straggler); ``bytes_moved`` then reports the partial progress.
    completed: bool
    bytes_moved: float

    @property
    def duration_s(self) -> float:
        """Wall-clock span of the transfer."""
        return self.ended_at - self.started_at

    def overlaps(self, other: "FlowInterval") -> bool:
        """Whether two transfer intervals were in flight at the same instant."""
        return self.started_at < other.ended_at and other.started_at < self.ended_at

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        # Rebuilt from a plain tuple through ``__init__``: the dataclass
        # default for a frozen slotted class walks ``fields()`` per object
        # and pickles at half the speed.
        return (FlowInterval, _interval_fields(self))


_interval_fields = attrgetter(*(f.name for f in fields(FlowInterval)))


class Flow:
    """One in-flight transfer between a Lambda node and its proxy."""

    # The arbiter reads half a dozen of these per visited flow, hundreds of
    # thousands of times per fleet replay: slots skip the instance dict.
    __slots__ = (
        "flow_id", "label", "size_bytes", "function_bandwidth_bps", "nic",
        "proxy_id", "started_at", "remaining", "rate_bps", "last_progress_at",
        "future", "_completion", "_finish_label", "parent_span",
    )

    def __init__(
        self,
        flow_id: int,
        label: str,
        size_bytes: float,
        function_bandwidth_bps: float,
        nic: HostNic,
        proxy_id: str,
        started_at: float,
    ) -> None:
        self.flow_id = flow_id
        self.label = label
        self.size_bytes = size_bytes
        self.function_bandwidth_bps = function_bandwidth_bps
        self.nic = nic
        self.proxy_id = proxy_id
        self.started_at = started_at
        self.remaining = float(size_bytes)
        self.rate_bps = 0.0
        self.last_progress_at = started_at
        #: Resolves with this flow when the last byte lands; cancelling it
        #: (directly or through a process abandoning the fetch) tears the
        #: flow down and releases its bandwidth shares.
        self.future: SimFuture = SimFuture(label=f"flow:{label}")
        #: Pending completion: a lazy :class:`~repro.sim.loop.DeadlineTimer`
        #: under the incremental arbiter, a plain eager
        #: :class:`~repro.sim.loop.Event` under the reference arbiter (kept
        #: that way as the differential baseline for the lazy mechanism).
        self._completion: Optional[Any] = None
        #: Precomputed completion-event label: re-aims happen on every rate
        #: transition, so building the string once per flow matters at scale.
        self._finish_label = "flow.finish:" + label
        #: Tracing linkage: the chunk-transfer span this flow serves, set by
        #: the request path when a tracer is attached (None otherwise).
        self.parent_span: Optional[Any] = None

    @property
    def bytes_moved(self) -> float:
        """Bytes transferred so far (after the last settlement)."""
        return self.size_bytes - self.remaining

    def __repr__(self) -> str:
        return (
            f"Flow({self.label!r}, host={self.nic.host_id}, proxy={self.proxy_id}, "
            f"remaining={self.remaining:.0f}B at {self.rate_bps / 1e6:.1f} MB/s)"
        )


class FlowNetwork:
    """Incremental processor-sharing bandwidth arbitration over the event loop.

    Args:
        loop: the shared event loop flows are scheduled on.
        fabric: NIC registry plus proxy-side uplink capacity.
        trace_limit: if given, retain at most this many finished/abandoned
            :class:`FlowInterval` records (the oldest are evicted in O(1)
            per retirement from the underlying deque).  The aggregate
            statistics (``completed_flows``, ``abandoned_flows``, byte
            totals, ``max_concurrent``) are unaffected by eviction.
    """

    def __init__(
        self,
        loop: EventLoop,
        fabric: NetworkFabric,
        trace_limit: Optional[int] = None,
    ) -> None:
        if trace_limit is not None and trace_limit < 0:
            raise SimulationError(f"trace_limit must be >= 0, got {trace_limit}")
        self.loop = loop
        self.fabric = fabric
        self.trace_limit = trace_limit
        self._active: dict[int, Flow] = {}
        self._next_flow_id = 0
        #: Bottleneck-group indexes: the live flows sharing each host NIC and
        #: each proxy uplink.  Values are insertion-ordered by flow id.
        self._by_host: dict[str, dict[int, Flow]] = {}
        self._by_proxy: dict[str, dict[int, Flow]] = {}
        #: Groups whose occupancy changed but whose re-aim has not run yet.
        #: Retiring a flow releases its shares *before* its future settles,
        #: and settling the future synchronously resumes processes that can
        #: start or cancel other transfers — those nested transitions must
        #: also repair the still-dirty groups, or flows in them would be
        #: re-aimed later than under the global-recompute reference (same
        #: rates, different event order at equal timestamps).  Insertion-
        #: ordered dicts, not sets: hash order is never observable (D103).
        self._dirty_hosts: dict[str, None] = {}
        self._dirty_proxies: dict[str, None] = {}
        #: Per-uplink sweep state, two floats per live ``_by_proxy`` group
        #: (insertion-ordered dicts, dropped when the group empties): the
        #: per-stream share its members were last rated at, and an upper
        #: bound on its members' host-side cap ``min(function bandwidth,
        #: NIC share)``.  A touched uplink whose bound does not exceed its
        #: share before or after cannot bind any member, so
        #: :meth:`_affected_flows` leaves it out of the sweep.
        self._uplink_share: dict[str, float] = {}
        self._uplink_bound: dict[str, float] = {}
        #: Optional :class:`~repro.obs.tracer.SpanTracer`; when attached,
        #: every retired flow is recorded as a ``net.flow`` span parented to
        #: the chunk transfer it served (see ``Flow.parent_span``).
        self.tracer: Optional[Any] = None
        #: Chronological record of finished/abandoned transfers (the newest
        #: ``trace_limit`` of them when a limit is set).  A deque so that
        #: eviction under ``trace_limit`` is O(1) per retirement; exposed as
        #: a list through the :attr:`trace` property.
        self._trace: deque[FlowInterval] = deque(maxlen=trace_limit)
        self._trace_dropped = 0
        self._peak_active = 0
        #: Aggregate retirement statistics, independent of trace eviction.
        self.completed_flows = 0
        self.abandoned_flows = 0
        self.bytes_completed = 0.0
        self.bytes_abandoned = 0.0
        #: Arbiter work, exact per seed: flows visited by a sweep and flows
        #: whose completion was re-aimed.  Not part of :meth:`flow_stats` —
        #: the two arbiters agree on the simulation, not on the work it took.
        self.flows_swept = 0
        self.flows_reaimed = 0

    # ------------------------------------------------------------------ introspection
    @property
    def active_count(self) -> int:
        """Number of flows currently in progress."""
        return len(self._active)

    @property
    def retired_flows(self) -> int:
        """Total number of flows that have finished or been abandoned."""
        return self.completed_flows + self.abandoned_flows

    @property
    def trace_dropped(self) -> int:
        """Number of trace intervals evicted under ``trace_limit``."""
        return self._trace_dropped

    @property
    def trace(self) -> list[FlowInterval]:
        """The retained finished/abandoned intervals, oldest first.

        A fresh list copy of the retained window; use :meth:`trace_since`
        for incremental reads and :meth:`flow_stats` for O(1) aggregates.
        """
        return list(self._trace)

    def flows_on_host(self, host_id: str) -> int:
        """Live flow count through one host NIC (the dynamic accounting)."""
        nic = self.fabric.hosts.get(host_id)
        return nic.concurrent_flows if nic is not None else 0

    def streams_on_proxy(self, proxy_id: str) -> int:
        """Live flow count through one proxy's uplink."""
        return len(self._by_proxy.get(proxy_id, ()))

    def max_concurrent(self) -> int:
        """Peak number of simultaneously in-flight transfers so far.

        Maintained as a running high-water mark of the live flow count, so
        the call is O(1) regardless of how long the run (or its trace) is.
        """
        return self._peak_active

    def flow_stats(self) -> dict[str, float]:
        """Aggregate transfer statistics (stable under ``trace_limit`` eviction).

        Every value is a running aggregate maintained at retire time, so the
        call is O(1) no matter how many intervals were retired or truncated.
        """
        return {
            "completed_flows": float(self.completed_flows),
            "abandoned_flows": float(self.abandoned_flows),
            "bytes_completed": self.bytes_completed,
            "bytes_abandoned": self.bytes_abandoned,
            "peak_concurrent_flows": float(self._peak_active),
            "trace_retained": float(len(self._trace)),
            "trace_dropped": float(self._trace_dropped),
        }

    # ------------------------------------------------------------------ trace windows
    def trace_marker(self) -> int:
        """Opaque position marker: the number of flows retired so far.

        Take one before a run and pass it to :meth:`trace_since` afterwards
        to get the intervals retired in between — stable even when
        ``trace_limit`` eviction shifts list indexes.
        """
        return self.retired_flows

    def trace_since(self, marker: int) -> list[FlowInterval]:
        """The retained intervals retired after ``marker`` was taken."""
        return list(islice(self._trace, max(0, marker - self._trace_dropped), None))

    # ------------------------------------------------------------------ flow lifecycle
    def transfer(
        self,
        *,
        size_bytes: float,
        function_bandwidth_bps: float,
        host_id: str,
        host_capacity_bps: float,
        proxy_id: str,
        label: str = "",
    ) -> Flow:
        """Start a transfer now; returns the flow whose future resolves on finish."""
        if size_bytes <= 0:
            raise SimulationError(f"flow {label!r} must move a positive byte count")
        if function_bandwidth_bps <= 0:
            raise SimulationError(f"flow {label!r} needs a positive bandwidth cap")
        now = self.loop.now
        nic = self.fabric.host(host_id, host_capacity_bps)
        nic.acquire()
        flow = Flow(
            flow_id=self._next_flow_id,
            label=label,
            size_bytes=size_bytes,
            function_bandwidth_bps=function_bandwidth_bps,
            nic=nic,
            proxy_id=proxy_id,
            started_at=now,
        )
        self._next_flow_id += 1
        self._active[flow.flow_id] = flow
        self._by_host.setdefault(nic.host_id, {})[flow.flow_id] = flow
        self._by_proxy.setdefault(proxy_id, {})[flow.flow_id] = flow
        if len(self._active) > self._peak_active:
            self._peak_active = len(self._active)
        flow.future.on_cancel(lambda: self.cancel(flow))
        self._transition(nic.host_id, proxy_id)
        return flow

    def cancel(self, flow: Flow) -> bool:
        """Abandon an in-flight transfer (the first-d straggler path).

        Settles its partial progress into the trace, releases its NIC and
        uplink shares (speeding up the surviving flows), and cancels its
        future if the caller has not already done so.
        """
        if flow.flow_id not in self._active:
            return False
        now = self.loop.now
        self._settle_flow(flow, now)
        self._retire(flow, now, completed=False)
        if not flow.future.done:
            # Cancelling the future can resume the abandoning process, which
            # may tear down sibling transfers in turn (see ``_dirty_hosts``).
            flow.future.cancel()
        self._transition(flow.nic.host_id, flow.proxy_id)
        return True

    def reassess_host(self, host_id: str) -> None:
        """Re-arbitrate every flow sharing one host NIC (fault-injection hook).

        The arbiters only recompute a group's fair share when its *occupancy*
        changes; a link fault changes the NIC's capacity (via
        ``HostNic.degradation_factor``) without any flow joining or leaving,
        so the chaos engine calls this after flipping the factor.  In-flight
        progress is settled at the old rate first — exactly as for any other
        transition — so injected faults never rewrite history.
        """
        self._transition(host_id, "")

    # ------------------------------------------------------------------ internals
    def _settle_flow(self, flow: Flow, now: float) -> None:
        """Advance one flow's byte count at the rate held since its last settle."""
        elapsed = now - flow.last_progress_at
        if elapsed > 0 and flow.rate_bps > 0:
            flow.remaining = max(0.0, flow.remaining - flow.rate_bps * elapsed)
        flow.last_progress_at = now

    def _affected_flows(self) -> Collection[Flow]:
        """The flows a sweep of the dirty groups has to visit, by flow id.

        A flow's rate depends only on its own caps and on the occupancy of
        its NIC and its uplink, so no flow outside the dirty groups can
        change rate.  Inside them:

        * a dirty **host NIC** group is always taken — it is small, and
          ``reassess_host`` changes its capacity with no occupancy change;
        * a dirty **uplink** group is taken only when it can bind, i.e. when
          ``bound > min(share its members were rated at, share now)``.
          Otherwise every member's ``min(host-side cap, share)`` is its
          host-side cap on both sides: unless its NIC is dirty too (and it
          is visited through that group) its rate is unchanged, the sweep
          would ``continue`` past it, and dropping it from the visit moves
          no settled byte, no re-aim and no consumed sequence number.

        Selecting updates that state: every dirty uplink's current share is
        recorded as the one its members are rated at, and the bound of a group
        swept in full is zeroed (the sweep raises it back to the exact maximum).

        Groups are insertion-ordered dicts and a merged result is
        flow-id-sorted, so event scheduling matches the global-recompute
        reference and never depends on hash order.
        """
        groups: list[dict[int, Flow]] = []
        by_host = self._by_host
        for host_id in self._dirty_hosts:
            group = by_host.get(host_id)
            if group is not None:
                groups.append(group)
        by_proxy = self._by_proxy
        shares = self._uplink_share
        bounds = self._uplink_bound
        for proxy_id in self._dirty_proxies:
            group = by_proxy.get(proxy_id)
            if group is None:
                continue
            share = self.fabric.proxy_share(len(group))
            rated = shares.get(proxy_id)
            if rated is None or bounds[proxy_id] > (share if share < rated else rated):
                groups.append(group)
                bounds[proxy_id] = 0.0
            shares[proxy_id] = share
        if len(groups) <= 1:
            return groups[0].values() if groups else ()
        # A function's NIC usually sits behind one proxy, so a swept uplink
        # group tends to contain the host groups touched with it: its values
        # are then the whole answer, already in flow-id order.
        largest = max(groups, key=len)
        members = largest.keys()
        for group in groups:
            if group is not largest and not group.keys() <= members:
                break
        else:
            return largest.values()
        merged: dict[int, Flow] = {}
        for group in groups:
            merged.update(group)
        return [merged[flow_id] for flow_id in sorted(merged)]

    def _transition(self, host_id: str, proxy_id: str) -> None:
        """Settle + re-aim completion events for the touched bottleneck groups.

        A flow whose bottleneck did not change keeps its already-scheduled
        completion event *and* its last settlement point: progress is
        linear between rate changes, so both remain exact.  Heap churn and
        settlement work stay proportional to the flows actually affected.
        """
        self._dirty_hosts[host_id] = None
        self._dirty_proxies[proxy_id] = None
        profile = self.loop._profile
        if profile is not None:
            transition_started = perf_counter()  # repro: allow[D102] (profiling meter)
        now = self.loop.now
        flows = self._affected_flows()
        self._dirty_hosts.clear()
        self._dirty_proxies.clear()
        by_proxy = self._by_proxy
        bounds = self._uplink_bound
        proxy_share = self.fabric.proxy_share
        reaimed = 0
        uplink = None
        for flow in flows:
            # Host-side cap: the function's bandwidth or its NIC's fair share
            # (``HostNic.effective_bandwidth`` inlined: a live flow holds its
            # NIC, so ``concurrent_flows >= 1``).
            nic = flow.nic
            rate = flow.function_bandwidth_bps
            host_share = nic.capacity_bps * nic.degradation_factor / nic.concurrent_flows
            if host_share < rate:
                rate = host_share
            # The uplink's share is a group property: recomputed only when
            # the uplink differs from the previous flow's.
            if flow.proxy_id != uplink:
                uplink = flow.proxy_id
                share = proxy_share(len(by_proxy[uplink]))
                bound = bounds.get(uplink, 0.0)
            if rate > bound:
                bound = bounds[uplink] = rate
            if share < rate:
                rate = share
            if flow._completion is not None and rate == flow.rate_bps:
                continue
            self._settle_flow(flow, now)
            flow.rate_bps = rate
            reaimed += 1
            self._aim(flow, now + flow.remaining / rate)
        self.flows_swept += len(flows)
        self.flows_reaimed += reaimed
        if profile is not None:
            profile.arbiter_transitions += 1
            profile.flows_swept += len(flows)
            profile.flows_reaimed += reaimed
            profile.arbiter_s += perf_counter() - transition_started  # repro: allow[D102] (profiling meter)

    def _aim(self, flow: Flow, finish: float) -> None:
        """(Re-)aim a flow's completion at ``finish``.

        Uses a lazy :class:`~repro.sim.loop.DeadlineTimer` per flow: the
        common competing-flow-joined case (finish moves *later*) is a field
        write instead of a cancel+reschedule, so a flow costs at most a few
        heap entries over its whole lifetime regardless of how many rate
        transitions it sees.  Firing times are identical to the eager idiom,
        and so is same-timestamp tie-breaking: the timer's own reservation
        stands in for the number an eager push would have consumed.
        """
        timer = flow._completion
        if timer is None:
            flow._completion = self.loop.schedule_deadline(
                finish, lambda: self._complete(flow), label=flow._finish_label
            )
        else:
            timer.set_deadline(finish)

    def _complete(self, flow: Flow) -> None:
        if flow.flow_id not in self._active:
            return
        now = self.loop.now
        self._settle_flow(flow, now)
        self._retire(flow, now, completed=True)
        # Resolving the future synchronously resumes the waiting fetch — a
        # satisfied first-d-of-n quorum then cancels its straggler siblings
        # and the client may start its next transfer, all at this instant
        # and each with a transition of its own (see ``_dirty_hosts``).
        # Resolved with nothing: the flow as its own future's result would
        # be a reference cycle per transfer, and no waiter reads the value.
        flow.future.resolve()
        self._transition(flow.nic.host_id, flow.proxy_id)

    def _retire(self, flow: Flow, now: float, completed: bool) -> None:
        del self._active[flow.flow_id]
        host_group = self._by_host.get(flow.nic.host_id)
        if host_group is not None:
            host_group.pop(flow.flow_id, None)
            if not host_group:
                del self._by_host[flow.nic.host_id]
        proxy_group = self._by_proxy.get(flow.proxy_id)
        if proxy_group is not None:
            proxy_group.pop(flow.flow_id, None)
            if not proxy_group:
                del self._by_proxy[flow.proxy_id]
                self._uplink_share.pop(flow.proxy_id, None)
                self._uplink_bound.pop(flow.proxy_id, None)
        if flow._completion is not None:
            flow._completion.cancel()
            flow._completion = None
        flow.nic.release()
        self._dirty_hosts[flow.nic.host_id] = None
        self._dirty_proxies[flow.proxy_id] = None
        if completed:
            flow.remaining = 0.0
            self.completed_flows += 1
            self.bytes_completed += flow.bytes_moved
        else:
            self.abandoned_flows += 1
            self.bytes_abandoned += flow.bytes_moved
        trace = self._trace
        if trace.maxlen is not None and len(trace) == trace.maxlen:
            # The deque evicts the oldest interval on append — O(1), where
            # the old list-shift was O(trace_limit) per retirement.
            self._trace_dropped += 1
        trace.append(
            FlowInterval(
                flow_id=flow.flow_id,
                label=flow.label,
                host_id=flow.nic.host_id,
                proxy_id=flow.proxy_id,
                size_bytes=int(flow.size_bytes),
                started_at=flow.started_at,
                ended_at=now,
                completed=completed,
                bytes_moved=flow.bytes_moved,
            )
        )
        tracer = self.tracer
        if tracer is not None:
            tracer.record(
                "net.flow",
                flow.started_at,
                now,
                parent=flow.parent_span,
                label=flow.label,
                host=flow.nic.host_id,
                proxy=flow.proxy_id,
                bytes=flow.bytes_moved,
                completed=completed,
            )


class ReferenceFlowNetwork(FlowNetwork):
    """Global-recompute arbiter: the pre-incremental O(active²) sweep.

    Numerically identical to :class:`FlowNetwork` — every transition visits
    *all* active flows, but a flow outside the touched groups recomputes the
    same rate and is skipped without settling, exactly as the incremental
    arbiter skips it without visiting.  It also keeps the original *eager*
    cancel+reschedule completion events, making it the differential baseline
    for the lazy-deadline timers as well as for the group indexing.  Kept as
    the byte-for-byte reference for the differential tests and as the
    baseline the perf harness measures the incremental arbiter against.
    """

    def _affected_flows(self) -> Collection[Flow]:
        return list(self._active.values())

    def _aim(self, flow: Flow, finish: float) -> None:
        if flow._completion is not None:
            flow._completion.cancel()
        flow._completion = self.loop.schedule_at(
            finish, lambda f=flow: self._complete(f), label=flow._finish_label
        )


def resolve_arbiter(name: str) -> type[FlowNetwork]:
    """Map an ``InfiniCacheConfig.flow_arbiter`` name to an arbiter class."""
    if name == "incremental":
        return FlowNetwork
    if name == "reference":
        return ReferenceFlowNetwork
    raise SimulationError(
        f"unknown flow arbiter {name!r} (expected one of {ARBITER_NAMES})"
    )

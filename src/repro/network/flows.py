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

Every finished or abandoned flow appends one row to the network's
:class:`FlowTrace`, a columnar store: one ``array`` per numeric field of
:class:`FlowInterval`, a byte column for ``completed`` and lists of ``str``
for the label and the host and proxy ids (the same string objects the NIC
and the proxy hold; the network keeps one string per distinct label, so a
chunk fetched again adds no string).  A row costs about 65 bytes plus, for a
label not seen before, its string, where a named tuple per transfer cost
about 260 plus its label.  ``FlowTrace`` is a read-only sequence of
:class:`FlowInterval` records built on demand, pickles as its columns, and
is what :meth:`FlowNetwork.trace_since` hands the drivers, so experiments
(and tests) can assert genuine overlap between concurrent transfers.  A
window that covers the whole store is the store itself, handed over
copy-on-write: the network's next retirement appends to a copy, so the
reader never sees later rows.  Long open-loop runs can cap the retained
intervals with ``trace_limit`` — aggregate statistics (counts, bytes, the
running concurrency peak) are kept independently of the retained window and
do not change.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Collection, Sequence
from time import perf_counter
from typing import Any, NamedTuple, Optional

from repro.exceptions import SimulationError
from repro.network.topology import HostNic, NetworkFabric
from repro.sim.loop import EventLoop
from repro.sim.process import SimFuture
from repro.utils.columns import FLAG, TEXT, ColumnStore

#: Valid ``InfiniCacheConfig.flow_arbiter`` names (see :func:`resolve_arbiter`).
ARBITER_NAMES = ("incremental", "reference")


def peak_concurrency(starts: Sequence[float], ends: Sequence[float]) -> int:
    """Peak number of intervals alive at one instant, given their
    ``starts`` and ``ends`` columns.

    A sweep over both columns sorted, with departures ordered before
    arrivals at equal timestamps, so back-to-back intervals do not count as
    overlapping and a zero-length interval never counts as in flight.
    """
    ends = sorted(ends)
    departed = peak = 0
    for arrived, started_at in enumerate(sorted(starts), 1):
        while departed < len(ends) and ends[departed] <= started_at:
            departed += 1
        if arrived - departed > peak:
            peak = arrived - departed
    return peak


def overlapping_pairs(starts: Sequence[float], ends: Sequence[float]) -> int:
    """Number of interval pairs for which :meth:`FlowInterval.overlaps` holds.

    Counted as all pairs minus the disjoint ones, in O(n log n).  A pair is
    disjoint when one interval ends at or before the other starts.  Counting
    the ordered ``(i, j)`` with ``ends[i] <= starts[j]`` over sorted starts
    finds every disjoint pair once, except two kinds it counts too often:
    ``i == j`` for each zero-length interval, and both orders of two
    zero-length intervals at the same instant.
    """
    count = len(starts)
    sorted_starts = sorted(starts)
    ordered_disjoint = sum(count - bisect_left(sorted_starts, end) for end in ends)
    points: dict[float, int] = {}
    for started_at, ended_at in zip(starts, ends):
        if started_at == ended_at:
            points[started_at] = points.get(started_at, 0) + 1
    ordered_disjoint -= sum(points.values())
    disjoint = ordered_disjoint - sum(k * (k - 1) // 2 for k in points.values())
    return count * (count - 1) // 2 - disjoint


class FlowInterval(NamedTuple):
    """One completed (or abandoned) transfer, as read from a :class:`FlowTrace`.

    The trace stores its transfers as columns and builds one of these per
    index or iteration step; nothing keeps them.
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


class FlowTrace(ColumnStore[FlowInterval]):
    """Retired transfers, oldest first, stored as one column per field.

    Each :class:`FlowInterval` field is an attribute holding its column:
    ``array('q')`` for ``flow_id`` and ``size_bytes``, ``array('d')`` for
    ``started_at``, ``ended_at`` and ``bytes_moved``, a ``bytearray`` of 0/1
    for ``completed``, and lists of ``str`` for ``label``, ``host_id`` and
    ``proxy_id``.  Readers that scan every transfer (the report digest, the
    concurrency sweeps) read the columns; indexing and iteration build
    :class:`FlowInterval` records on demand (see
    :class:`~repro.utils.columns.ColumnStore`).  Only the
    :class:`FlowNetwork` that fills it writes to it, and never after
    :meth:`FlowNetwork.trace_since` has handed it out.
    """

    __slots__ = FlowInterval._fields
    ROW = FlowInterval
    KINDS = ("q", TEXT, TEXT, TEXT, "q", "d", "d", FLAG, "d")
    flow_id: array[int]
    label: list[str]
    host_id: list[str]
    proxy_id: list[str]
    size_bytes: array[int]
    started_at: array[float]
    ended_at: array[float]
    completed: bytearray
    bytes_moved: array[float]

    def _append(
        self, flow_id: int, label: str, host_id: str, proxy_id: str, size_bytes: int,
        started_at: float, ended_at: float, completed: bool, bytes_moved: float,
    ) -> None:
        self.flow_id.append(flow_id)
        self.label.append(label)
        self.host_id.append(host_id)
        self.proxy_id.append(proxy_id)
        self.size_bytes.append(size_bytes)
        self.started_at.append(started_at)
        self.ended_at.append(ended_at)
        self.completed.append(completed)
        self.bytes_moved.append(bytes_moved)

    def _drop_oldest(self, count: int) -> None:
        for column in self._columns():
            del column[:count]


class Flow(SimFuture):
    """One in-flight transfer between a Lambda node and its proxy.

    A flow is the future its waiters yield: it resolves (with ``None``) when
    the last byte lands, and cancelling it — directly or through a process
    abandoning the fetch — tears the transfer down and releases its
    bandwidth shares.  Its label is the network's pooled transfer label.
    """

    # The arbiter reads half a dozen of these per visited flow, hundreds of
    # thousands of times per fleet replay: slots skip the instance dict.
    __slots__ = (
        "flow_id", "size_bytes", "function_bandwidth_bps", "nic",
        "proxy_id", "started_at", "remaining", "rate_bps", "last_progress_at",
        "_completion", "parent_span", "network",
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
        network: FlowNetwork,
    ) -> None:
        super().__init__(label)
        self.flow_id = flow_id
        self.size_bytes = size_bytes
        self.function_bandwidth_bps = function_bandwidth_bps
        self.nic = nic
        self.proxy_id = proxy_id
        self.started_at = started_at
        self.remaining = float(size_bytes)
        self.rate_bps = 0.0
        self.last_progress_at = started_at
        #: Pending completion: a lazy :class:`~repro.sim.loop.DeadlineTimer`
        #: under the incremental arbiter, a plain eager
        #: :class:`~repro.sim.loop.Event` under the reference arbiter (kept
        #: that way as the differential baseline for the lazy mechanism).
        #: Either one calls the flow itself when it fires.
        self._completion: Optional[Any] = None
        #: Tracing linkage: the chunk-transfer span this flow serves, set by
        #: the request path when a tracer is attached (None otherwise).
        self.parent_span: Optional[Any] = None
        #: The arbiter carrying this flow.
        self.network = network

    def cancel(self) -> bool:
        """Abandon the transfer; returns ``False`` if it had already settled.

        The network releases the flow's shares first (settling its partial
        progress into the trace), then any other cancel hooks run, then the
        done-callbacks fire with ``cancelled=True``.
        """
        if self._done:
            return False
        self._done = True
        self._cancelled = True
        self.network.cancel(self)
        hooks, self._cancel_hooks = self._cancel_hooks, ()
        for hook in hooks:
            hook()
        self._settle()
        return True

    def __call__(self) -> None:
        """Complete the transfer: the flow is its completion timer's callback."""
        self.network._complete(self)

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
            transfers: only the newest ``trace_limit`` are visible through
            :attr:`trace` and :meth:`trace_since`.  The store drops the
            evicted rows in batches, once ``trace_limit`` of them have piled
            up (amortised O(1) per retirement; at most ``2 * trace_limit``
            rows held).  The aggregate statistics (``completed_flows``,
            ``abandoned_flows``, byte totals, ``max_concurrent``) are
            unaffected by eviction.
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
        #: Chronological record of finished/abandoned transfers.  Under a
        #: ``trace_limit`` its first :meth:`_trace_start` rows are already
        #: evicted and wait for the next batch drop.
        self._trace = FlowTrace()
        #: Whether :meth:`trace_since` handed ``_trace`` itself to a reader:
        #: the next :meth:`_retire` then appends to a copy (copy-on-write).
        self._trace_shared = False
        #: One string per distinct label: every flow and the trace's label
        #: column hold the pooled one, not a fresh string per transfer.
        self._labels: dict[str, str] = {}
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
        return self.retired_flows - (len(self._trace) - self._trace_start())

    @property
    def trace(self) -> list[FlowInterval]:
        """The retained finished/abandoned intervals, oldest first.

        A fresh list of the retained window; use :meth:`trace_since` for
        incremental reads and :meth:`flow_stats` for O(1) aggregates.
        """
        return list(self._trace[self._trace_start():])

    def flows_on_host(self, host_id: str) -> int:
        """Live flow count through one host NIC (the dynamic accounting)."""
        nic = self.fabric.hosts.get(host_id)
        return nic.concurrent_flows if nic is not None else 0

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
            "trace_retained": float(len(self._trace) - self._trace_start()),
            "trace_dropped": float(self.trace_dropped),
        }

    # ------------------------------------------------------------------ trace windows
    def trace_marker(self) -> int:
        """Opaque position marker: the number of flows retired so far.

        Take one before a run and pass it to :meth:`trace_since` afterwards
        to get the intervals retired in between — stable even when
        ``trace_limit`` eviction shifts list indexes.
        """
        return self.retired_flows

    def trace_since(self, marker: int) -> FlowTrace:
        """The retained intervals retired after ``marker`` was taken.

        A window that covers the whole store is the store itself, marked
        shared so the next retirement appends to a copy; any other window is
        a slice copy of the store's columns.  Either way later transfers and
        ``trace_limit`` evictions never change a returned trace.
        """
        # The store's first row is the one retired as number ``first_row``.
        first_row = self.retired_flows - len(self._trace)
        start = max(marker - first_row, self._trace_start())
        if start == 0:
            self._trace_shared = True
            return self._trace
        return self._trace[start:]

    def _trace_start(self) -> int:
        """Index of the oldest retained row: rows before it are evicted."""
        limit = self.trace_limit
        if limit is None or len(self._trace) <= limit:
            return 0
        return len(self._trace) - limit

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
        """Start a transfer now; returns the flow, a future resolving on finish."""
        if size_bytes <= 0:
            raise SimulationError(f"flow {label!r} must move a positive byte count")
        if function_bandwidth_bps <= 0:
            raise SimulationError(f"flow {label!r} needs a positive bandwidth cap")
        label = self._labels.setdefault(label, label)
        now = self.loop.clock._now
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
            network=self,
        )
        self._next_flow_id += 1
        self._active[flow.flow_id] = flow
        self._by_host.setdefault(nic.host_id, {})[flow.flow_id] = flow
        self._by_proxy.setdefault(proxy_id, {})[flow.flow_id] = flow
        if len(self._active) > self._peak_active:
            self._peak_active = len(self._active)
        self._transition(nic.host_id, proxy_id)
        return flow

    def cancel(self, flow: Flow) -> bool:
        """Abandon an in-flight transfer (the first-d straggler path).

        Settles its partial progress into the trace, releases its NIC and
        uplink shares (speeding up the surviving flows), and settles the
        flow as cancelled unless :meth:`Flow.cancel` is what called here.
        """
        if flow.flow_id not in self._active:
            return False
        now = self.loop.clock._now
        self._settle_flow(flow, now)
        self._retire(flow, now, completed=False)
        if not flow._done:
            # Settling the flow can resume the abandoning process, which may
            # tear down sibling transfers in turn (see ``_dirty_hosts``).
            SimFuture.cancel(flow)
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
            # The clamp as a comparison: ``max(0.0, x)`` for any x, ±0.0 and NaN included.
            remaining = flow.remaining - flow.rate_bps * elapsed
            flow.remaining = remaining if remaining > 0.0 else 0.0
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
        uplink_bps = self.fabric.proxy_uplink_bps
        for proxy_id in self._dirty_proxies:
            group = by_proxy.get(proxy_id)
            if group is None:
                continue
            # ``NetworkFabric.proxy_share`` inlined: a live group is non-empty.
            share = uplink_bps / len(group)
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
        now = self.loop.clock._now
        flows = self._affected_flows()
        self._dirty_hosts.clear()
        self._dirty_proxies.clear()
        by_proxy = self._by_proxy
        bounds = self._uplink_bound
        uplink_bps = self.fabric.proxy_uplink_bps
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
            # the uplink differs from the previous flow's (inlined as above).
            if flow.proxy_id != uplink:
                uplink = flow.proxy_id
                share = uplink_bps / len(by_proxy[uplink])
                bound = bounds.get(uplink, 0.0)
            if rate > bound:
                bound = bounds[uplink] = rate
            if share < rate:
                rate = share
            if flow._completion is not None and rate == flow.rate_bps:
                continue
            # ``_settle_flow`` inlined, with the same expressions.
            elapsed = now - flow.last_progress_at
            if elapsed > 0 and flow.rate_bps > 0:
                remaining = flow.remaining - flow.rate_bps * elapsed
                flow.remaining = remaining if remaining > 0.0 else 0.0
            flow.last_progress_at = now
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
            flow._completion = self.loop.schedule_deadline(finish, flow, "flow.finish")
        else:
            timer.set_deadline(finish)

    def _complete(self, flow: Flow) -> None:
        if flow.flow_id not in self._active:
            return
        now = self.loop.clock._now
        self._settle_flow(flow, now)
        self._retire(flow, now, completed=True)
        # Resolving the future synchronously resumes the waiting fetch — a
        # satisfied first-d-of-n quorum then cancels its straggler siblings
        # and the client may start its next transfer, all at this instant
        # and each with a transition of its own (see ``_dirty_hosts``).
        # Resolved with nothing: the flow as its own result would be a
        # reference cycle per transfer, and no waiter reads the value.
        flow.resolve()
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
            moved = flow.bytes_moved
            self.completed_flows += 1
            self.bytes_completed += moved
        else:
            moved = flow.bytes_moved
            self.abandoned_flows += 1
            self.bytes_abandoned += moved
        trace = self._trace
        if self._trace_shared:
            trace = self._trace = trace[:]
            self._trace_shared = False
        trace._append(
            flow.flow_id, flow.label, flow.nic.host_id, flow.proxy_id,
            int(flow.size_bytes), flow.started_at, now, completed, moved,
        )
        limit = self.trace_limit
        if limit is not None and len(trace) > 2 * limit:
            # One O(trace_limit) shift per ``trace_limit + 1`` evictions.
            trace._drop_oldest(len(trace) - limit)
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
                bytes=moved,
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
        flow._completion = self.loop.schedule_at(finish, flow, "flow.finish")


def resolve_arbiter(name: str) -> type[FlowNetwork]:
    """Map an ``InfiniCacheConfig.flow_arbiter`` name to an arbiter class."""
    if name == "incremental":
        return FlowNetwork
    if name == "reference":
        return ReferenceFlowNetwork
    raise SimulationError(
        f"unknown flow arbiter {name!r} (expected one of {ARBITER_NAMES})"
    )

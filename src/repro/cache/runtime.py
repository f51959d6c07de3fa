"""Shared context for the event-driven (process-based) request path.

A :class:`RequestEnv` bundles what a request coroutine needs to run on the
discrete-event engine: the :class:`~repro.sim.loop.EventLoop`, the
:class:`~repro.network.flows.FlowNetwork` its chunk transfers share, and the
billing-session watchdog that closes a node's anticipatory billed-duration
window *by a scheduled event* when it expires — instead of lazily on the
node's next touch, which is how the synchronous facade does it.

The watchdog also honours the paper's "the PONG handshake delays the
timeout": while a node has transfers in flight (tracked through
:meth:`RequestEnv.begin_transfer` / :meth:`RequestEnv.end_transfer`), an
expiring window is *extended* by a billing cycle instead of closed, so a
session is never billed out from under a running transfer only to be
reopened in the past when that transfer completes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faas.billing import BILLING_CYCLE_SECONDS
from repro.network.flows import FlowNetwork
from repro.obs.tracer import NULL_TRACER
from repro.sim.loop import DeadlineTimer, EventLoop

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (node -> platform -> ...)
    from repro.cache.node import LambdaCacheNode


class RequestEnv:
    """Event-loop, flow network, and session watchdog for request coroutines."""

    def __init__(self, loop: EventLoop, flows: FlowNetwork, tracer=None):
        self.loop = loop
        #: The loop's clock, so :attr:`now` (read several times per chunk
        #: transfer) is one attribute hop.
        self._clock = loop.clock
        self.flows = flows
        #: The request-path tracer; :data:`~repro.obs.tracer.NULL_TRACER`
        #: (every call a no-op) unless a run attaches a real one via
        #: :meth:`attach_tracer`.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: node_id -> lazy close timer, reused across that node's sessions.
        #: Window *extensions* (every request on a busy node) are plain
        #: deadline-field writes instead of cancel+reschedule heap churn.
        self._session_watches: dict[str, DeadlineTimer] = {}
        #: node_id -> number of chunk transfers currently in flight.
        self._inflight: dict[str, int] = {}
        #: node_id -> (session object, its open span); tracing only.
        self._session_spans: dict[str, tuple[object, object]] = {}

    def attach_tracer(self, tracer) -> None:
        """Enable tracing on this env *and* its flow network."""
        self.tracer = tracer
        self.flows.tracer = tracer

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._clock._now

    # ------------------------------------------------------------------ in-flight tracking
    def begin_transfer(self, node: "LambdaCacheNode") -> None:
        """Mark a chunk transfer as in flight on ``node`` (keep-alive signal)."""
        self._inflight[node.node_id] = self._inflight.get(node.node_id, 0) + 1

    def end_transfer(self, node: "LambdaCacheNode") -> None:
        """Mark a chunk transfer as finished (or abandoned) on ``node``."""
        remaining = self._inflight.get(node.node_id, 0) - 1
        if remaining > 0:
            self._inflight[node.node_id] = remaining
        else:
            self._inflight.pop(node.node_id, None)

    def keep_alive(self, node: "LambdaCacheNode") -> bool:
        """Whether in-flight transfers must keep the node's session open.

        While this holds, an expiring billing window is extended by one
        cycle (the PONG handshake "delays the timeout" in the paper) so the
        session outlives every transfer it is serving.
        """
        if not self._inflight.get(node.node_id):
            return False
        session = node.duration_controller.current
        if session is None:
            return False
        # Align to the end of the *next* billing cycle, strictly in the
        # future — float floor-division can land exactly on `now` (e.g.
        # 0.5 // 0.1 == 4.0), which would re-arm the watchdog at the
        # current instant forever.
        end = (int(self.loop.now // BILLING_CYCLE_SECONDS) + 1) * BILLING_CYCLE_SECONDS
        while end <= self.loop.now + 1e-9:
            end += BILLING_CYCLE_SECONDS
        session.window_end = max(session.window_end, end)
        return True

    # ------------------------------------------------------------------ session close
    def watch_session(self, node: "LambdaCacheNode") -> None:
        """Arm (or re-aim) the close event for a node's open billed session.

        Called after every operation that may open or extend the node's
        billing window.  When the window later expires the event closes the
        session through the normal ``expire_if_due`` path; if the window was
        extended in the meantime the event re-aims itself at the new end.
        """
        if self.tracer.enabled:
            self._trace_session(node)
        session = node.duration_controller.current
        if session is None:
            return
        timer = self._session_watches.get(node.node_id)
        if timer is None:
            self._session_watches[node.node_id] = self.loop.schedule_deadline(
                session.window_end,
                lambda: self._session_check(node),
                label=f"billing.session_close:{node.node_id}",
            )
        elif not timer.active or session.window_end > timer.deadline:
            # A deadline already at-or-past the window end is left alone (the
            # check re-aims itself if the window grows); only a *later*
            # window end moves it — a field write on the lazy timer.
            timer.set_deadline(session.window_end)

    def _session_check(self, node: "LambdaCacheNode") -> None:
        controller = node.duration_controller
        timer = self._session_watches[node.node_id]
        session = controller.current
        now = self.loop.now
        if session is not None and session.window_end > now:
            # The window moved past the armed deadline without a
            # ``watch_session`` call (an in-check keep-alive extension);
            # nothing is due yet — re-aim, with no billing side effects,
            # exactly as the eager idiom's cancel+reschedule had none.
            timer.set_deadline(session.window_end)
            return
        if self.keep_alive(node):
            # Transfers still in flight: the window was just extended; the
            # session must not be billed out from under a running request.
            timer.set_deadline(controller.current.window_end)
            return
        controller.expire_if_due(now)
        if self.tracer.enabled:
            self._trace_session(node)
        session = controller.current
        if session is not None and session.window_end > now:
            # The window was extended after this event was armed; re-aim.
            timer.set_deadline(session.window_end)

    def _trace_session(self, node: "LambdaCacheNode") -> None:
        """Keep one open ``lambda.session`` span per open billed session.

        A session that was replaced without passing through the watchdog (a
        lazy close on the node's next touch) has its span closed at the old
        window end, which is when the billing layer deems it to have ended.
        """
        session = node.duration_controller.current
        tracked = self._session_spans.get(node.node_id)
        if tracked is not None:
            old_session, old_span = tracked
            if old_session is session:
                return
            old_span.end = min(old_session.window_end, self.loop.now)
            del self._session_spans[node.node_id]
        if session is None:
            return
        span = self.tracer.begin_at(
            "lambda.session", session.started_at, node=node.node_id
        )
        self._session_spans[node.node_id] = (session, span)

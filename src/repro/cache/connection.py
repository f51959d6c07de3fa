"""Per-node health gate between a proxy and its Lambda nodes.

Figures 6 and 7 of the paper define the control protocol between a proxy
and a Lambda runtime: a lazy PING/PONG preflight before each request, BYE
at the end of a billing window, and a ``Maybe`` state during backup.  What
that protocol does *to a request* — a 1 ms preflight inside an open billing
window, the invocation overhead outside one, the cold-start penalty when no
replica exists — is :class:`repro.cache.node.NodeAccess`, returned by
``LambdaCacheNode.ensure_active``; the message-level state machines are not
modelled, because nothing in the reproduction reads them.  Data transfer
timing lives in :mod:`repro.network.transfer`.

:class:`CircuitBreaker` is the one piece of per-connection state the
request path does consult: a per-node health gate the chunk supervisor
checks before issuing a chunk transfer, so a node that keeps failing is
skipped for a cool-down instead of burning the retry budget of every
request that maps onto it.
"""

from __future__ import annotations

import enum

#: Consecutive failures that trip a closed breaker.
FAILURE_THRESHOLD = 3
#: Virtual seconds an open breaker refuses requests before its probe.
RESET_TIMEOUT_S = 15.0


class BreakerState(enum.Enum):
    """Circuit-breaker states (classic closed / open / half-open)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-node failure gate over simulated time.

    * **CLOSED** — requests flow; :data:`FAILURE_THRESHOLD` *consecutive*
      failures trip the breaker.
    * **OPEN** — :meth:`allow` refuses until :data:`RESET_TIMEOUT_S` of
      virtual time has passed since the trip.
    * **HALF_OPEN** — one probe request is let through; success re-closes
      the breaker, failure re-opens it for another full timeout.

    Purely a state machine on the caller-supplied clock: it schedules no
    events and draws no randomness, so attaching one to every node perturbs
    nothing when no faults ever trip it.
    """

    __slots__ = ("state", "failures", "opened_at", "trips")

    def __init__(self) -> None:
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.trips = 0

    def allow(self, now: float) -> bool:
        """Whether a request may be issued at virtual time ``now``."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= RESET_TIMEOUT_S:
                self.state = BreakerState.HALF_OPEN
                return True
            return False
        # HALF_OPEN: the single probe in flight decides; further requests
        # arriving before it settles are refused.
        return False

    def record_success(self, now: float) -> None:
        """A request completed: reset the failure streak, close the breaker."""
        self.failures = 0
        self.state = BreakerState.CLOSED

    def record_failure(self, now: float) -> None:
        """A request failed: advance the streak, trip or re-open the breaker."""
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.trips += 1
            return
        self.failures += 1
        if self.failures >= FAILURE_THRESHOLD:
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.failures = 0
            self.trips += 1

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.state.value}, trips={self.trips})"

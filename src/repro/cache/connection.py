"""Connection state machines between a proxy and its Lambda nodes.

Figures 6 and 7 of the paper define two coupled state machines:

* the **proxy side** tracks each Lambda connection as
  ``(Sleeping | Active | Maybe) x (Unvalidated | Validating | Validated)``;
  a request can only be issued on a Validated connection, and validation is
  performed lazily with a PING/PONG preflight each time a request is about
  to be sent;
* the **Lambda side** moves between ``Sleeping``, ``Active-Idling`` and
  ``Active-Serving``; it answers PINGs with PONGs (delaying its billed
  timeout), serves requests, and sends BYE before returning at the end of a
  billing window.

The ``Maybe`` state exists only during the backup protocol, when the proxy's
connection to the source replica has been replaced by a connection to the
destination replica and a late "return" from the source must be ignored.

These classes model the *control protocol*: which messages flow and what
overhead they add to a request.  Data transfer timing lives in
:mod:`repro.network.transfer`.  :class:`CircuitBreaker` sits alongside them:
a per-node health gate the chunk supervisor consults before issuing a
chunk transfer, so a node that keeps failing is skipped for a cool-down
instead of burning the retry budget of every request that maps onto it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, ConnectionClosedError


class BreakerState(enum.Enum):
    """Circuit-breaker states (classic closed / open / half-open)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-node failure gate over simulated time.

    * **CLOSED** — requests flow; ``failure_threshold`` *consecutive*
      failures trip the breaker.
    * **OPEN** — :meth:`allow` refuses until ``reset_timeout_s`` of virtual
      time has passed since the trip.
    * **HALF_OPEN** — one probe request is let through; success re-closes
      the breaker, failure re-opens it for another full timeout.

    Purely a state machine on the caller-supplied clock: it schedules no
    events and draws no randomness, so attaching one to every node perturbs
    nothing when no faults ever trip it.
    """

    __slots__ = ("failure_threshold", "reset_timeout_s", "state", "failures",
                 "opened_at", "trips")

    def __init__(self, failure_threshold: int = 3, reset_timeout_s: float = 30.0):
        if failure_threshold < 1:
            raise ConfigurationError(
                f"breaker failure threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise ConfigurationError(
                f"breaker reset timeout must be positive, got {reset_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.trips = 0

    def allow(self, now: float) -> bool:
        """Whether a request may be issued at virtual time ``now``."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= self.reset_timeout_s:
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
        if self.failures >= self.failure_threshold:
            self.state = BreakerState.OPEN
            self.opened_at = now
            self.failures = 0
            self.trips += 1

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.state.value}, trips={self.trips})"


class ProxyLinkState(enum.Enum):
    """Coarse proxy-side view of a Lambda connection (Figure 6, rows)."""

    SLEEPING = "sleeping"
    ACTIVE = "active"
    MAYBE = "maybe"


class ValidationState(enum.Enum):
    """Validation sub-state of a proxy-side connection (Figure 6, columns)."""

    UNVALIDATED = "unvalidated"
    VALIDATING = "validating"
    VALIDATED = "validated"


class LambdaNodeState(enum.Enum):
    """Lambda-side runtime states (Figure 7)."""

    SLEEPING = "sleeping"
    ACTIVE_IDLING = "active_idling"
    ACTIVE_SERVING = "active_serving"


@dataclass
class ConnectionStats:
    """Counts of control-plane messages exchanged on one connection."""

    pings: int = 0
    pongs: int = 0
    byes: int = 0
    invocations: int = 0
    requests: int = 0
    unexpected_pongs: int = 0


@dataclass
class ProxyConnection:
    """Proxy-side connection record for one Lambda cache node."""

    node_id: str
    link_state: ProxyLinkState = ProxyLinkState.SLEEPING
    validation: ValidationState = ValidationState.UNVALIDATED
    stats: ConnectionStats = field(default_factory=ConnectionStats)

    # --- proxy-driven transitions (step numbers refer to Figure 6) -----------------
    def begin_invocation(self) -> None:
        """Steps 1-2: a request or warm-up arrives while the node sleeps."""
        self.stats.invocations += 1
        self.validation = ValidationState.VALIDATING

    def pong_received(self) -> None:
        """Steps 3/9: the Lambda answered; the connection is usable."""
        self.stats.pongs += 1
        if self.link_state is ProxyLinkState.MAYBE:
            # During backup the proxy keeps the Maybe state but the pong still
            # validates the (replaced) connection.
            self.validation = ValidationState.VALIDATED
            return
        self.link_state = ProxyLinkState.ACTIVE
        self.validation = ValidationState.VALIDATED

    def unexpected_pong(self) -> None:
        """A pong arrived on a connection the proxy believed replaced (Figure 6, step Λ)."""
        self.stats.unexpected_pongs += 1
        self.link_state = ProxyLinkState.ACTIVE
        self.validation = ValidationState.VALIDATED

    def send_request(self) -> None:
        """Steps 4/10: issue a chunk request; consumes the validation."""
        if self.validation is not ValidationState.VALIDATED:
            raise ConnectionClosedError(
                f"cannot send a request to node {self.node_id} on an unvalidated connection"
            )
        self.stats.requests += 1
        self.validation = ValidationState.UNVALIDATED

    def send_ping(self) -> None:
        """Step 7: lazy re-validation before the next request."""
        self.stats.pings += 1
        self.validation = ValidationState.VALIDATING

    def node_returned(self) -> None:
        """Step 14 / timeouts: the node finished its window or was reclaimed."""
        if self.link_state is ProxyLinkState.MAYBE:
            # Ignored: the source replica of a backup returned after being replaced.
            return
        self.link_state = ProxyLinkState.SLEEPING
        self.validation = ValidationState.UNVALIDATED

    def bye_received(self) -> None:
        """Step 13-14: the node announced it is returning."""
        self.stats.byes += 1
        self.link_state = ProxyLinkState.SLEEPING
        self.validation = ValidationState.UNVALIDATED

    def enter_maybe(self) -> None:
        """Backup step 10: the source connection was replaced by the destination's."""
        self.link_state = ProxyLinkState.MAYBE

    def leave_maybe(self) -> None:
        """Backup finished: fall back to the normal sleeping state."""
        if self.link_state is ProxyLinkState.MAYBE:
            self.link_state = ProxyLinkState.SLEEPING
            self.validation = ValidationState.UNVALIDATED

    @property
    def is_validated(self) -> bool:
        """Whether a request may be sent right now without a preflight."""
        return self.validation is ValidationState.VALIDATED


@dataclass
class LambdaSideConnection:
    """Lambda-runtime-side state machine (Figure 7)."""

    node_id: str
    state: LambdaNodeState = LambdaNodeState.SLEEPING
    stats: ConnectionStats = field(default_factory=ConnectionStats)

    def activate(self) -> None:
        """Invocation (request or warm-up) wakes the runtime; it sends PONG."""
        self.stats.pongs += 1
        self.state = LambdaNodeState.ACTIVE_IDLING

    def ping(self) -> None:
        """A preflight PING while active: hold the timer, answer PONG."""
        if self.state is LambdaNodeState.SLEEPING:
            # A ping can only arrive via an invocation parameter, which also
            # activates the runtime.
            self.activate()
            return
        self.stats.pings += 1
        self.stats.pongs += 1

    def begin_serving(self) -> None:
        """Start serving a chunk request (step 5/11)."""
        if self.state is LambdaNodeState.SLEEPING:
            raise ConnectionClosedError(
                f"node {self.node_id} cannot serve a request while sleeping"
            )
        self.stats.requests += 1
        self.state = LambdaNodeState.ACTIVE_SERVING

    def finish_serving(self) -> None:
        """Finish a chunk request and go back to idling (step 6/12)."""
        if self.state is not LambdaNodeState.ACTIVE_SERVING:
            raise ConnectionClosedError(
                f"node {self.node_id} finished serving but was not serving"
            )
        self.state = LambdaNodeState.ACTIVE_IDLING

    def timeout_and_return(self) -> None:
        """The billed window expired with no further requests: send BYE, sleep."""
        self.stats.byes += 1
        self.state = LambdaNodeState.SLEEPING

    def reclaimed(self) -> None:
        """The provider reclaimed the container (no BYE is ever sent)."""
        self.state = LambdaNodeState.SLEEPING

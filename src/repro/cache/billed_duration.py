"""Anticipatory billed-duration control (paper Section 3.3).

AWS bills Lambda execution in 100 ms cycles.  InfiniCache's runtime therefore
never simply "runs until idle": after serving a request it sets a timer to
expire a couple of milliseconds *before* the current billing cycle ends, and
only extends itself by another cycle when the traffic pattern suggests more
requests are imminent (two or more requests served within the current cycle).

In the simulation the controller tracks, per cache node, the *billed
sessions* this policy produces: a session opens when a request (or warm-up)
arrives while the node is not already active, extends while subsequent
requests keep landing inside the active window, and closes when the window
expires.  Each closed session is handed to the ``on_close`` callback — the
node bills it through the platform's :class:`~repro.faas.billing.BillingModel`,
which reproduces the paper's cost accounting and keeps only running totals —
and the controller keeps nothing of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.exceptions import ConfigurationError
from repro.faas.billing import (
    BILLING_CYCLE_SECONDS,
    UNATTRIBUTED_TENANT,
    attribution_shares,
    ceil_to_billing_cycle,
)
from repro.utils.units import MILLISECOND

#: How long before the end of a billing cycle the runtime returns (the
#: paper's 2-10 ms safety buffer).
BUFFER_S = 5 * MILLISECOND

#: Requests inside the current window before the runtime anticipates more
#: and extends its window by one extra cycle (the paper's "more than one").
EXTENSION_THRESHOLD = 2


@dataclass(slots=True)
class BilledSession:
    """One continuous billed execution window of a cache node."""

    started_at: float
    #: End of the currently granted window (aligned to a billing cycle bound).
    window_end: float
    #: Time actually spent serving requests inside the window.
    busy_seconds: float = 0.0
    requests_served: int = 0
    category: str = "serving"
    #: Busy seconds by the tenant whose request caused them — the chargeback
    #: weights for this session's eventual bill.  One session can serve many
    #: tenants (the anticipatory window keeps the node alive between
    #: requests); tenant-less work accrues under ``UNATTRIBUTED_TENANT``.
    busy_by_tenant: dict[str, float] = field(default_factory=dict)


@dataclass(slots=True)
class SessionCharge:
    """A closed session ready for billing."""

    started_at: float
    duration_s: float
    billed_duration_s: float
    requests_served: int
    category: str
    #: Per-tenant busy-second weights, for splitting the charge (chargeback).
    busy_by_tenant: dict[str, float] = field(default_factory=dict)


class BilledDurationController:
    """Tracks anticipatory billed sessions for one cache node.

    Args:
        on_close: callback invoked with a :class:`SessionCharge` whenever a
            session closes; the deployment wires this to the billing model.
            The controller holds only the open session: a closed one lives
            as long as the callback keeps it.
    """

    def __init__(self, on_close: Optional[Callable[[SessionCharge], None]] = None):
        self.on_close = on_close
        self.current: Optional[BilledSession] = None

    # --- internals ---------------------------------------------------------------
    def _close_current(self) -> None:
        session = self.current
        if session is None:
            return
        # The wall-clock span minus the safety buffer the runtime returns
        # early by.  Busy time pushed into the window beyond what fits (e.g.
        # concurrent transfers through one node) does not lengthen it: the
        # node cannot be billed for longer than its session existed.
        duration = session.window_end - session.started_at - BUFFER_S
        charge = SessionCharge(
            session.started_at,
            duration,
            ceil_to_billing_cycle(duration),
            session.requests_served,
            session.category,
            session.busy_by_tenant,  # handed over: the session is dropped
        )
        if self.on_close is not None:
            self.on_close(charge)
        self.current = None

    # --- public API ----------------------------------------------------------------
    def is_active(self, now: float) -> bool:
        """Whether the node is inside a granted execution window at ``now``."""
        return self.current is not None and now < self.current.window_end

    def record_request(
        self,
        now: float,
        service_time_s: float,
        category: str = "serving",
        attribution: dict[str, float] | str | None = None,
    ) -> bool:
        """Account for one request arriving at ``now`` and taking ``service_time_s``.

        Args:
            attribution: who to charge the busy time to — a tenant id, or a
                dict of relative per-tenant weights over which the busy time
                is split (maintenance work touching many tenants' chunks).
                ``None`` charges ``UNATTRIBUTED_TENANT``.

        Returns:
            ``True`` if the request found the node already active (no
            invocation needed), ``False`` if a new session (invocation) was
            opened for it.
        """
        if not 0.0 <= service_time_s < math.inf:
            raise ConfigurationError(
                f"service time must be finite and non-negative, got {service_time_s}"
            )
        session = self.current
        was_active = session is not None and now < session.window_end
        if not was_active:
            self._close_current()
            session = self.current = BilledSession(
                now, now + BILLING_CYCLE_SECONDS, category=category
            )
        elif category == "serving":
            # A mixed window (warm-up then real traffic) is billed under the
            # busier category; serving dominates warm-up in the paper's model.
            session.category = "serving"
        session.requests_served += 1
        session.busy_seconds += service_time_s
        busy = session.busy_by_tenant
        if attribution is None or isinstance(attribution, str):
            # One owner takes the whole busy time (share 1.0, exactly).
            tenant = UNATTRIBUTED_TENANT if attribution is None else attribution
            busy[tenant] = busy.get(tenant, 0.0) + service_time_s
        else:
            for tenant, share in attribution_shares(attribution).items():
                busy[tenant] = busy.get(tenant, 0.0) + service_time_s * share
        # Always extend the window far enough to cover the request itself
        # (the PONG handshake "delays the timeout" in the paper), aligned to
        # the end of the billing cycle that contains the finish time.
        cycles = int((now + service_time_s) // BILLING_CYCLE_SECONDS) + 1
        window_end = cycles * BILLING_CYCLE_SECONDS
        # Anticipation: if the window has already served enough requests,
        # extend it by one more billing cycle beyond the current request,
        # expecting further traffic (the paper's "extend the timeout by one
        # more billing cycle").  The extension is relative to the request's
        # own cycle, so bursts do not stack extensions indefinitely.
        if session.requests_served >= EXTENSION_THRESHOLD:
            window_end += BILLING_CYCLE_SECONDS
        if window_end > session.window_end:
            session.window_end = window_end
        return was_active

    def expire_if_due(self, now: float) -> None:
        """Close the current session if its window has ended by ``now``."""
        if self.current is not None and now >= self.current.window_end:
            self._close_current()

    def flush(self) -> None:
        """Force-close any open session (end of simulation)."""
        self._close_current()

"""Lambda billing model: per-invocation fee plus 100 ms-rounded GB-seconds.

The paper's cost analysis (Section 4.3) and Figure 13/17 reproductions all
rest on this arithmetic, so it lives in one audited module.  Prices are the
ones quoted in the paper:

* $0.02 per 1 million invocations — i.e. $0.00000002 per request (the paper's
  rounding; the 2020 list price was $0.20/M, but we reproduce the paper's
  stated figure so its cost results are comparable);
* $0.0000166667 per GB-second of configured memory, with the duration of each
  invocation rounded *up* to the nearest 100 ms billing cycle;
* function start-up (cold start) time is not billed.

Every charge is priced and validated in :meth:`BillingModel.charge_invocation`,
the per-request path: one invocation, optionally split over tenants.
:meth:`BillingModel.charge_invocations` books a run of identical
unattributed invocations (a warm-up round of one memory size): one such
charge, then the same left-to-right additions for the rest, so its ledgers
are bit-equal to the loop of single charges it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add
from typing import NamedTuple

from repro.exceptions import ConfigurationError
from repro.utils.units import GIB

#: Billing cycle granularity in seconds (100 ms).
BILLING_CYCLE_SECONDS = 0.1

#: Chargeback label for work no tenant caused: single-tenant deployments,
#: maintenance on empty nodes, and any key outside a tenant namespace.  The
#: label contains the tenant/key separator, so it can never collide with a
#: registered tenant id.
UNATTRIBUTED_TENANT = "::cluster::"

#: Dollars per invocation, and per GB-second of configured memory.
PRICE_PER_INVOCATION = 0.02 / 1_000_000
PRICE_PER_GB_SECOND = 0.0000166667


def ceil_to_billing_cycle(duration_s: float) -> float:
    """Round a duration up to the nearest 100 ms billing cycle.

    Zero-duration invocations are still billed for one cycle, matching AWS
    behaviour and the paper's ``ceil100`` operator.  Negative, NaN and
    infinite durations raise :class:`ConfigurationError`.
    """
    scaled = duration_s / BILLING_CYCLE_SECONDS
    if not 0.0 <= scaled < math.inf:  # also false for NaN
        raise ConfigurationError(
            f"duration must be finite and non-negative, got {duration_s}"
        )
    # ``or 1``: ``scaled`` is >= 0, so the only count below one is zero.
    cycles = math.ceil(round(scaled, 9)) or 1
    return cycles * BILLING_CYCLE_SECONDS


def attribution_shares(attribution: dict[str, float] | None) -> dict[str, float]:
    """Normalise chargeback weights into per-tenant shares that sum to 1.

    Non-positive (and NaN) weights are dropped; omitted, empty, or zero-sum
    weights fall back to :data:`UNATTRIBUTED_TENANT`.  This is the single
    definition of the fallback policy — the billed-session layer splits busy
    time with the same rules, which is what keeps session-level attribution
    and invocation-level billing conserving the same totals.

    Raises:
        ConfigurationError: when a weight is ``+inf`` or the weights overflow
            to it — the shares would come out NaN or all zero and the
            per-tenant ledgers would stop summing to the bill.
    """
    if attribution:
        weights = {t: w for t, w in attribution.items() if w > 0.0}
        total = sum(weights.values())
        if total > 0.0:
            if total == math.inf:
                raise ConfigurationError(
                    f"attribution weights must be finite, got {attribution}"
                )
            return {tenant: weight / total for tenant, weight in weights.items()}
    return {UNATTRIBUTED_TENANT: 1.0}


class InvocationCharge(NamedTuple):
    """The cost breakdown of a single billed invocation."""

    invocation_fee: float
    duration_fee: float
    billed_duration_s: float

    @property
    def total(self) -> float:
        """Total dollars charged for this invocation."""
        return self.invocation_fee + self.duration_fee


@dataclass
class BillingModel:
    """Accumulates charges for the account across many invocations.

    Charges can be tagged with a free-form category (``"serving"``,
    ``"warmup"``, ``"backup"``) so experiments can reproduce the cost
    breakdowns of Figure 13 without re-deriving them, and with a per-tenant
    *attribution* — relative weights (busy seconds, bytes synced) naming
    which tenants caused the invocation.  Each charge's dollars and
    GB-seconds are split pro-rata over those weights, so the per-tenant
    ledgers always sum to the account-wide bill (chargeback conservation).
    Unweighted work lands under :data:`UNATTRIBUTED_TENANT`.
    """

    total_invocations: int = 0
    total_billed_seconds: float = 0.0
    total_gb_seconds: float = 0.0
    total_cost: float = 0.0
    cost_by_category: dict[str, float] = field(default_factory=dict)
    cost_by_tenant: dict[str, float] = field(default_factory=dict)
    gb_seconds_by_tenant: dict[str, float] = field(default_factory=dict)
    invocation_share_by_tenant: dict[str, float] = field(default_factory=dict)

    def charge_invocation(
        self,
        memory_bytes: int,
        duration_s: float,
        category: str = "serving",
        attribution: dict[str, float] | None = None,
    ) -> InvocationCharge:
        """Charge one invocation of a function with the given memory size.

        Args:
            memory_bytes: the function's *configured* memory (AWS bills the
                configured amount, not the used amount).
            duration_s: the execution duration to bill (cold-start time must
                be excluded by the caller; the platform does this).
            category: accounting bucket for cost breakdowns.
            attribution: relative per-tenant weights for chargeback; omitted,
                empty, or zero-sum weights charge the whole invocation to
                :data:`UNATTRIBUTED_TENANT`.

        Raises:
            ConfigurationError: on non-positive memory, a negative or
                non-finite duration, or infinite weights; nothing is booked.
        """
        if memory_bytes <= 0:
            raise ConfigurationError(f"memory must be positive, got {memory_bytes}")
        billed = ceil_to_billing_cycle(duration_s)
        memory_gb = memory_bytes / GIB
        invocation_fee = PRICE_PER_INVOCATION
        duration_fee = billed * memory_gb * PRICE_PER_GB_SECOND
        total = invocation_fee + duration_fee
        # Everything that can raise has by now: a rejected charge books nothing.
        shares = attribution_shares(attribution) if attribution else None
        self.total_invocations += 1
        self.total_billed_seconds += billed
        self.total_gb_seconds += billed * memory_gb
        self.total_cost += total
        by_category = self.cost_by_category
        by_category[category] = by_category.get(category, 0.0) + total
        cost, gb_seconds = self.cost_by_tenant, self.gb_seconds_by_tenant
        invocations = self.invocation_share_by_tenant
        if shares is None:
            # No weights: ``attribution_shares`` would say "UNATTRIBUTED_TENANT
            # at share 1.0", and ``1.0 * x`` is exact, so neither is computed.
            tenant = UNATTRIBUTED_TENANT
            cost[tenant] = cost.get(tenant, 0.0) + total
            gb_seconds[tenant] = gb_seconds.get(tenant, 0.0) + billed * memory_gb
            invocations[tenant] = invocations.get(tenant, 0.0) + 1.0
        else:
            for tenant, share in shares.items():
                # Left-associated, as ever: the per-tenant sums are fingerprinted.
                cost[tenant] = cost.get(tenant, 0.0) + share * total
                gb_seconds[tenant] = (
                    gb_seconds.get(tenant, 0.0) + share * billed * memory_gb
                )
                invocations[tenant] = invocations.get(tenant, 0.0) + share
        return InvocationCharge(invocation_fee, duration_fee, billed)

    def charge_invocations(
        self, memory_bytes: int, duration_s: float, count: int, category: str
    ) -> None:
        """Charge ``count`` identical unattributed invocations in one call.

        The ledgers come out bit-equal to ``count`` calls of
        ``charge_invocation(memory_bytes, duration_s, category)``.  The first
        is one such call: it validates, prices, and inserts the ledger keys.
        The other ``count - 1`` repeat its additions on every accumulator,
        left to right (``reduce`` over ``add``, never a product or a
        compensated ``sum``).

        Raises:
            ConfigurationError: on a count below one, or whatever
                :meth:`charge_invocation` rejects; nothing is booked.
        """
        if count < 1:
            raise ConfigurationError(f"invocation count must be positive, got {count}")
        charge = self.charge_invocation(memory_bytes, duration_s, category)
        rest = count - 1
        billed, total = charge.billed_duration_s, charge.total
        gb_second = billed * (memory_bytes / GIB)
        tenant = UNATTRIBUTED_TENANT
        by_category, cost = self.cost_by_category, self.cost_by_tenant
        gb_seconds = self.gb_seconds_by_tenant
        invocations = self.invocation_share_by_tenant
        self.total_invocations += rest
        self.total_billed_seconds = reduce(add, repeat(billed, rest), self.total_billed_seconds)
        self.total_gb_seconds = reduce(add, repeat(gb_second, rest), self.total_gb_seconds)
        self.total_cost = reduce(add, repeat(total, rest), self.total_cost)
        by_category[category] = reduce(add, repeat(total, rest), by_category[category])
        cost[tenant] = reduce(add, repeat(total, rest), cost[tenant])
        gb_seconds[tenant] = reduce(add, repeat(gb_second, rest), gb_seconds[tenant])
        invocations[tenant] = reduce(add, repeat(1.0, rest), invocations[tenant])

    def breakdown(self) -> dict[str, float]:
        """Cost per category plus the total."""
        result = dict(sorted(self.cost_by_category.items()))
        result["total"] = self.total_cost
        return result

    def tenant_breakdown(self) -> dict[str, dict[str, float]]:
        """Per-tenant chargeback ledger: dollars, GB-seconds, invocation share.

        The rows (including the :data:`UNATTRIBUTED_TENANT` row) sum to the
        account totals within floating-point tolerance.
        """
        rows: dict[str, dict[str, float]] = {}
        for tenant in sorted(self.cost_by_tenant):
            rows[tenant] = {
                "cost": self.cost_by_tenant[tenant],
                "gb_seconds": self.gb_seconds_by_tenant.get(tenant, 0.0),
                "invocations": self.invocation_share_by_tenant.get(tenant, 0.0),
            }
        return rows

    def publish_metrics(self, registry) -> None:
        """Export the ledgers as labelled gauges on a ``MetricRegistry``.

        Categories and tenants become label values (``billing_cost_dollars
        {category="serving"}``, ``billing_tenant_cost_dollars{tenant="a"}``),
        so one Prometheus scrape of the registry carries the same breakdowns
        as :meth:`breakdown` / :meth:`tenant_breakdown`.  Idempotent: gauges
        are overwritten, so republishing after more charges is safe.
        """
        registry.gauge("billing_invocations_total").set(float(self.total_invocations))
        registry.gauge("billing_billed_seconds_total").set(self.total_billed_seconds)
        registry.gauge("billing_gb_seconds_total").set(self.total_gb_seconds)
        registry.gauge("billing_cost_dollars_total").set(self.total_cost)
        for category, cost in self.cost_by_category.items():
            registry.gauge("billing_cost_dollars", {"category": category}).set(cost)
        for tenant, cost in self.cost_by_tenant.items():
            registry.gauge("billing_tenant_cost_dollars", {"tenant": tenant}).set(cost)
        for tenant, gb_seconds in self.gb_seconds_by_tenant.items():
            registry.gauge("billing_tenant_gb_seconds", {"tenant": tenant}).set(gb_seconds)

    def reset(self) -> None:
        """Clear all accumulated charges (used between experiment phases)."""
        self.total_invocations = 0
        self.total_billed_seconds = 0.0
        self.total_gb_seconds = 0.0
        self.total_cost = 0.0
        self.cost_by_category.clear()
        self.cost_by_tenant.clear()
        self.gb_seconds_by_tenant.clear()
        self.invocation_share_by_tenant.clear()

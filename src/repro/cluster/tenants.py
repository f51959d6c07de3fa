"""Multi-tenant namespaces, quotas, and per-tenant accounting.

A production cluster serves many applications from one Lambda pool; the
paper's evaluation (and the seed reproduction) shares everything through a
single anonymous client.  This module adds the isolation layer:

* every tenant owns a **namespace** — its keys are stored under
  ``tenant_id::key``, so tenants can never collide on or read each other's
  objects;
* a tenant may carry a :class:`TenantQuota` — a byte cap on what it may keep
  cached and a token-bucket request-rate cap — enforced *before* the request
  reaches the consistent-hash ring;
* per-tenant counters (gets/puts/hits/misses/throttles/rejections) and
  bytes-stored gauges are recorded in the shared
  :class:`~repro.obs.metrics.MetricRegistry` under ``tenant.<id>.*``.

Byte accounting is **parity-inclusive**: a tenant's quota is charged for the
``(d+p)/d`` stripe bytes the pool actually stores for it, not just the
logical object bytes (which are kept as a separate gauge).  Usage is
reconciled against the cache's own behaviour: CLOCK evictions,
invalidations, and reclamation-induced object losses all flow back through
:meth:`TenantManager.record_gone`, so a tenant's usage never drifts from
what the pool actually holds for it.

Chargeback: the billing pipeline tags every Lambda invocation with the
tenants whose traffic caused it (see
:meth:`~repro.faas.billing.BillingModel.charge_invocation`);
:meth:`TenantManager.chargeback` folds that ledger into per-tenant rows —
GB-seconds, dollars, and share of the bill — whose totals sum to the
cluster-wide bill by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.namespacing import (  # noqa: F401  (re-exported public API)
    NAMESPACE_SEPARATOR,
    namespace_key,
    split_namespaced_key,
)
from repro.exceptions import (
    ConfigurationError,
    QuotaExceededError,
    RateLimitedError,
    TenantError,
)
from repro.faas.billing import UNATTRIBUTED_TENANT, BillingModel
from repro.obs.metrics import MetricRegistry


def validate_app_key(key: str) -> str:
    """Reject application keys that could be misread as namespaced keys.

    An app key containing :data:`NAMESPACE_SEPARATOR` would make
    :func:`split_namespaced_key` attribute the stored object (and its bill)
    to whatever precedes the separator, so the separator is reserved at
    request time just as it is in tenant ids at registration time.
    """
    if not key:
        raise TenantError("application key must be non-empty")
    if NAMESPACE_SEPARATOR in key:
        raise TenantError(
            f"application key {key!r} may not contain {NAMESPACE_SEPARATOR!r}"
        )
    return key


@dataclass(frozen=True)
class TenantQuota:
    """Resource limits for one tenant; ``None`` leaves a dimension unlimited."""

    #: Cap on the *stored* (parity-inclusive) bytes the tenant may keep
    #: cached at once — what its objects actually occupy in the Lambda pool.
    max_bytes: Optional[int] = None
    #: Sustained request rate (GETs + PUTs per second, token-bucket refill).
    max_requests_per_s: Optional[float] = None
    #: Bucket depth; defaults to two seconds' worth of the sustained rate.
    burst_requests: Optional[float] = None

    def __post_init__(self):
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise ConfigurationError("max_bytes must be positive when set")
        if self.max_requests_per_s is not None and self.max_requests_per_s <= 0:
            raise ConfigurationError("max_requests_per_s must be positive when set")
        if self.burst_requests is not None:
            if self.max_requests_per_s is None:
                raise ConfigurationError("burst_requests requires max_requests_per_s")
            if self.burst_requests < 1:
                raise ConfigurationError("burst_requests must be at least 1")

    @property
    def burst(self) -> float:
        """Effective token-bucket depth."""
        if self.max_requests_per_s is None:
            return float("inf")
        if self.burst_requests is not None:
            return self.burst_requests
        return max(1.0, 2.0 * self.max_requests_per_s)


class _TokenBucket:
    """A standard token bucket over the simulation clock."""

    def __init__(self, rate: float, burst: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last_refill = 0.0

    def allow(self, now: float) -> bool:
        if now > self.last_refill:
            self.tokens = min(self.burst, self.tokens + (now - self.last_refill) * self.rate)
            self.last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class _ObjectUsage:
    """What one cached object costs its tenant's byte accounting."""

    logical_bytes: int
    stored_bytes: int


class Tenant:
    """One tenant's quota state and live usage."""

    def __init__(self, tenant_id: str, quota: TenantQuota):
        self.tenant_id = tenant_id
        self.quota = quota
        #: namespaced key -> (logical, stored) bytes currently cached.
        self.objects: dict[str, _ObjectUsage] = {}
        #: Parity-inclusive bytes the pool stores for this tenant (the quota
        #: basis).
        self.bytes_stored = 0
        #: Logical object bytes, before erasure-coding overhead.
        self.logical_bytes = 0
        self.bucket: Optional[_TokenBucket] = None
        if quota.max_requests_per_s is not None:
            self.bucket = _TokenBucket(quota.max_requests_per_s, quota.burst)

    def __repr__(self) -> str:
        return (
            f"Tenant({self.tenant_id!r}, objects={len(self.objects)}, "
            f"stored_bytes={self.bytes_stored})"
        )


class TenantManager:
    """Registry of tenants plus quota enforcement and usage accounting."""

    def __init__(self, metrics: MetricRegistry | None = None):
        self.metrics = metrics or MetricRegistry()
        self._tenants: dict[str, Tenant] = {}

    # ------------------------------------------------------------------ registry
    def register(self, tenant_id: str, quota: TenantQuota | None = None) -> Tenant:
        """Create a tenant; identifiers must be unique and separator-free."""
        if not tenant_id:
            raise TenantError("tenant id must be non-empty")
        if NAMESPACE_SEPARATOR in tenant_id:
            raise TenantError(
                f"tenant id {tenant_id!r} may not contain {NAMESPACE_SEPARATOR!r}"
            )
        if tenant_id in self._tenants:
            raise TenantError(f"tenant {tenant_id!r} is already registered")
        tenant = Tenant(tenant_id, quota or TenantQuota())
        self._tenants[tenant_id] = tenant
        return tenant

    def tenant(self, tenant_id: str) -> Tenant:
        """Look up a registered tenant."""
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise TenantError(f"tenant {tenant_id!r} is not registered")
        return tenant

    def tenant_ids(self) -> list[str]:
        """Identifiers of every registered tenant, sorted."""
        return sorted(self._tenants)

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants

    # ------------------------------------------------------------------ enforcement
    def authorize_request(self, tenant: Tenant, now: float) -> None:
        """Charge one request against the tenant's rate quota.

        Raises:
            RateLimitedError: when the token bucket is empty.
        """
        if tenant.bucket is not None and not tenant.bucket.allow(now):
            self._counter(tenant, "throttled").increment()
            raise RateLimitedError(tenant.tenant_id, tenant.quota.max_requests_per_s)

    def authorize_put(self, tenant: Tenant, namespaced: str, stored_size: int) -> None:
        """Check that storing ``stored_size`` (parity-inclusive) bytes would
        not breach the byte quota.

        Overwrites only charge the delta: the existing object's stored bytes
        are credited back before the check.

        Raises:
            QuotaExceededError: when the projected usage exceeds the cap.
        """
        if tenant.quota.max_bytes is None:
            return
        existing = tenant.objects.get(namespaced)
        credit = existing.stored_bytes if existing is not None else 0
        projected = tenant.bytes_stored - credit + stored_size
        if projected > tenant.quota.max_bytes:
            self._counter(tenant, "rejected_puts").increment()
            raise QuotaExceededError(tenant.tenant_id, projected, tenant.quota.max_bytes)

    # ------------------------------------------------------------------ accounting
    def record_put(
        self,
        tenant: Tenant,
        namespaced: str,
        logical_size: int,
        stored_size: int | None = None,
    ) -> None:
        """Account a successful PUT: logical object bytes plus the
        parity-inclusive stripe bytes the pool stores for them (defaults to
        the logical size for erasure-free callers)."""
        if stored_size is None:
            stored_size = logical_size
        previous = tenant.objects.get(namespaced)
        tenant.objects[namespaced] = _ObjectUsage(logical_size, stored_size)
        tenant.bytes_stored += stored_size - (previous.stored_bytes if previous else 0)
        tenant.logical_bytes += logical_size - (previous.logical_bytes if previous else 0)
        self._counter(tenant, "puts").increment()
        self._set_byte_gauges(tenant)

    def record_get(self, tenant: Tenant, hit: bool) -> None:
        """Account one GET and its outcome."""
        self._counter(tenant, "gets").increment()
        self._counter(tenant, "hits" if hit else "misses").increment()

    def record_gone(self, namespaced: str) -> None:
        """Reconcile an object leaving the cache (eviction, loss, invalidate).

        Safe to call for unknown keys and idempotent per key, so callers can
        report every eviction the proxy surfaces without cross-checking.
        """
        tenant_id, _key = split_namespaced_key(namespaced)
        if tenant_id is None:
            return
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            return
        usage = tenant.objects.pop(namespaced, None)
        if usage is None:
            return
        tenant.bytes_stored -= usage.stored_bytes
        tenant.logical_bytes -= usage.logical_bytes
        self._set_byte_gauges(tenant)

    # ------------------------------------------------------------------ reporting
    def report(self) -> dict[str, dict[str, float]]:
        """Per-tenant usage snapshot keyed by tenant id."""
        counters = self.metrics.counters()
        rows: dict[str, dict[str, float]] = {}
        for tenant_id in self.tenant_ids():
            tenant = self._tenants[tenant_id]

            def count(name: str) -> float:
                return counters.get(f"tenant.{tenant_id}.{name}", 0.0)

            gets = count("gets")
            hits = count("hits")
            rows[tenant_id] = {
                "gets": gets,
                "puts": count("puts"),
                "hits": hits,
                "misses": count("misses"),
                "hit_ratio": hits / gets if gets else 0.0,
                "throttled": count("throttled"),
                "rejected_puts": count("rejected_puts"),
                "bytes_stored": float(tenant.bytes_stored),
                "logical_bytes": float(tenant.logical_bytes),
                "objects": float(len(tenant.objects)),
            }
        return rows

    def chargeback(self, billing: BillingModel) -> dict[str, dict[str, float]]:
        """Per-tenant chargeback rows from the billing ledger.

        Every registered tenant gets a row (zero if it caused no work), plus
        a row for each attribution label the billing saw that is not a
        registered tenant — notably :data:`UNATTRIBUTED_TENANT` for pool
        maintenance on empty nodes.  The ``cost`` column sums to
        ``billing.total_cost`` and ``gb_seconds`` to
        ``billing.total_gb_seconds`` within floating-point tolerance, so the
        report is a complete decomposition of the cluster-wide bill.  Billed
        GB-seconds and dollars are also exported as ``tenant.<id>.*`` gauges.
        """
        ledger = billing.tenant_breakdown()
        labels = sorted(set(self.tenant_ids()) | set(ledger))
        rows: dict[str, dict[str, float]] = {}
        for label in labels:
            entry = ledger.get(label, {})
            cost = entry.get("cost", 0.0)
            gb_seconds = entry.get("gb_seconds", 0.0)
            rows[label] = {
                "gb_seconds": gb_seconds,
                "cost": cost,
                "invocations": entry.get("invocations", 0.0),
                "bill_share": cost / billing.total_cost if billing.total_cost else 0.0,
            }
            if label in self._tenants:
                tenant = self._tenants[label]
                self._gauge(tenant, "billed_gb_seconds").set(gb_seconds)
                self._gauge(tenant, "billed_cost").set(cost)
        return rows

    def _counter(self, tenant: Tenant, name: str):
        return self.metrics.counter(f"tenant.{tenant.tenant_id}.{name}")

    def _gauge(self, tenant: Tenant, name: str):
        return self.metrics.gauge(f"tenant.{tenant.tenant_id}.{name}")

    def _set_byte_gauges(self, tenant: Tenant) -> None:
        self._gauge(tenant, "bytes_stored").set(tenant.bytes_stored)
        self._gauge(tenant, "logical_bytes").set(tenant.logical_bytes)


__all__ = [
    "NAMESPACE_SEPARATOR",
    "UNATTRIBUTED_TENANT",
    "Tenant",
    "TenantManager",
    "TenantQuota",
    "namespace_key",
    "split_namespaced_key",
    "validate_app_key",
]

"""Tenant-aware routing layer in front of the consistent-hash ring.

The :class:`ClusterRouter` sits between application tenants and one shared
:class:`~repro.cache.client.InfiniCacheClient`:

1. the tenant's request is charged against its rate quota (token bucket) and
   — for PUTs — its byte quota;
2. the key is qualified with the tenant namespace so tenants are isolated on
   the shared ring;
3. the request is forwarded to the client library, whose ring the deployment
   keeps in sync as proxies join and leave;
4. the outcome is folded back into per-tenant accounting: hits/misses, bytes
   stored, and any objects the pool evicted to make room (which may belong
   to *other* tenants — multi-tenant pressure is visible in their gauges).

:class:`TenantClient` is the handle applications hold: the familiar GET/PUT
API bound to one tenant id.
"""

from __future__ import annotations

import dataclasses

from repro.cache.chunk import descriptor_for
from repro.cache.client import GetResult, InfiniCacheClient, PutResult
from repro.cache.deployment import InfiniCacheDeployment
from repro.cluster.tenants import Tenant, TenantManager, namespace_key, validate_app_key
from repro.obs.metrics import MetricRegistry

#: Reserved client id for the router's shared underlying client.
ROUTER_CLIENT_ID = "cluster-router"


class ClusterRouter:
    """Routes tenant requests onto the shared InfiniCache client library."""

    def __init__(
        self,
        deployment: InfiniCacheDeployment,
        tenants: TenantManager,
        metrics: MetricRegistry | None = None,
    ):
        self.deployment = deployment
        self.tenants = tenants
        self.metrics = metrics or deployment.metrics
        self.client: InfiniCacheClient = deployment.new_client(ROUTER_CLIENT_ID)
        self._clock = deployment.simulator.clock

    # ------------------------------------------------------------------ data path
    def get(self, tenant_id: str, key: str) -> GetResult:
        """GET within a tenant's namespace, subject to its rate quota."""
        tenant = self.tenants.tenant(tenant_id)
        validate_app_key(key)
        self.tenants.authorize_request(tenant, self._clock.now)
        namespaced = namespace_key(tenant_id, key)
        result = self.client.get(namespaced)
        self.tenants.record_get(tenant, result.hit)
        if not result.hit:
            # A plain miss is a no-op here; a reclamation loss (RESET) or an
            # earlier eviction means the tracked bytes are gone.
            self.tenants.record_gone(namespaced)
        self.metrics.counter("cluster.router.gets").increment()
        return dataclasses.replace(result, key=key)

    def get_process(self, tenant_id: str, key: str, env, span=None):
        """Event-driven GET coroutine within a tenant's namespace.

        Quota admission happens synchronously at arrival (before the first
        chunk moves), so a throttled request consumes no pool bandwidth;
        the transfer itself runs as an overlapping process.
        """
        tenant = self.tenants.tenant(tenant_id)
        validate_app_key(key)
        self.tenants.authorize_request(tenant, self._clock.now)
        namespaced = namespace_key(tenant_id, key)
        tracer = env.tracer
        op_span = tracer.begin("router.get", span, tenant=tenant_id, key=key)
        result = yield from self.client.get_process(namespaced, env, span=op_span)
        tracer.finish(op_span, hit=result.hit)
        self.tenants.record_get(tenant, result.hit)
        if not result.hit:
            self.tenants.record_gone(namespaced)
        self.metrics.counter("cluster.router.gets").increment()
        return dataclasses.replace(result, key=key)

    def put_sized_process(self, tenant_id: str, key: str, size: int, env, span=None):
        """Event-driven size-only PUT coroutine within a tenant's namespace."""
        tenant, namespaced = self._admit_put(tenant_id, key, size)
        tracer = env.tracer
        op_span = tracer.begin("router.put", span, tenant=tenant_id, key=key)
        result = yield from self.client.put_sized_process(namespaced, size, env,
                                                          span=op_span)
        tracer.finish(op_span)
        return self._account_put(tenant, namespaced, key, size, result)

    def put(self, tenant_id: str, key: str, value: bytes) -> PutResult:
        """PUT real bytes within a tenant's namespace, subject to both quotas."""
        tenant, namespaced = self._admit_put(tenant_id, key, len(value))
        result = self.client.put(namespaced, value)
        return self._account_put(tenant, namespaced, key, len(value), result)

    def put_sized(self, tenant_id: str, key: str, size: int) -> PutResult:
        """Size-only PUT within a tenant's namespace (trace-replay mode)."""
        tenant, namespaced = self._admit_put(tenant_id, key, size)
        result = self.client.put_sized(namespaced, size)
        return self._account_put(tenant, namespaced, key, size, result)

    def invalidate(self, tenant_id: str, key: str) -> bool:
        """Drop a tenant's object (not charged against the rate quota)."""
        self.tenants.tenant(tenant_id)
        validate_app_key(key)
        namespaced = namespace_key(tenant_id, key)
        existed = self.client.invalidate(namespaced)
        self.tenants.record_gone(namespaced)
        return existed

    def exists(self, tenant_id: str, key: str) -> bool:
        """Whether the responsible proxy still tracks a tenant's key."""
        self.tenants.tenant(tenant_id)
        validate_app_key(key)
        return self.client.exists(namespace_key(tenant_id, key))

    # ------------------------------------------------------------------ internals
    def _stored_bytes(self, size: int) -> int:
        """Parity-inclusive bytes the pool stores for a ``size``-byte object.

        Quotas are charged for the full ``(d+p)``-chunk stripe, so a tenant
        cannot oversubscribe its cap by the erasure-coding overhead.
        """
        config = self.deployment.config
        return descriptor_for(
            "quota", size, config.data_shards, config.parity_shards
        ).stored_bytes

    def _admit_put(self, tenant_id: str, key: str, size: int) -> tuple[Tenant, str]:
        tenant = self.tenants.tenant(tenant_id)
        validate_app_key(key)
        namespaced = namespace_key(tenant_id, key)
        self.tenants.authorize_request(tenant, self._clock.now)
        self.tenants.authorize_put(tenant, namespaced, self._stored_bytes(size))
        return tenant, namespaced

    def _account_put(
        self, tenant: Tenant, namespaced: str, key: str, size: int, result: PutResult
    ) -> PutResult:
        if result.complete:
            self.tenants.record_put(tenant, namespaced, size, self._stored_bytes(size))
        else:
            # The proxy rolled the object (and any earlier version) back out.
            self.tenants.record_gone(namespaced)
        for evicted in result.evicted_keys:
            self.tenants.record_gone(evicted)
        self.metrics.counter("cluster.router.puts").increment()
        return dataclasses.replace(result, key=key)


class TenantClient:
    """Application-facing GET/PUT handle bound to one tenant."""

    def __init__(self, router: ClusterRouter, tenant_id: str):
        self.router = router
        self.tenant_id = tenant_id

    def __repr__(self) -> str:
        return f"TenantClient({self.tenant_id!r})"

    def get(self, key: str) -> GetResult:
        return self.router.get(self.tenant_id, key)

    def get_process(self, key: str, env, span=None):
        """Event-driven GET coroutine bound to this tenant."""
        return self.router.get_process(self.tenant_id, key, env, span=span)

    def put(self, key: str, value: bytes) -> PutResult:
        return self.router.put(self.tenant_id, key, value)

    def put_sized(self, key: str, size: int) -> PutResult:
        return self.router.put_sized(self.tenant_id, key, size)

    def put_sized_process(self, key: str, size: int, env, span=None):
        """Event-driven size-only PUT coroutine bound to this tenant."""
        return self.router.put_sized_process(self.tenant_id, key, size, env, span=span)

    def invalidate(self, key: str) -> bool:
        return self.router.invalidate(self.tenant_id, key)

    def exists(self, key: str) -> bool:
        return self.router.exists(self.tenant_id, key)

    def usage(self) -> dict[str, float]:
        """This tenant's row of the manager's usage report."""
        return self.router.tenants.report()[self.tenant_id]

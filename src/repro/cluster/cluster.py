"""The orchestrated cluster: deployment + autoscaler + tenants + rebalancer.

:class:`InfiniCacheCluster` is the production-shaped entry point the ROADMAP
asks for.  It wraps an :class:`~repro.cache.deployment.InfiniCacheDeployment`
and wires the orchestration actors around it:

* a :class:`~repro.cluster.autoscaler.PoolAutoscaler` resizing each proxy's
  Lambda pool from observed memory pressure and request rate;
* a :class:`~repro.cluster.tenants.TenantManager` plus
  :class:`~repro.cluster.router.ClusterRouter` giving every tenant an
  isolated namespace with byte/rate quotas and per-tenant metrics;
* a :class:`~repro.cluster.rebalancer.Rebalancer` migrating placements when
  proxies join/leave or pools shrink, and a
  :class:`~repro.cluster.rebalancer.FailureDetector` healing
  reclamation losses between requests.

    >>> from repro.cache import InfiniCacheConfig
    >>> from repro.cluster import InfiniCacheCluster, TenantQuota
    >>> cluster = InfiniCacheCluster(InfiniCacheConfig(lambdas_per_proxy=20))
    >>> cluster.start()
    >>> photos = cluster.register_tenant("photos", TenantQuota(max_bytes=10**9))
    >>> photos.put("pic", b"x" * 1_000_000).latency_s > 0
    True
    >>> photos.get("pic").hit
    True
"""

from __future__ import annotations

from repro.cache.config import InfiniCacheConfig
from repro.cache.deployment import InfiniCacheDeployment
from repro.cache.proxy import Proxy
from repro.cluster.autoscaler import AutoscalerConfig, PoolAutoscaler
from repro.cluster.rebalancer import FailureDetector, Rebalancer
from repro.cluster.router import ClusterRouter, TenantClient
from repro.cluster.tenants import TenantManager, TenantQuota
from repro.faas.reclamation import ReclamationPolicy
from repro.sim import EventLoop
from repro.utils.units import MINUTE


class InfiniCacheCluster:
    """An autoscaling, multi-tenant InfiniCache cluster."""

    def __init__(
        self,
        config: InfiniCacheConfig | None = None,
        autoscaler_config: AutoscalerConfig | None = None,
        failure_detector_interval_s: float = 1 * MINUTE,
        reclamation_policy: ReclamationPolicy | None = None,
        simulator: EventLoop | None = None,
    ):
        self.deployment = InfiniCacheDeployment(
            config=config,
            reclamation_policy=reclamation_policy,
            simulator=simulator,
        )
        self.config = self.deployment.config
        self.simulator = self.deployment.simulator
        self.metrics = self.deployment.metrics
        self.tenants = TenantManager(metrics=self.metrics)
        # Order matters: the rebalancer must see membership events, and the
        # router's shared client ring is maintained by the deployment itself.
        # Objects dropped or evicted by maintenance (migration, repair) are
        # reported back so tenant byte accounting never drifts.
        self.rebalancer = Rebalancer(
            self.deployment, metrics=self.metrics,
            on_object_gone=self.tenants.record_gone,
        )
        self.router = ClusterRouter(self.deployment, self.tenants, metrics=self.metrics)
        self.autoscaler = PoolAutoscaler(
            self.deployment,
            config=autoscaler_config,
            rebalancer=self.rebalancer,
            metrics=self.metrics,
        )
        self.failure_detector = FailureDetector(
            self.deployment, interval_s=failure_detector_interval_s,
            metrics=self.metrics, on_object_gone=self.tenants.record_gone,
        )

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the deployment plus the autoscaler and failure detector."""
        self.deployment.start()
        self.autoscaler.start()
        self.failure_detector.start()

    def run_until(self, time_s: float) -> None:
        """Advance the shared simulation to ``time_s``."""
        self.deployment.run_until(time_s)

    def stop(self) -> None:
        """Stop periodic activities and flush open billing sessions."""
        self.autoscaler.stop()
        self.failure_detector.stop()
        self.deployment.stop()

    # ------------------------------------------------------------------ tenants
    def register_tenant(
        self, tenant_id: str, quota: TenantQuota | None = None
    ) -> TenantClient:
        """Register a tenant and hand back its namespaced client."""
        self.tenants.register(tenant_id, quota)
        return TenantClient(self.router, tenant_id)

    # ------------------------------------------------------------------ membership
    def add_proxy(self) -> Proxy:
        """Grow the cluster by one proxy; placements rebalance automatically."""
        return self.deployment.add_proxy()

    def remove_proxy(self, proxy_id: str) -> Proxy:
        """Shrink the cluster; the leaving proxy's objects are evacuated."""
        return self.deployment.remove_proxy(proxy_id)

    def pool_sizes(self) -> dict[str, int]:
        """Current Lambda-pool size per proxy."""
        return {proxy.proxy_id: proxy.pool_size for proxy in self.deployment.proxies}

    # ------------------------------------------------------------------ reporting
    def tenant_report(self) -> dict[str, dict[str, float]]:
        """Per-tenant usage and quota-enforcement snapshot."""
        return self.tenants.report()

    def chargeback_report(self) -> dict[str, dict[str, float]]:
        """Per-tenant GB-seconds and dollars, summing to the cluster bill.

        Every row decomposes :meth:`total_cost`: registered tenants pay for
        the invocations their traffic caused (serving, backup, warm-up,
        rebalance, and repair attributed by busy time), and the
        ``UNATTRIBUTED_TENANT`` row holds pool maintenance no tenant caused.
        """
        return self.tenants.chargeback(self.deployment.billing)

    def total_cost(self) -> float:
        """Total tenant-side dollars spent so far."""
        return self.deployment.total_cost()

    def cost_breakdown(self) -> dict[str, float]:
        """Dollars by category, including the ``rebalance`` migrations."""
        return self.deployment.cost_breakdown()

    def describe(self) -> dict[str, object]:
        """Configuration and orchestration summary, for experiment reports."""
        description = self.deployment.describe()
        description["tenants"] = self.tenants.tenant_ids()
        description["pool_sizes"] = self.pool_sizes()
        description["autoscaler"] = {
            "interval_s": self.autoscaler.config.interval_s,
            "policy": self.autoscaler.config.policy,
            "min_nodes": self.autoscaler.min_nodes,
            "max_nodes": self.autoscaler.max_nodes,
        }
        return description

"""Deployment builder: wires a complete InfiniCache system together.

An :class:`InfiniCacheDeployment` owns the simulator, the simulated FaaS
platform, the proxies and their Lambda pools, the warm-up and backup
schedules, and the cost/metric bookkeeping the experiments read.  It is the
top-level entry point used by the examples, the benchmark harness, and the
trace replayer:

    >>> from repro.cache import InfiniCacheConfig, InfiniCacheDeployment
    >>> deployment = InfiniCacheDeployment(InfiniCacheConfig(lambdas_per_proxy=20))
    >>> deployment.start()
    >>> client = deployment.new_client()
    >>> client.put("photo", b"x" * 1_000_000).latency_s > 0
    True
    >>> client.get("photo").hit
    True
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.backup import BackupManager
from repro.cache.client import InfiniCacheClient
from repro.cache.config import WARMUP_INTERVAL_S, InfiniCacheConfig
from repro.cache.consistent_hash import ConsistentHashRing
from repro.cache.proxy import Proxy
from repro.cache.runtime import RequestEnv
from repro.faas.billing import BillingModel
from repro.faas.platform import FaaSPlatform
from repro.faas.reclamation import ReclamationPolicy
from repro.network.flows import resolve_arbiter
from repro.network.transfer import TransferModel
from repro.exceptions import ConfigurationError
from repro.obs.metrics import MetricRegistry
from repro.sim.loop import EventLoop, PeriodicTask
from repro.utils.rng import SeededRNG
from repro.utils.units import MINUTE

#: Signature of a cluster-membership listener: ``(event, proxy)`` where
#: ``event`` is ``"join"`` or ``"leave"``.
MembershipListener = Callable[[str, Proxy], None]


class InfiniCacheDeployment:
    """A fully wired InfiniCache instance running on the simulated substrate."""

    def __init__(
        self,
        config: InfiniCacheConfig | None = None,
        reclamation_policy: ReclamationPolicy | None = None,
        simulator: EventLoop | None = None,
    ):
        self.config = config or InfiniCacheConfig()
        self.simulator = simulator or EventLoop()
        self.metrics = MetricRegistry()
        self.billing = BillingModel()
        self.rng = SeededRNG(self.config.seed)
        self.platform = FaaSPlatform(
            simulator=self.simulator,
            reclamation_policy=reclamation_policy,
            billing=self.billing,
            metrics=self.metrics,
        )
        self.transfer_model = TransferModel()
        #: Flow-level network arbitration + the context the event-driven
        #: (process-based) request path runs in; the synchronous facade
        #: ignores both and uses the static-snapshot estimates instead.
        #: ``config.flow_arbiter`` selects the incremental bottleneck-group
        #: arbiter (default) or the byte-identical global-recompute
        #: reference sweep.
        self.flows = resolve_arbiter(self.config.flow_arbiter)(
            self.simulator,
            self.transfer_model.fabric,
            trace_limit=self.config.flow_trace_limit,
        )
        self.request_env = RequestEnv(self.simulator, self.flows)
        self._next_proxy_index = 0
        self.proxies: list[Proxy] = []
        self.backup_managers: list[BackupManager] = []
        self._clients: list[InfiniCacheClient] = []
        self._membership_listeners: list[MembershipListener] = []
        for _ in range(self.config.num_proxies):
            self._create_proxy()
        #: Prototype consistent-hash ring over the live proxies; every new
        #: client gets an O(1) copy-on-write clone of it instead of hashing
        #: and sorting its own ring (the superlinear term at fleet scale).
        self._ring_prototype: ConsistentHashRing[Proxy] = ConsistentHashRing()
        self._ring_prototype.add_many(
            [(proxy.proxy_id, proxy) for proxy in self.proxies]
        )
        self._clients_created = 0
        self._started = False
        self._timers: list[PeriodicTask] = []

    def _create_proxy(self) -> Proxy:
        index = self._next_proxy_index
        self._next_proxy_index += 1
        proxy = Proxy(
            proxy_id=f"proxy-{index}",
            config=self.config,
            platform=self.platform,
            transfer_model=self.transfer_model,
            rng=self.rng.child("proxy", index),
            metrics=self.metrics,
        )
        self.proxies.append(proxy)
        self.backup_managers.append(BackupManager(proxy, self.platform, self.metrics))
        return proxy

    # ------------------------------------------------------------------ membership
    def proxy(self, proxy_id: str) -> Proxy:
        """Look up a live proxy by identifier."""
        for proxy in self.proxies:
            if proxy.proxy_id == proxy_id:
                return proxy
        raise ConfigurationError(f"deployment has no proxy {proxy_id!r}")

    def on_membership_change(self, listener: MembershipListener) -> None:
        """Register a callback fired after a proxy joins or leaves."""
        self._membership_listeners.append(listener)

    def add_proxy(self) -> Proxy:
        """Grow the cluster by one proxy with a fresh Lambda pool.

        Every client issued by this deployment has the new proxy added to its
        consistent-hash ring before membership listeners (the rebalancer) run,
        so listeners observe the post-change ownership.
        """
        proxy = self._create_proxy()
        self._ring_prototype.add(proxy.proxy_id, proxy)
        for client in self._clients:
            client.add_proxy(proxy)
        self.metrics.counter("cluster.proxy_joins").increment()
        for listener in self._membership_listeners:
            listener("join", proxy)
        return proxy

    def remove_proxy(self, proxy_id: str) -> Proxy:
        """Remove a proxy from the cluster.

        Client rings are updated first so lookups route to the surviving
        proxies; membership listeners then run with the detached proxy (which
        still holds its objects) so the rebalancer can migrate them off.  The
        caller — normally :class:`repro.cluster.InfiniCacheCluster` — is
        responsible for having such a listener installed.
        """
        if len(self.proxies) <= 1:
            raise ConfigurationError("cannot remove the deployment's last proxy")
        proxy = self.proxy(proxy_id)
        index = self.proxies.index(proxy)
        self.proxies.pop(index)
        self.backup_managers.pop(index)
        self._ring_prototype.remove(proxy_id)
        for client in self._clients:
            client.remove_proxy(proxy_id)
        self.metrics.counter("cluster.proxy_leaves").increment()
        for listener in self._membership_listeners:
            listener("leave", proxy)
        proxy.finish_sessions()
        return proxy

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Begin warm-up, backup, reclamation sweeps, and cost sampling.

        Every periodic activity is a :class:`~repro.sim.loop.PeriodicTask`
        timer on the shared event loop, so maintenance interleaves with
        in-flight requests in deterministic timestamp order.
        """
        if self._started:
            return
        self._started = True
        self.platform.start_reclamation_sweeps()
        self._timers = [
            PeriodicTask(
                self.simulator, WARMUP_INTERVAL_S, self._warmup_tick, label="cache.warmup",
            ),
            PeriodicTask(
                self.simulator, 1 * MINUTE, self._sample_costs, label="cache.cost_sample",
            ),
        ]
        if self.config.backup_enabled:
            self._timers.append(PeriodicTask(
                self.simulator, self.config.backup_interval_s,
                self._backup_tick, label="cache.backup",
            ))
        for timer in self._timers:
            timer.start()

    def _warmup_tick(self) -> None:
        now = self.simulator.now
        for proxy in self.proxies:
            proxy.warm_up_pool(now)
        self.metrics.series("cache.warmup_rounds").record(now, 1.0)

    def _backup_tick(self) -> None:
        now = self.simulator.now
        for manager in self.backup_managers:
            manager.backup_all(now)

    def _sample_costs(self) -> None:
        now = self.simulator.now
        breakdown = self.billing.breakdown()
        for category in ("serving", "warmup", "backup", "total"):
            self.metrics.series(f"cost.cumulative.{category}").record(
                now, breakdown.get(category, 0.0)
            )
        self.metrics.series("cache.bytes_used").record(
            now, float(sum(proxy.pool_bytes_used() for proxy in self.proxies))
        )

    def run_until(self, time_s: float) -> None:
        """Advance the simulation (warm-ups, backups, reclamations) to ``time_s``."""
        self.simulator.run_until(time_s)

    def stop(self) -> None:
        """Stop periodic activities and flush any open billing sessions."""
        self._started = False
        for timer in self._timers:
            timer.stop()
        self._timers = []
        self.platform.stop_reclamation_sweeps()
        for proxy in self.proxies:
            proxy.finish_sessions()

    # ------------------------------------------------------------------ clients
    def new_client(self, client_id: Optional[str] = None) -> InfiniCacheClient:
        """Create a client library instance bound to every proxy of this deployment."""
        if client_id is None:
            client_id = f"client-{self._clients_created}"
        self._clients_created += 1
        client = InfiniCacheClient(
            proxies=self.proxies,
            config=self.config,
            clock=self.simulator.clock,
            client_id=client_id,
            ring=self._ring_prototype.clone(),
        )
        self._clients.append(client)
        return client

    # ------------------------------------------------------------------ reporting
    def cost_breakdown(self) -> dict[str, float]:
        """Dollars spent so far, split by serving / warm-up / backup."""
        return self.billing.breakdown()

    def total_cost(self) -> float:
        """Total tenant-side dollars spent so far."""
        return self.billing.total_cost

    def pool_bytes_used(self) -> int:
        """Bytes currently cached across every proxy's pool."""
        return sum(proxy.pool_bytes_used() for proxy in self.proxies)

    def pool_capacity_bytes(self) -> int:
        """Aggregate chunk capacity across the deployment."""
        return sum(proxy.pool_capacity_bytes for proxy in self.proxies)

    def counters(self) -> dict[str, float]:
        """Snapshot of every counter recorded so far."""
        return self.metrics.counters()

    def describe(self) -> dict[str, object]:
        """Configuration and substrate summary, for experiment reports."""
        description = dict(self.config.describe())
        description["pool_capacity_bytes"] = self.pool_capacity_bytes()
        description["reclamation_policy"] = self.platform.reclamation_policy.describe()
        return description

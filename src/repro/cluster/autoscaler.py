"""Pool autoscaler: elastic Lambda-pool sizing from observed load.

The paper provisions each proxy with a fixed pool (Section 5's 400 nodes)
and leaves elastic sizing to future work; this module closes that gap for
the reproduction.  A :class:`PoolAutoscaler` ticks on the shared simulation
event loop and, per proxy, samples two signals:

* **memory pressure** — bytes cached over pool capacity;
* **request rate** — GET+PUT throughput since the last tick.

Two scaling *policies* turn those signals into node deltas:

* :class:`ReactiveWatermarkPolicy` (default) — scale up when either signal
  crosses its high watermark, down when both drop under their low
  watermarks; it only reacts after the pool is already hot or cold.
* :class:`PredictiveEwmaPolicy` — keeps an exponentially weighted moving
  average of each proxy's request rate and byte growth, forecasts the next
  interval, and sizes the pool to the forecast *before* the watermarks
  would trip.  As ``predictive_trend`` it additionally smooths a Holt trend
  term, extrapolating ramp-shaped load one interval ahead.  The
  cost/miss-rate trade-offs between the policies are measured by
  :mod:`repro.experiments.autoscale_policies`.

Scaling is bounded by ``InfiniCacheConfig.min_lambdas_per_proxy`` /
``max_lambdas_per_proxy`` (and always floored at the erasure stripe width,
since every object needs ``d+p`` distinct nodes).  Scale-down picks the
emptiest nodes and routes them through the rebalancer's drain path so no
chunk is silently lost, and it refuses to shrink past the point where the
surviving capacity would immediately re-trip the high watermark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cache.deployment import InfiniCacheDeployment
from repro.cache.proxy import Proxy
from repro.cluster.rebalancer import Rebalancer
from repro.exceptions import ConfigurationError
from repro.obs.metrics import MetricRegistry
from repro.sim import PeriodicTask

#: Names accepted by :attr:`AutoscalerConfig.policy`.
SCALING_POLICIES = ("reactive", "predictive", "predictive_trend")


@dataclass(frozen=True)
class AutoscalerConfig:
    """Tuning knobs for the pool autoscaler."""

    #: Seconds between scaling decisions (one shared tick for all proxies).
    interval_s: float = 30.0
    #: Memory-pressure fraction above which a pool grows.
    high_memory_watermark: float = 0.70
    #: Memory-pressure fraction below which a pool may shrink.
    low_memory_watermark: float = 0.30
    #: Requests/s per node above which a pool grows regardless of memory.
    high_requests_per_node: float = 2.0
    #: Requests/s per node below which a pool may shrink.
    low_requests_per_node: float = 0.25
    #: Nodes added per scale-up decision.
    scale_up_step: int = 4
    #: Nodes removed per scale-down decision.
    scale_down_step: int = 2
    #: Which scaling policy to run (see :data:`SCALING_POLICIES`).
    policy: str = "reactive"
    #: EWMA smoothing factor for the predictive policy's forecasts.
    ewma_alpha: float = 0.3
    #: Requests/s one node should serve at the predictive policy's target
    #: operating point (its sizing divisor; keep under the high watermark so
    #: the forecast leaves headroom).
    target_requests_per_node: float = 1.0
    #: Holt trend-smoothing factor used by the ``predictive_trend`` policy:
    #: the forecast becomes *level + trend*, so a steadily building surge is
    #: extrapolated one interval ahead instead of merely smoothed.  Ignored
    #: (treated as 0) by the plain ``predictive`` policy.
    trend_beta: float = 0.3

    def __post_init__(self):
        if self.interval_s <= 0:
            raise ConfigurationError("autoscaler interval must be positive")
        if not 0.0 < self.low_memory_watermark < self.high_memory_watermark <= 1.0:
            raise ConfigurationError(
                "memory watermarks must satisfy 0 < low < high <= 1"
            )
        if self.low_requests_per_node < 0 or self.high_requests_per_node <= 0:
            raise ConfigurationError("request-rate watermarks must be non-negative")
        if self.low_requests_per_node >= self.high_requests_per_node:
            raise ConfigurationError("rate watermarks must satisfy low < high")
        if self.scale_up_step < 1 or self.scale_down_step < 1:
            raise ConfigurationError("scaling steps must be at least 1")
        if self.policy not in SCALING_POLICIES:
            raise ConfigurationError(
                f"unknown scaling policy {self.policy!r}; expected one of {SCALING_POLICIES}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError("ewma_alpha must be in (0, 1]")
        if self.target_requests_per_node <= 0:
            raise ConfigurationError("target_requests_per_node must be positive")
        if not 0.0 <= self.trend_beta <= 1.0:
            raise ConfigurationError("trend_beta must be in [0, 1]")


@dataclass(frozen=True)
class PoolSnapshot:
    """One proxy's load signals at a scaling tick."""

    proxy_id: str
    pool_size: int
    per_node_capacity_bytes: float
    bytes_used: int
    memory_pressure: float
    #: Total GET+PUT requests/s over the last interval (not per node).
    request_rate: float


class ReactiveWatermarkPolicy:
    """Scale on watermark crossings of the *observed* signals."""

    def __init__(self, config: AutoscalerConfig):
        self.config = config

    def desired_delta(self, snapshot: PoolSnapshot) -> int:
        """Signed node-count intent; the autoscaler clamps it to its steps."""
        rate_per_node = snapshot.request_rate / max(1, snapshot.pool_size)
        if (
            snapshot.memory_pressure >= self.config.high_memory_watermark
            or rate_per_node >= self.config.high_requests_per_node
        ):
            return self.config.scale_up_step
        if (
            snapshot.memory_pressure <= self.config.low_memory_watermark
            and rate_per_node <= self.config.low_requests_per_node
        ):
            return -self.config.scale_down_step
        return 0


class PredictiveEwmaPolicy:
    """Size each pool to a smoothed forecast of its next-interval load.

    Per proxy, the policy smooths the observed request rate and byte growth
    and sizes the pool so the *forecast* rate lands at
    ``target_requests_per_node`` and the forecast footprint stays under the
    high memory watermark — growing ahead of a building surge instead of
    after the watermarks trip, and shrinking gradually as the forecast
    decays.

    With ``trend_beta = 0`` (the plain ``predictive`` policy) the smoothing
    is a simple EWMA of the level.  With ``trend_beta > 0`` (the
    ``predictive_trend`` policy) it is Holt's double exponential smoothing:
    a trend component tracks how fast the level itself is moving and the
    forecast becomes ``level + trend``, so a monotone ramp is extrapolated
    one interval ahead rather than perpetually lagged — the ROADMAP's
    "seasonality/trend" item for ramp-shaped load.
    """

    def __init__(self, config: AutoscalerConfig, trend_beta: float = 0.0):
        self.config = config
        self.trend_beta = trend_beta
        self._rate_level: dict[str, float] = {}
        self._rate_trend: dict[str, float] = {}
        self._growth_level: dict[str, float] = {}
        self._growth_trend: dict[str, float] = {}
        self._last_bytes: dict[str, int] = {}

    def _forecast(
        self,
        levels: dict[str, float],
        trends: dict[str, float],
        proxy_id: str,
        observed: float,
    ) -> float:
        previous = levels.get(proxy_id)
        if previous is None:
            levels[proxy_id] = observed
            trends[proxy_id] = 0.0
            return observed
        alpha = self.config.ewma_alpha
        beta = self.trend_beta
        prior_trend = trends.get(proxy_id, 0.0)
        level = alpha * observed + (1.0 - alpha) * (previous + prior_trend)
        trend = beta * (level - previous) + (1.0 - beta) * prior_trend
        levels[proxy_id] = level
        trends[proxy_id] = trend
        return level + trend

    def desired_delta(self, snapshot: PoolSnapshot) -> int:
        """Forecast-sized pool minus the current pool."""
        rate_forecast = self._forecast(
            self._rate_level, self._rate_trend, snapshot.proxy_id, snapshot.request_rate
        )
        growth = snapshot.bytes_used - self._last_bytes.get(
            snapshot.proxy_id, snapshot.bytes_used
        )
        self._last_bytes[snapshot.proxy_id] = snapshot.bytes_used
        growth_forecast = self._forecast(
            self._growth_level, self._growth_trend, snapshot.proxy_id, float(growth)
        )

        nodes_for_rate = math.ceil(
            max(0.0, rate_forecast) / self.config.target_requests_per_node
        )
        projected_bytes = snapshot.bytes_used + max(0.0, growth_forecast)
        headroom = self.config.high_memory_watermark * snapshot.per_node_capacity_bytes
        nodes_for_memory = math.ceil(projected_bytes / headroom) if headroom > 0 else 0
        desired = max(nodes_for_rate, nodes_for_memory, 1)
        return desired - snapshot.pool_size


def make_policy(config: AutoscalerConfig):
    """Instantiate the scaling policy the config names."""
    if config.policy == "predictive":
        return PredictiveEwmaPolicy(config)
    if config.policy == "predictive_trend":
        return PredictiveEwmaPolicy(config, trend_beta=config.trend_beta)
    return ReactiveWatermarkPolicy(config)


class PoolAutoscaler:
    """Grows and shrinks each proxy's Lambda pool from observed load."""

    def __init__(
        self,
        deployment: InfiniCacheDeployment,
        config: AutoscalerConfig | None = None,
        rebalancer: Rebalancer | None = None,
        metrics: MetricRegistry | None = None,
    ):
        self.deployment = deployment
        self.config = config or AutoscalerConfig()
        self.rebalancer = rebalancer
        self.metrics = metrics or deployment.metrics
        self.policy = make_policy(self.config)
        self._last_requests: dict[str, int] = {}
        self._task = PeriodicTask(
            deployment.simulator, self.config.interval_s, self.evaluate_once,
            label="cluster.autoscaler",
        )

    # ------------------------------------------------------------------ bounds
    @property
    def min_nodes(self) -> int:
        """Smallest pool the autoscaler will shrink to."""
        cache_config = self.deployment.config
        stripe = cache_config.data_shards + cache_config.parity_shards
        configured = cache_config.min_lambdas_per_proxy or 1
        return max(stripe, configured)

    @property
    def max_nodes(self) -> int | None:
        """Largest pool the autoscaler will grow to (``None`` = unbounded)."""
        return self.deployment.config.max_lambdas_per_proxy

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Begin periodic scaling decisions on the deployment's simulator."""
        self._task.start()

    def stop(self) -> None:
        """Stop scheduling further decisions."""
        self._task.stop()

    # ------------------------------------------------------------------ decisions
    def evaluate_once(self) -> dict[str, int]:
        """Apply one scaling decision per proxy; returns node deltas by proxy."""
        now = self.deployment.simulator.now
        deltas: dict[str, int] = {}
        for proxy in list(self.deployment.proxies):
            deltas[proxy.proxy_id] = self._evaluate_proxy(proxy, now)
            self.metrics.series(f"cluster.pool_size.{proxy.proxy_id}").record(
                now, float(proxy.pool_size)
            )
        return deltas

    def _snapshot(self, proxy: Proxy) -> PoolSnapshot:
        # One O(nodes x chunks) byte traversal per tick; pressure is derived
        # rather than re-sampled through proxy.memory_pressure().
        used = proxy.pool_bytes_used()
        capacity = proxy.pool_capacity_bytes
        return PoolSnapshot(
            proxy_id=proxy.proxy_id,
            pool_size=proxy.pool_size,
            per_node_capacity_bytes=capacity / proxy.pool_size if proxy.pool_size else 0.0,
            bytes_used=used,
            memory_pressure=used / capacity if capacity else 0.0,
            request_rate=self._request_rate(proxy),
        )

    def _evaluate_proxy(self, proxy: Proxy, now: float) -> int:
        desired = self.policy.desired_delta(self._snapshot(proxy))
        if desired > 0:
            return self._scale_up(proxy, desired)
        if desired < 0:
            return self._scale_down(proxy, now, -desired)
        return 0

    def _request_rate(self, proxy: Proxy) -> float:
        """Total requests/s this proxy served since the previous tick."""
        served = proxy.requests_served
        previous = self._last_requests.get(proxy.proxy_id, 0)
        self._last_requests[proxy.proxy_id] = served
        return max(0, served - previous) / self.config.interval_s

    def _scale_up(self, proxy: Proxy, desired: int) -> int:
        step = min(self.config.scale_up_step, desired)
        if self.max_nodes is not None:
            step = min(step, self.max_nodes - proxy.pool_size)
        if step <= 0:
            return 0
        for _ in range(step):
            proxy.add_node()
        self.metrics.counter("cluster.autoscaler.scale_ups").increment()
        self.metrics.counter("cluster.autoscaler.nodes_added").increment(step)
        return step

    def _scale_down(self, proxy: Proxy, now: float, desired: int) -> int:
        step = min(self.config.scale_down_step, desired, proxy.pool_size - self.min_nodes)
        if step <= 0:
            return 0
        per_node_capacity = proxy.pool_capacity_bytes / proxy.pool_size
        used = proxy.pool_bytes_used()
        removed = 0
        for _ in range(step):
            surviving = (proxy.pool_size - 1) * per_node_capacity
            if surviving <= 0 or used / surviving >= self.config.high_memory_watermark:
                break
            victim = min(proxy.nodes, key=lambda node: (node.bytes_used(), node.node_id))
            if self.rebalancer is not None:
                self.rebalancer.decommission_node(proxy, victim.node_id, now)
            else:
                proxy.decommission_node(victim.node_id, now)
            removed += 1
        if removed:
            self.metrics.counter("cluster.autoscaler.scale_downs").increment()
            self.metrics.counter("cluster.autoscaler.nodes_removed").increment(removed)
        return -removed

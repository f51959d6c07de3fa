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
from repro.cache.ledger import decommission_node
from repro.cache.proxy import Proxy
from repro.cluster.rebalancer import Rebalancer
from repro.exceptions import ConfigurationError
from repro.obs.metrics import MetricRegistry
from repro.sim import PeriodicTask

#: Names accepted by :attr:`AutoscalerConfig.policy`.
SCALING_POLICIES = ("reactive", "predictive", "predictive_trend")

#: Memory-pressure fraction above which a pool grows.
HIGH_MEMORY_WATERMARK = 0.70
#: Memory-pressure fraction below which a pool may shrink.
LOW_MEMORY_WATERMARK = 0.30
#: Requests/s per node above which a pool grows regardless of memory.
HIGH_REQUESTS_PER_NODE = 2.0
#: Requests/s per node below which a pool may shrink.
LOW_REQUESTS_PER_NODE = 0.25
#: Nodes added per scale-up decision.
SCALE_UP_STEP = 4
#: Nodes removed per scale-down decision.
SCALE_DOWN_STEP = 2
#: EWMA smoothing factor for the predictive policies' forecasts.
EWMA_ALPHA = 0.3
#: Requests/s one node should serve at the predictive policies' operating
#: point (their sizing divisor; under the high rate watermark, so the
#: forecast leaves headroom).
TARGET_REQUESTS_PER_NODE = 1.0
#: Holt trend-smoothing factor of the ``predictive_trend`` policy: the
#: forecast becomes *level + trend*, so a steadily building surge is
#: extrapolated one interval ahead instead of merely smoothed.
TREND_BETA = 0.3


@dataclass(frozen=True)
class AutoscalerConfig:
    """What varies between autoscaled deployments: the tick and the policy."""

    #: Seconds between scaling decisions (one shared tick for all proxies).
    interval_s: float = 30.0
    #: Which scaling policy to run (see :data:`SCALING_POLICIES`).
    policy: str = "reactive"

    def __post_init__(self):
        if not 0.0 < self.interval_s < math.inf:
            raise ConfigurationError(
                f"autoscaler interval must be positive and finite, got {self.interval_s}"
            )
        if self.policy not in SCALING_POLICIES:
            raise ConfigurationError(
                f"unknown scaling policy {self.policy!r}; expected one of {SCALING_POLICIES}"
            )


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

    def desired_delta(self, snapshot: PoolSnapshot) -> int:
        """Signed node-count intent; the autoscaler clamps it to its steps."""
        rate_per_node = snapshot.request_rate / max(1, snapshot.pool_size)
        if (
            snapshot.memory_pressure >= HIGH_MEMORY_WATERMARK
            or rate_per_node >= HIGH_REQUESTS_PER_NODE
        ):
            return SCALE_UP_STEP
        if (
            snapshot.memory_pressure <= LOW_MEMORY_WATERMARK
            and rate_per_node <= LOW_REQUESTS_PER_NODE
        ):
            return -SCALE_DOWN_STEP
        return 0


class PredictiveEwmaPolicy:
    """Size each pool to a smoothed forecast of its next-interval load.

    Per proxy, the policy smooths the observed request rate and byte growth
    and sizes the pool so the *forecast* rate lands at
    :data:`TARGET_REQUESTS_PER_NODE` and the forecast footprint stays under
    the high memory watermark — growing ahead of a building surge instead of
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

    def __init__(self, trend_beta: float = 0.0):
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
        alpha = EWMA_ALPHA
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
            max(0.0, rate_forecast) / TARGET_REQUESTS_PER_NODE
        )
        projected_bytes = snapshot.bytes_used + max(0.0, growth_forecast)
        headroom = HIGH_MEMORY_WATERMARK * snapshot.per_node_capacity_bytes
        nodes_for_memory = math.ceil(projected_bytes / headroom) if headroom > 0 else 0
        desired = max(nodes_for_rate, nodes_for_memory, 1)
        return desired - snapshot.pool_size


def make_policy(config: AutoscalerConfig):
    """Instantiate the scaling policy the config names."""
    if config.policy == "predictive":
        return PredictiveEwmaPolicy()
    if config.policy == "predictive_trend":
        return PredictiveEwmaPolicy(trend_beta=TREND_BETA)
    return ReactiveWatermarkPolicy()


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
        step = min(SCALE_UP_STEP, desired)
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
        step = min(SCALE_DOWN_STEP, desired, proxy.pool_size - self.min_nodes)
        if step <= 0:
            return 0
        per_node_capacity = proxy.pool_capacity_bytes / proxy.pool_size
        used = proxy.pool_bytes_used()
        removed = 0
        for _ in range(step):
            surviving = (proxy.pool_size - 1) * per_node_capacity
            if surviving <= 0 or used / surviving >= HIGH_MEMORY_WATERMARK:
                break
            victim = min(proxy.nodes, key=lambda node: (node.bytes_used(), node.node_id))
            if self.rebalancer is not None:
                self.rebalancer.decommission_node(proxy, victim.node_id, now)
            else:
                decommission_node(proxy, victim.node_id, now)
            removed += 1
        if removed:
            self.metrics.counter("cluster.autoscaler.scale_downs").increment()
            self.metrics.counter("cluster.autoscaler.nodes_removed").increment(removed)
        return -removed

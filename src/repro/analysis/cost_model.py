"""Hourly cost model (paper Section 4.3, Equations 4-6) and the Figure 17
crossover analysis against ElastiCache.

Total hourly cost ``C = C_ser + C_w + C_bak``:

* ``C_ser = n_ser * c_req + n_ser * ceil100(t_ser)/1000 * M * c_d``
  (Equation 4) — serving ``n_ser`` chunk requests per hour, each billed for a
  100 ms-rounded duration of a function with ``M`` GB memory;
* ``C_w   = N * f_w * c_req + N * f_w * 0.1 * M * c_d`` (Equation 5) —
  warming up all ``N`` functions ``f_w`` times per hour, each warm-up lasting
  one 100 ms billing cycle;
* ``C_bak = N * f_bak * c_req + N * f_bak * t_bak * M * c_d`` (Equation 6) —
  backing up all ``N`` functions ``f_bak`` times per hour, each backup
  keeping a function busy for ``t_bak`` seconds.

The paper expresses the model per single function invocation; requests that
touch ``d+p`` chunks can be modelled either by multiplying the request rate
by the chunk count or by folding it into ``n_ser`` — helpers for both are
provided.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.pricing import ElastiCacheInstanceType, elasticache_instance
from repro.exceptions import ConfigurationError
from repro.faas.billing import (
    PRICE_PER_GB_SECOND,
    PRICE_PER_INVOCATION,
    ceil_to_billing_cycle,
)
from repro.utils.units import GIB, MIB


@dataclass(frozen=True)
class CostModelParams:
    """Inputs to the hourly cost model (names follow the paper)."""

    #: Number of Lambda nodes in the pool (N_lambda).
    total_nodes: int = 400
    #: Configured function memory in bytes (M, expressed in GB in the paper).
    memory_bytes: int = 1536 * MIB
    #: Warm-up interval in minutes (T_warm); f_w = 60 / T_warm per hour.
    warmup_interval_min: float = 1.0
    #: Backup interval in minutes (T_bak); f_bak = 60 / T_bak per hour.
    backup_interval_min: float = 5.0
    #: Duration one backup keeps a function busy, in seconds (t_bak).
    backup_duration_s: float = 1.0
    #: Average duration of one serving invocation in milliseconds (t_ser).
    serving_duration_ms: float = 100.0
    #: Whether the backup mechanism is enabled at all.
    backup_enabled: bool = True

    def __post_init__(self):
        if self.total_nodes < 1:
            raise ConfigurationError("total_nodes must be >= 1")
        if self.memory_bytes <= 0:
            raise ConfigurationError("memory must be positive")
        if self.warmup_interval_min <= 0 or self.backup_interval_min <= 0:
            raise ConfigurationError("intervals must be positive")
        if self.backup_duration_s < 0 or self.serving_duration_ms < 0:
            raise ConfigurationError("durations must be non-negative")

    @property
    def memory_gb(self) -> float:
        """Function memory in GB (the unit the pricing uses)."""
        return self.memory_bytes / GIB

    @property
    def warmups_per_hour(self) -> float:
        """f_w."""
        return 60.0 / self.warmup_interval_min

    @property
    def backups_per_hour(self) -> float:
        """f_bak (zero when backup is disabled)."""
        if not self.backup_enabled:
            return 0.0
        return 60.0 / self.backup_interval_min


class CostModel:
    """Hourly cost calculator for an InfiniCache deployment."""

    def __init__(self, params: CostModelParams | None = None):
        self.params = params or CostModelParams()

    # ------------------------------------------------------------------ Equation 4
    def serving_cost_per_hour(self, invocations_per_hour: float) -> float:
        """``C_ser`` for a given hourly *function invocation* rate."""
        if invocations_per_hour < 0:
            raise ConfigurationError("invocation rate must be non-negative")
        p = self.params
        billed_s = ceil_to_billing_cycle(p.serving_duration_ms / 1000.0)
        request_fee = invocations_per_hour * PRICE_PER_INVOCATION
        duration_fee = (
            invocations_per_hour * billed_s * p.memory_gb * PRICE_PER_GB_SECOND
        )
        return request_fee + duration_fee

    def serving_cost_for_object_rate(
        self, object_requests_per_hour: float, chunks_per_object: int
    ) -> float:
        """``C_ser`` when each object GET fans out to ``chunks_per_object`` invocations."""
        if chunks_per_object < 1:
            raise ConfigurationError("chunks_per_object must be >= 1")
        return self.serving_cost_per_hour(object_requests_per_hour * chunks_per_object)

    # ------------------------------------------------------------------ Equation 5
    def warmup_cost_per_hour(self) -> float:
        """``C_w``: keeping the whole pool warm."""
        p = self.params
        invocations = p.total_nodes * p.warmups_per_hour
        request_fee = invocations * PRICE_PER_INVOCATION
        duration_fee = invocations * 0.1 * p.memory_gb * PRICE_PER_GB_SECOND
        return request_fee + duration_fee

    # ------------------------------------------------------------------ Equation 6
    def backup_cost_per_hour(self) -> float:
        """``C_bak``: periodic delta-sync backups across the pool."""
        p = self.params
        if not p.backup_enabled:
            return 0.0
        invocations = p.total_nodes * p.backups_per_hour
        request_fee = invocations * PRICE_PER_INVOCATION
        duration_fee = (
            invocations * p.backup_duration_s * p.memory_gb * PRICE_PER_GB_SECOND
        )
        return request_fee + duration_fee

    # ------------------------------------------------------------------ totals
    def total_cost_per_hour(self, invocations_per_hour: float) -> float:
        """``C = C_ser + C_w + C_bak`` for an hourly invocation rate."""
        return (
            self.serving_cost_per_hour(invocations_per_hour)
            + self.warmup_cost_per_hour()
            + self.backup_cost_per_hour()
        )

    # ------------------------------------------------------------------ Figure 17
    def elasticache_hourly_cost(
        self, instance_type: str | ElastiCacheInstanceType = "cache.r5.24xlarge",
        node_count: int = 1,
    ) -> float:
        """Hourly cost of the ElastiCache deployment used for comparison."""
        if isinstance(instance_type, str):
            instance_type = elasticache_instance(instance_type)
        if node_count < 1:
            raise ConfigurationError("node_count must be >= 1")
        return instance_type.hourly_price * node_count

    def crossover_access_rate(
        self,
        instance_type: str | ElastiCacheInstanceType = "cache.r5.24xlarge",
        node_count: int = 1,
        chunks_per_object: int = 1,
        max_rate: int = 10_000_000,
    ) -> float:
        """The hourly *object* access rate at which InfiniCache stops being cheaper.

        This is the crossover point of Figure 17 (the paper finds ~312 K
        requests/hour for its configuration, where every object GET fans out
        to 12 chunk invocations).  Solved in closed form from the linear
        serving-cost term.
        """
        if chunks_per_object < 1:
            raise ConfigurationError("chunks_per_object must be >= 1")
        target = self.elasticache_hourly_cost(instance_type, node_count)
        fixed = self.warmup_cost_per_hour() + self.backup_cost_per_hour()
        if fixed >= target:
            return 0.0
        p = self.params
        billed_s = ceil_to_billing_cycle(p.serving_duration_ms / 1000.0)
        per_invocation = (
            PRICE_PER_INVOCATION
            + billed_s * p.memory_gb * PRICE_PER_GB_SECOND
        )
        if per_invocation <= 0:
            return float(max_rate)
        rate = (target - fixed) / (per_invocation * chunks_per_object)
        return min(rate, float(max_rate))

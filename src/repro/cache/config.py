"""Deployment-wide configuration for InfiniCache.

One :class:`InfiniCacheConfig` describes everything the paper's Section 5
setup varies: pool size and Lambda memory, the erasure code, the backup
interval, straggler behaviour, and whether backup is enabled (the "IC w/o
backup" configuration of Table 1 and Figure 13(d)).  A value every caller
sets the same way is a module constant beside the code that reads it
(:data:`WARMUP_INTERVAL_S` here, the billing buffer in
:mod:`repro.cache.billed_duration`, the network latency in
:mod:`repro.network.transfer`, ...), not a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.faas.limits import validate_memory_bytes
from repro.utils.units import MINUTE, MIB

#: Seconds between two warm-up rounds of every pool (the paper's ``T_warm``).
WARMUP_INTERVAL_S = 1 * MINUTE


@dataclass(frozen=True)
class StragglerModel:
    """Random slowdowns applied to individual chunk transfers.

    The paper attributes higher tail latency of the ``(10+0)`` configuration
    to Lambda stragglers and uses first-d redundancy to hide them.  Each chunk
    transfer is independently slowed down with probability ``probability`` by
    a factor drawn uniformly from ``[min_factor, max_factor]``.
    """

    probability: float = 0.05
    min_factor: float = 2.0
    max_factor: float = 8.0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("straggler probability must be in [0, 1]")
        # Written so that NaN fails too.
        if not 1.0 <= self.min_factor <= self.max_factor < math.inf:
            raise ConfigurationError(
                "straggler factors must satisfy 1 <= min <= max < inf, got "
                f"[{self.min_factor}, {self.max_factor}]"
            )


@dataclass(frozen=True)
class ResilienceConfig:
    """Supervision policy for the event-driven request path.

    There is one request path: every chunk transfer runs under a supervisor
    that absorbs transient faults, and a request that cannot reach
    ``data_shards`` chunks degrades (the caller serves it from the backing
    store and counts a degraded hit) instead of aborting the run.  These
    fields only set the supervisor's budget.  The default is one attempt,
    no deadline and no breaker — a supervisor that is invisible when
    nothing fails: it schedules no extra event and draws no extra random
    number, so fault-free replays are byte-identical whatever is set here.
    """

    #: Transfer attempts each chunk gets before it counts as unreachable;
    #: retries back off exponentially with seeded jitter (see
    #: :mod:`repro.cache.proxy`).
    chunk_attempts: int = 1
    #: Per-chunk transfer deadline; on expiry a hedged re-fetch races the
    #: original attempt.  ``None`` disables timeouts and hedging.
    chunk_timeout_s: float | None = None
    #: Give every node a :class:`~repro.cache.connection.CircuitBreaker`.
    circuit_breaker: bool = False

    def __post_init__(self):
        attempts = self.chunk_attempts
        if not isinstance(attempts, int) or isinstance(attempts, bool) or attempts < 1:
            raise ConfigurationError(f"chunk_attempts must be an int >= 1, got {attempts!r}")
        if not isinstance(self.circuit_breaker, bool):
            raise ConfigurationError(
                f"circuit_breaker must be a bool, got {self.circuit_breaker!r}"
            )
        if self.chunk_timeout_s is not None and not 0.0 < self.chunk_timeout_s < math.inf:
            raise ConfigurationError(
                f"chunk timeout must be positive and finite when set, got {self.chunk_timeout_s}"
            )


@dataclass(frozen=True)
class InfiniCacheConfig:
    """Complete configuration of an InfiniCache deployment."""

    # --- topology ---------------------------------------------------------------
    num_proxies: int = 1
    lambdas_per_proxy: int = 400
    lambda_memory_bytes: int = 1536 * MIB
    #: Bounds the cluster autoscaler respects when resizing a proxy's pool.
    #: ``None`` leaves the corresponding direction unbounded (shrinking is
    #: still floored at the erasure stripe width so every stripe fits).
    min_lambdas_per_proxy: int | None = None
    max_lambdas_per_proxy: int | None = None

    # --- erasure coding ----------------------------------------------------------
    data_shards: int = 10
    parity_shards: int = 2

    # --- liveness maintenance ------------------------------------------------------
    backup_interval_s: float = 5 * MINUTE
    backup_enabled: bool = True

    # --- performance model --------------------------------------------------------------
    #: The one per-chunk slowdown mechanism: every chunk transfer draws its
    #: factor from the proxy's seeded stream (there is no separate jitter).
    straggler: StragglerModel = field(default_factory=StragglerModel)
    #: Which flow arbiter backs the event-driven request path:
    #: ``"incremental"`` (bottleneck-group arbitration, the default) or
    #: ``"reference"`` (the global-recompute sweep with eager completion
    #: events, byte-identical in settled bytes and finish times — the
    #: oracle for differential tests and the ``repro perf`` fingerprint gate).
    flow_arbiter: str = "incremental"
    #: If set, the flow network retains at most this many finished/abandoned
    #: transfer intervals (aggregate flow statistics are unaffected).  Long
    #: open-loop replays use it to keep memory flat; ``None`` retains all.
    flow_trace_limit: int | None = None

    # --- recovery behaviour ----------------------------------------------------------------
    #: Chunk-supervision budget (retry/hedging/circuit breaker); ``None``
    #: behaves exactly like an all-defaults :class:`ResilienceConfig` — one
    #: attempt, no deadline, no breaker.
    resilience: ResilienceConfig | None = None

    # --- determinism -----------------------------------------------------------------------
    seed: int = 2020

    def __post_init__(self):
        if self.num_proxies < 1:
            raise ConfigurationError("at least one proxy is required")
        if self.lambdas_per_proxy < 1:
            raise ConfigurationError("each proxy needs at least one Lambda node")
        validate_memory_bytes(self.lambda_memory_bytes)
        if self.data_shards < 1 or self.parity_shards < 0:
            raise ConfigurationError("invalid erasure code configuration")
        if self.data_shards + self.parity_shards > self.lambdas_per_proxy:
            raise ConfigurationError(
                "the erasure stripe is wider than the Lambda pool: "
                f"{self.data_shards}+{self.parity_shards} chunks over "
                f"{self.lambdas_per_proxy} nodes"
            )
        if self.min_lambdas_per_proxy is not None:
            if self.min_lambdas_per_proxy < 1:
                raise ConfigurationError("min_lambdas_per_proxy must be at least 1")
            if self.lambdas_per_proxy < self.min_lambdas_per_proxy:
                raise ConfigurationError(
                    f"pools start at {self.lambdas_per_proxy} nodes, below the "
                    f"autoscale floor of {self.min_lambdas_per_proxy}"
                )
        if self.max_lambdas_per_proxy is not None:
            floor = self.min_lambdas_per_proxy or 1
            if self.max_lambdas_per_proxy < max(floor, self.data_shards + self.parity_shards):
                raise ConfigurationError(
                    "max_lambdas_per_proxy must cover the erasure stripe and "
                    "min_lambdas_per_proxy"
                )
            if self.lambdas_per_proxy > self.max_lambdas_per_proxy:
                raise ConfigurationError(
                    f"pools start at {self.lambdas_per_proxy} nodes, above the "
                    f"autoscale ceiling of {self.max_lambdas_per_proxy}"
                )
        if not 0.0 < self.backup_interval_s < math.inf:
            raise ConfigurationError(
                f"backup interval must be positive and finite, got {self.backup_interval_s}"
            )
        if self.flow_arbiter == "vectorized":
            raise ConfigurationError(
                "flow_arbiter 'vectorized' was removed (it was slower than the "
                "scalar arbiter on every workload); use 'incremental'"
            )
        if self.flow_arbiter not in ("incremental", "reference"):
            raise ConfigurationError(
                "flow_arbiter must be 'incremental' or 'reference', "
                f"got {self.flow_arbiter!r}"
            )
        if self.flow_trace_limit is not None and self.flow_trace_limit < 0:
            raise ConfigurationError("flow_trace_limit must be >= 0 when set")

    @property
    def total_chunks(self) -> int:
        """Chunks per object (d + p)."""
        return self.data_shards + self.parity_shards

    @property
    def total_lambda_nodes(self) -> int:
        """Number of Lambda cache nodes across all proxies."""
        return self.num_proxies * self.lambdas_per_proxy

    def describe(self) -> dict[str, object]:
        """Key parameters, for experiment reports."""
        return {
            "proxies": self.num_proxies,
            "lambdas_per_proxy": self.lambdas_per_proxy,
            "autoscale_bounds": (self.min_lambdas_per_proxy, self.max_lambdas_per_proxy),
            "lambda_memory_MiB": self.lambda_memory_bytes // MIB,
            "rs_code": f"({self.data_shards}+{self.parity_shards})",
            "warmup_interval_s": WARMUP_INTERVAL_S,
            "backup_interval_s": self.backup_interval_s,
            "backup_enabled": self.backup_enabled,
        }

"""Exception hierarchy for the InfiniCache reproduction.

All library-specific errors derive from :class:`ReproError` so applications
can catch a single base class.  Subsystems raise the most specific subclass
that describes the failure; nothing in the library raises bare ``Exception``.

The hierarchy distinguishes **retryable** from **fatal** failures: anything
deriving from :class:`TransientFaultError` (a reclaimed function, an injected
invocation fault, a chunk timeout, an open circuit breaker, an interrupted
backup sync) describes a condition that a later attempt may not hit again, so
the request path's chunk supervisor retries it with backoff.  Everything else
— config errors, protocol misuse, unrecoverable data loss — is fatal and
propagates.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class TransientFaultError(ReproError):
    """A failure a later attempt may not hit again (safe to retry).

    The chunk supervisor treats every subclass uniformly: back off with
    seeded jitter and re-attempt, up to the configured retry budget.
    """


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation engine detected an inconsistency."""


class ErasureCodingError(ReproError):
    """Base class for erasure-coding failures."""


class EncodingError(ErasureCodingError):
    """An object could not be encoded into chunks."""


class DecodingError(ErasureCodingError):
    """An object could not be reconstructed from the available chunks.

    Raised when fewer than ``d`` distinct chunks of an ``RS(d+p)`` stripe are
    available, or when chunk payloads are inconsistent with the stripe
    metadata.
    """


class CacheError(ReproError):
    """Base class for cache-level failures."""


class ObjectTooLargeError(CacheError):
    """The object cannot fit into the configured Lambda pool."""


class FunctionReclaimedError(TransientFaultError):
    """A simulated Lambda function instance was reclaimed by the provider.

    Retryable: a fresh invocation cold-starts a replacement container, so a
    reclaimed-mid-flight chunk transfer can be re-attempted.
    """

    def __init__(self, function_name: str):
        super().__init__(f"function {function_name!r} was reclaimed by the provider")
        self.function_name = function_name


class InvocationError(ReproError):
    """A simulated Lambda invocation failed (timeout, limit, platform error)."""


class InvocationFaultError(TransientFaultError, InvocationError):
    """An invocation failed transiently (injected fault or provider error)."""

    def __init__(self, function_name: str, reason: str = "injected fault"):
        super().__init__(f"invocation of {function_name!r} failed: {reason}")
        self.function_name = function_name
        self.reason = reason


class BackupError(ReproError):
    """The delta-sync backup protocol failed to complete."""


class BackupSyncInterruptedError(TransientFaultError, BackupError):
    """A backup peer failed mid-sync (reclaimed or faulted while delta-syncing).

    Retryable: the next backup round re-invokes a fresh peer and re-sends the
    still-unsynced delta, so losing the peer mid-sync is not a protocol error.
    """

    def __init__(self, node_id: str, reason: str):
        super().__init__(f"backup sync for node {node_id!r} interrupted: {reason}")
        self.node_id = node_id
        self.reason = reason


class WorkloadError(ReproError):
    """A workload trace could not be generated, parsed, or replayed."""


class ClusterError(ReproError):
    """Base class for cluster-orchestration failures (membership, scaling)."""


class TenantError(ClusterError):
    """A tenant was registered or addressed incorrectly."""


class QuotaExceededError(ClusterError):
    """A tenant request would exceed its byte quota."""

    def __init__(self, tenant_id: str, requested: int, limit: int):
        super().__init__(
            f"tenant {tenant_id!r} would store {requested} bytes "
            f"but is limited to {limit}"
        )
        self.tenant_id = tenant_id
        self.requested = requested
        self.limit = limit


class RateLimitedError(ClusterError):
    """A tenant request was throttled by its request-rate quota."""

    def __init__(self, tenant_id: str, rate_limit: float):
        super().__init__(
            f"tenant {tenant_id!r} exceeded its rate quota of "
            f"{rate_limit:g} requests/s"
        )
        self.tenant_id = tenant_id
        self.rate_limit = rate_limit

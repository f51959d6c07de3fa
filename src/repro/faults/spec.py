"""Declarative fault specifications and the schedule that sequences them.

A :class:`FaultSchedule` is a plain, validated list of fault specs — *what*
goes wrong and *when*, with no behaviour of its own.  The
:class:`~repro.faults.engine.ChaosEngine` turns each spec into clock events
on the deployment's event loop: one activation event at ``at_s`` and, for
window faults, one reversion event at ``at_s + duration_s``.

Every spec is frozen and fully determined by its fields plus the engine's
seeded RNG, so the same ``(seed, schedule)`` pair always injects the same
faults at the same virtual instants — the property the ``repro chaos``
command asserts by replaying a scenario twice and diffing fingerprints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise ConfigurationError(f"{name} must be in (0, 1], got {value}")


def _check_window(
    at_s: float, duration_s: float | None = None, name: str = "fault window duration"
) -> None:
    """Reject a start that is not a finite time >= 0, and a length (when the
    spec has one) that is not finite and positive: either would only fail
    when the engine schedules its events."""
    if not (math.isfinite(at_s) and at_s >= 0):
        raise ConfigurationError(f"fault time must be finite and non-negative, got {at_s}")
    if duration_s is not None and not (math.isfinite(duration_s) and duration_s > 0):
        raise ConfigurationError(f"{name} must be finite and positive, got {duration_s}")


@dataclass(frozen=True)
class ReclamationStorm:
    """A burst of correlated reclamations bypassing the periodic sweep.

    At ``at_s`` the engine forcibly reclaims ``fraction`` of the platform's
    alive function instances in one instant — the provider purging capacity,
    which no reclamation-policy sweep models.  With ``correlated=True`` the
    storm picks whole VM *hosts* and reclaims every instance on them (an AZ
    or rack event), which is strictly harsher on erasure stripes whose
    chunks shared a host.
    """

    at_s: float
    fraction: float = 0.1
    correlated: bool = False

    def __post_init__(self):
        _check_window(self.at_s)
        _check_fraction("storm fraction", self.fraction)


@dataclass(frozen=True)
class LinkDegradation:
    """Bandwidth degradation of a fraction of VM-host uplinks for a window.

    Each selected host's NIC capacity is multiplied by ``factor`` from
    ``at_s`` to ``at_s + duration_s``; in-flight flows are re-arbitrated at
    both edges of the window.
    """

    at_s: float
    duration_s: float
    host_fraction: float = 0.25
    factor: float = 0.1

    def __post_init__(self):
        _check_window(self.at_s, self.duration_s)
        _check_fraction("host fraction", self.host_fraction)
        if not 0.0 < self.factor < 1.0:
            raise ConfigurationError(
                f"degradation factor must be in (0, 1), got {self.factor}"
            )


#: Residual bandwidth factor of a blackholed link.  Never zero: flow finish
#: times divide by the rate, so a true zero would schedule events at
#: infinity; at one millionth of capacity any realistic chunk transfer
#: outlives its chunk deadline, which is what the hedging path needs.
BLACKHOLE_FACTOR = 1e-6


@dataclass(frozen=True)
class LinkBlackhole:
    """A window during which a fraction of host uplinks deliver ~nothing.

    Modelled as a :data:`BLACKHOLE_FACTOR` bandwidth multiplier rather than a
    disconnect, so in-flight flows stall (and trip chunk deadlines) instead
    of erroring out of the arbiter.
    """

    at_s: float
    duration_s: float
    host_fraction: float = 0.1

    def __post_init__(self):
        _check_window(self.at_s, self.duration_s)
        _check_fraction("host fraction", self.host_fraction)


@dataclass(frozen=True)
class InvocationFaults:
    """A window of Lambda invocation failures and/or inflated overheads.

    While active, every platform invocation independently fails with
    ``failure_probability`` (raising the retryable
    :class:`~repro.exceptions.InvocationFaultError`) and successful
    invocations pay ``extra_overhead_s`` on top of their cold/warm overhead.
    """

    at_s: float
    duration_s: float
    failure_probability: float = 0.2
    extra_overhead_s: float = 0.0

    def __post_init__(self):
        _check_window(self.at_s, self.duration_s)
        if not 0.0 <= self.failure_probability <= 1.0:
            raise ConfigurationError("failure probability must be in [0, 1]")
        if not (math.isfinite(self.extra_overhead_s) and self.extra_overhead_s >= 0):
            raise ConfigurationError(
                f"extra overhead must be finite and non-negative, got {self.extra_overhead_s}"
            )
        if self.failure_probability == 0.0 and self.extra_overhead_s == 0.0:
            raise ConfigurationError(
                "an invocation-fault window needs a failure probability or "
                "an extra overhead"
            )


@dataclass(frozen=True)
class StragglerInflation:
    """A window during which chunk transfers straggle far more often.

    Overrides every proxy's straggler model (probability and slowdown range)
    between ``at_s`` and ``at_s + duration_s`` — transient grey failure, as
    opposed to the steady-state straggler rate the paper measures.
    """

    at_s: float
    duration_s: float
    probability: float = 0.5
    min_factor: float = 4.0
    max_factor: float = 16.0

    def __post_init__(self):
        _check_window(self.at_s, self.duration_s)
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError("straggler probability must be in (0, 1]")
        if not 1.0 <= self.min_factor <= self.max_factor < math.inf:
            raise ConfigurationError(
                "straggler factors must be finite and satisfy 1 <= min <= max, "
                f"got {self.min_factor} and {self.max_factor}"
            )


@dataclass(frozen=True)
class ProxyCrash:
    """Crash one proxy at ``at_s`` and bring a replacement up ``down_s`` later.

    The crash goes through the deployment's ordinary membership path, so the
    rebalancer evacuates what it can, clients re-route over the surviving
    ring, and the recovery join triggers the usual rebalance — the fault
    tests the membership machinery rather than bypassing it.
    """

    at_s: float
    down_s: float = 60.0
    #: Index into the deployment's proxy list at crash time (clamped).
    proxy_index: int = 0

    def __post_init__(self):
        _check_window(self.at_s, self.down_s, "proxy down time")
        if self.proxy_index < 0:
            raise ConfigurationError("proxy index must be non-negative")


#: Every concrete fault spec type (for isinstance dispatch and docs).
FaultSpec = (
    ReclamationStorm
    | LinkDegradation
    | LinkBlackhole
    | InvocationFaults
    | StragglerInflation
    | ProxyCrash
)


#: Window kinds grouped by the state they write: both link faults set
#: ``HostNic.degradation_factor``, invocation faults arm the platform, and
#: straggler inflation overrides every proxy's straggler model.
_SHARED_STATE_WINDOWS = (
    (LinkDegradation, LinkBlackhole),
    (InvocationFaults,),
    (StragglerInflation,),
)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, validated collection of fault specs for one scenario.

    Windows that write the same state (two link faults, two invocation-fault
    windows, two straggler inflations) must be separated by a gap; a
    schedule in which they overlap or touch is a :class:`ConfigurationError`.
    """

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        allowed = (
            ReclamationStorm, LinkDegradation, LinkBlackhole,
            InvocationFaults, StragglerInflation, ProxyCrash,
        )
        for fault in self.faults:
            if not isinstance(fault, allowed):
                raise ConfigurationError(
                    f"unsupported fault spec {type(fault).__name__}"
                )
        object.__setattr__(
            self, "faults", tuple(sorted(self.faults, key=lambda f: f.at_s))
        )
        # A window's reversion writes the healthy value back (factor 1.0, no
        # invocation faults, no straggler override), not the value it found:
        # two windows over the same state would end each other early.  They
        # may not even touch — at equal timestamps the later window's
        # activation (scheduled at install) fires before the earlier one's
        # reversion (scheduled at activation) and would be undone by it.
        for kinds in _SHARED_STATE_WINDOWS:
            previous = None
            for fault in self.faults:
                if not isinstance(fault, kinds):
                    continue
                if previous is not None and fault.at_s <= previous.at_s + previous.duration_s:
                    raise ConfigurationError(
                        f"fault windows {previous} and {fault} overlap or touch; "
                        "both write the same state and the first to end would "
                        "end the other (leave a gap between them)"
                    )
                previous = fault

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def describe(self) -> list[dict[str, object]]:
        """One summary dict per fault, in activation order (for reports)."""
        out: list[dict[str, object]] = []
        for fault in self.faults:
            entry: dict[str, object] = {"kind": type(fault).__name__, "at_s": fault.at_s}
            for attr in ("duration_s", "down_s", "fraction", "host_fraction",
                         "factor", "failure_probability", "extra_overhead_s",
                         "probability", "min_factor", "max_factor",
                         "correlated", "proxy_index"):
                if hasattr(fault, attr):
                    entry[attr] = getattr(fault, attr)
            out.append(entry)
        return out

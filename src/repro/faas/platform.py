"""The simulated FaaS platform: function registry, invocation, auto-scaling,
reclamation sweeps, and billing.

This is the stand-in for AWS Lambda.  The cache layer above it only uses the
behaviours the real platform exposes:

* ``register_function`` / ``invoke`` — deploy a named function and invoke it;
  a warm instance is reused when one is idle, a cold start creates a new one.
* Concurrent invocations of the same function auto-scale into *peer
  replicas*, each with its own private state (the backup protocol's λ_d).
* Warm instances are cached between invocations and may be reclaimed at any
  time by the configured :class:`~repro.faas.reclamation.ReclamationPolicy`;
  reclamation destroys the instance's state.
* Every invocation is billed per the paper's pricing (invocation fee plus
  100 ms-rounded GB-seconds); the *caller* reports the execution duration,
  because in InfiniCache the Lambda runtime deliberately keeps itself alive
  to the end of a billing cycle (anticipatory billed-duration control).
* ``warm_up`` re-invokes a list of functions at one instant — the paper's
  keep-alive round (Section 4.1), billed as a 1 ms ``"warmup"`` call each.
  It leaves every instance, counter and ledger exactly as ``invoke`` +
  ``complete_invocation`` per name would, and bills each run of equal
  memory sizes with one
  :meth:`~repro.faas.billing.BillingModel.charge_invocations` call.
  ``invoke`` / ``invoke_instance`` / ``complete_invocation`` stay the
  per-request path of the cache nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import attrgetter
from typing import Callable, Sequence

from repro.exceptions import (
    ConfigurationError,
    FunctionReclaimedError,
    InvocationError,
    InvocationFaultError,
)
from repro.faas.billing import BillingModel
from repro.faas.function import FunctionInstance, FunctionState
from repro.faas.host import HostManager
from repro.faas.limits import (
    COLD_START_OVERHEAD,
    WARM_INVOCATION_OVERHEAD,
    validate_memory_bytes,
)
from repro.faas.reclamation import NoReclamationPolicy, ReclamationPolicy
from repro.obs.metrics import MetricRegistry
from repro.sim.loop import EventLoop, PeriodicTask
from repro.utils.units import MINUTE

# Looking a member up on the enum class goes through its metaclass (~75 ns on
# CPython 3.11); one invoke -> complete cycle compares states five times.
_IDLE = FunctionState.IDLE
_RUNNING = FunctionState.RUNNING
_RECLAIMED = FunctionState.RECLAIMED

#: What one keep-alive invocation reports as its duration: a no-op, which
#: bills one 100 ms cycle under the ``"warmup"`` category (Figure 13).
WARM_UP_DURATION_S = 0.001

_MEMORY_BYTES = attrgetter("config.memory_bytes")

#: Virtual seconds between two reclamation sweeps.
SWEEP_INTERVAL_S = 1 * MINUTE


@dataclass(frozen=True)
class FunctionConfig:
    """Deployment-time configuration of one named function."""

    name: str
    memory_bytes: int

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("function name must be non-empty")
        validate_memory_bytes(self.memory_bytes)


@dataclass
class InvocationResult:
    """What the platform returns to the invoker."""

    instance: FunctionInstance
    cold_start: bool
    invoke_overhead_s: float
    started_at: float


@dataclass
class _RegisteredFunction:
    config: FunctionConfig
    #: The alive instances in creation order; ``reclaim_instance`` drops a
    #: reclaimed one, so scans cost the warm pool, not the function's history.
    instances: list[FunctionInstance] = field(default_factory=list)
    next_instance_index: int = 0


class FaaSPlatform:
    """A deterministic, simulation-time AWS Lambda stand-in."""

    def __init__(
        self,
        simulator: EventLoop,
        reclamation_policy: ReclamationPolicy | None = None,
        billing: BillingModel | None = None,
        metrics: MetricRegistry | None = None,
    ):
        self.simulator = simulator
        self.billing = billing or BillingModel()
        self.metrics = metrics or MetricRegistry()
        self.reclamation_policy = reclamation_policy or NoReclamationPolicy()
        self.host_manager = HostManager()
        self._functions: dict[str, _RegisteredFunction] = {}
        self._reclaim_listeners: list[Callable[[FunctionInstance], None]] = []
        self._sweep_task = PeriodicTask(
            simulator, SWEEP_INTERVAL_S, self._sweep, label="faas.reclaim_sweep"
        )
        #: Fault-injection window state (set by the chaos engine): each
        #: invocation fails with ``_fault_failure_probability`` and pays
        #: ``_fault_extra_overhead_s`` of additional invoke overhead (the
        #: provider-side timeout/straggler-inflation model).  With the
        #: probability at its 0.0 default no RNG draw ever happens, so a
        #: fault-free run consumes no randomness here.
        self._fault_failure_probability = 0.0
        self._fault_extra_overhead_s = 0.0
        self._fault_rng = None

    # --- fault injection --------------------------------------------------------
    def set_invocation_faults(
        self,
        *,
        failure_probability: float = 0.0,
        extra_overhead_s: float = 0.0,
        rng=None,
    ) -> None:
        """Arm (or, with defaults, disarm) the invocation fault window.

        ``rng`` must be a seeded stream when ``failure_probability`` is
        positive; the chaos engine derives a dedicated child per fault spec
        so the draw order is independent of other subsystems.
        """
        if not 0.0 <= failure_probability <= 1.0:
            raise ConfigurationError("fault failure probability must be in [0, 1]")
        if extra_overhead_s < 0:
            raise ConfigurationError("fault extra overhead must be non-negative")
        if failure_probability > 0 and rng is None:
            raise ConfigurationError("injecting invocation failures requires an RNG")
        self._fault_failure_probability = failure_probability
        self._fault_extra_overhead_s = extra_overhead_s
        self._fault_rng = rng

    def clear_invocation_faults(self) -> None:
        """Disarm the invocation fault window (revert to healthy behaviour)."""
        self.set_invocation_faults()

    def _roll_invocation_fault(self, function_name: str) -> None:
        """Draw once from the armed fault window's RNG.

        Raises:
            InvocationFaultError: when the armed failure probability fires.
        """
        if self._fault_rng.random() < self._fault_failure_probability:
            self._raise_injected_fault(function_name)

    def _raise_injected_fault(self, function_name: str) -> None:
        self.metrics.counter("faas.injected_faults").increment()
        raise InvocationFaultError(function_name)

    # --- deployment -------------------------------------------------------------
    def register_function(self, name: str, memory_bytes: int) -> FunctionConfig:
        """Deploy a named function with the given memory configuration."""
        if name in self._functions:
            raise ConfigurationError(f"function {name!r} is already registered")
        config = FunctionConfig(name=name, memory_bytes=memory_bytes)
        self._functions[name] = _RegisteredFunction(config=config)
        return config

    def registered_functions(self) -> list[str]:
        """Names of all deployed functions."""
        return sorted(self._functions)

    def _require(self, name: str) -> _RegisteredFunction:
        registered = self._functions.get(name)
        if registered is None:
            raise InvocationError(f"function {name!r} is not registered")
        return registered

    # --- invocation --------------------------------------------------------------
    def invoke(self, name: str, *, force_new_instance: bool = False) -> InvocationResult:
        """Invoke a function and return the instance that serves the call.

        An idle warm instance is reused unless ``force_new_instance`` is set
        (or every warm instance is busy), in which case the platform cold
        starts a fresh peer replica — this is how concurrent invocations
        auto-scale and how the backup protocol obtains λ_d.

        The caller is responsible for (a) advancing simulation time to model
        the function's execution and (b) calling :meth:`complete_invocation`
        with the duration to bill.
        """
        registered = self._functions.get(name) or self._require(name)
        if self._fault_failure_probability > 0:
            self._roll_invocation_fault(name)
        if force_new_instance:
            instance, cold_start = self._cold_start(registered), True
        else:
            instance, cold_start = self._idle_or_cold_start(registered)
        if cold_start:
            overhead = COLD_START_OVERHEAD + WARM_INVOCATION_OVERHEAD
        else:
            overhead = WARM_INVOCATION_OVERHEAD
        overhead += self._fault_extra_overhead_s
        return self._start(instance, cold_start, overhead)

    def invoke_instance(self, instance: FunctionInstance) -> InvocationResult:
        """Invoke a *specific* warm instance.

        The cache layer tracks which replica of a function holds which data
        (primary vs backup peer), so it needs to direct invocations at a
        chosen instance rather than whichever idle instance the platform
        would pick.  Raises :class:`FunctionReclaimedError` if the instance
        no longer exists.
        """
        if instance.state is _RECLAIMED:
            raise FunctionReclaimedError(instance.instance_id)
        if self._fault_failure_probability > 0:
            self._roll_invocation_fault(instance.function_name)
        if instance.state is _RUNNING:
            raise InvocationError(
                f"instance {instance.instance_id} is already running an invocation"
            )
        return self._start(
            instance, False, WARM_INVOCATION_OVERHEAD + self._fault_extra_overhead_s
        )

    def _start(
        self, instance: FunctionInstance, cold_start: bool, overhead: float
    ) -> InvocationResult:
        """Mark ``instance`` running (``FunctionInstance.mark_invoked``, inline)."""
        now = self.simulator.clock.now
        instance.state = _RUNNING
        instance.last_invoked_at = now
        instance.invocation_count += 1
        self.metrics.counter("faas.invocations").increment()
        return InvocationResult(instance, cold_start, overhead, now)

    def complete_invocation(
        self,
        instance: FunctionInstance,
        duration_s: float,
        category: str = "serving",
        attribution: dict[str, float] | None = None,
    ) -> None:
        """Finish an invocation: bill it and return the instance to the warm pool.

        ``attribution`` carries the caller's per-tenant chargeback weights
        straight through to :meth:`BillingModel.charge_invocation`.
        """
        state = instance.state
        if state is not _RUNNING and state is not _RECLAIMED:
            raise InvocationError(
                f"instance {instance.instance_id} is not running (state={state})"
            )
        # A container the provider reclaimed mid-flight is still billed for
        # the duration it ran; it just has no warm pool to go back to.
        self.billing.charge_invocation(instance.memory_bytes, duration_s, category, attribution)
        if state is _RUNNING:
            instance.state = _IDLE
            instance.last_invoked_at = self.simulator.clock.now

    def warm_up(self, names: Sequence[str]) -> None:
        """Run one keep-alive round: re-invoke each named function, in order, now.

        Each name ends as ``invoke(name)`` followed by
        ``complete_invocation(instance, WARM_UP_DURATION_S, "warmup")`` would
        leave it: the same instance serves (the first idle one, else a cold
        start), the same fault draw is made, the instance ends ``IDLE`` with
        the same ``invocation_count`` / ``last_invoked_at``, and every
        counter reaches the same value, created at its first increment as
        before.  Billing books one :meth:`BillingModel.charge_invocations`
        per run of consecutive equal memory sizes, bit-equal to the single
        charges.

        Raises:
            InvocationError: an unknown name; nothing has changed.
            InvocationFaultError: when the armed fault window fires; the
                names before the faulted one are warmed and billed, as the
                per-call loop would leave them.
        """
        batch = [self._functions.get(name) or self._require(name) for name in names]
        probability = self._fault_failure_probability
        now = self.simulator.clock.now
        warmed = 0
        for registered in batch:
            if probability > 0 and self._fault_rng.random() < probability:
                break
            instance = self._idle_or_cold_start(registered)[0]
            instance.last_invoked_at = now
            instance.invocation_count += 1
            warmed += 1
        if warmed:
            # Counted once, after the cold starts: while ``faas.invocations``
            # does not exist no instance does either, so the per-call loop
            # would also have created it after the first cold start's counters.
            self.metrics.counter("faas.invocations").increment(warmed)
        charge = self.billing.charge_invocations
        for memory_bytes, run in groupby(map(_MEMORY_BYTES, islice(batch, warmed))):
            charge(memory_bytes, WARM_UP_DURATION_S, len(list(run)), "warmup")
        if warmed < len(batch):
            self._raise_injected_fault(batch[warmed].config.name)

    def _idle_or_cold_start(
        self, registered: _RegisteredFunction
    ) -> tuple[FunctionInstance, bool]:
        """The first idle instance, else a cold-started one; and whether it is new."""
        for instance in registered.instances:
            if instance.state is _IDLE:
                return instance, False
        return self._cold_start(registered), True

    def _cold_start(self, registered: _RegisteredFunction) -> FunctionInstance:
        """Create, place and count a fresh instance of ``registered``."""
        config = registered.config
        instance_id = f"{config.name}@{registered.next_instance_index}"
        registered.next_instance_index += 1
        instance = FunctionInstance(
            function_name=config.name,
            instance_id=instance_id,
            memory_bytes=config.memory_bytes,
            created_at=self.simulator.now,
        )
        host = self.host_manager.place_function(instance_id, config.memory_bytes)
        instance.host_id = host.host_id
        registered.instances.append(instance)
        self.metrics.counter("faas.instances_created").increment()
        self.metrics.counter("faas.cold_starts").increment()
        return instance

    # --- instance inspection -------------------------------------------------------
    def alive_instances(self, name: str | None = None) -> list[FunctionInstance]:
        """All alive instances, optionally restricted to one function name."""
        if name is not None:
            return list(self._require(name).instances)
        result: list[FunctionInstance] = []
        for registered in self._functions.values():
            result.extend(registered.instances)
        return result

    # --- reclamation ------------------------------------------------------------------
    def on_reclaim(self, listener: Callable[[FunctionInstance], None]) -> None:
        """Register a callback invoked whenever an instance is reclaimed."""
        self._reclaim_listeners.append(listener)

    def start_reclamation_sweeps(self) -> None:
        """Begin periodic reclamation sweeps on the simulator.

        Each sweep asks the policy which alive instances to reclaim.  The
        sweeps run as a :class:`~repro.sim.loop.PeriodicTask` timer, so
        starting is idempotent and stopping cancels the pending firing.
        """
        self._sweep_task.start()

    def _sweep(self) -> None:
        now = self.simulator.now
        alive = self.alive_instances()
        to_reclaim = self.reclamation_policy.select_reclaims(now, alive)
        for instance in to_reclaim:
            self.reclaim_instance(instance)
        self.metrics.series("faas.reclaims_per_sweep").record(now, float(len(to_reclaim)))

    def stop_reclamation_sweeps(self) -> None:
        """Cancel the pending sweep and stop rescheduling."""
        self._sweep_task.stop()

    def reclaim_instance(self, instance: FunctionInstance) -> None:
        """Forcibly reclaim a specific instance (also used by tests)."""
        if not instance.is_alive:
            return
        instance.reclaim(self.simulator.now)
        registered = self._functions[instance.function_name]
        registered.instances = [
            alive for alive in registered.instances if alive is not instance
        ]
        self.host_manager.remove_function(instance.instance_id)
        self.metrics.counter("faas.reclaims").increment()
        self.metrics.series("faas.reclaim_events").record(self.simulator.now, 1.0)
        for listener in self._reclaim_listeners:
            listener(instance)

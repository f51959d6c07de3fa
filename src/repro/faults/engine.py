"""The deterministic chaos engine: fault specs become clock events.

The engine composes with the discrete-event substrate instead of sitting
beside it: :meth:`ChaosEngine.install` schedules one activation event per
fault (plus a reversion event for window faults) on the deployment's event
loop, so faults interleave with requests, warm-ups, backups, and
reclamation sweeps in exact virtual-time order.

Determinism contract:

* every random choice (which instances a storm hits, which hosts a link
  fault degrades, which invocations fail) draws from a per-spec child of
  the engine's seeded RNG — ``rng.child("fault", index)`` — so adding or
  reordering faults never perturbs another fault's draws;
* with an *empty* schedule the engine schedules nothing and draws nothing:
  installing it on a deployment leaves the run event-for-event identical
  to one without a chaos engine at all.

Every injected fault is stamped as a ``fault.<kind>`` span through the
request-path tracer (when one is attached) and recorded as a
:class:`~repro.faults.report.FaultWindow` for the resilience report.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cache.config import StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.exceptions import SimulationError
from repro.faas.limits import HOST_NIC_BANDWIDTH
from repro.faults.report import FaultWindow
from repro.faults.spec import (
    BLACKHOLE_FACTOR,
    FaultSchedule,
    InvocationFaults,
    LinkBlackhole,
    LinkDegradation,
    ProxyCrash,
    ReclamationStorm,
    StragglerInflation,
)
from repro.utils.rng import SeededRNG


class ChaosEngine:
    """Injects a :class:`FaultSchedule` into a running deployment."""

    def __init__(
        self,
        deployment: InfiniCacheDeployment,
        schedule: FaultSchedule,
        rng: Optional[SeededRNG] = None,
    ):
        self.deployment = deployment
        self.schedule = schedule
        #: Derived off the deployment seed by default, so one experiment seed
        #: determines the workload *and* the chaos.
        self.rng = rng or deployment.rng.child("chaos")
        #: Every fault's active interval, appended as faults activate/revert.
        self.windows: list[FaultWindow] = []
        self._installed = False
        #: Open windows by spec index (activated, not yet reverted).
        self._active: dict[int, FaultWindow] = {}

    # ------------------------------------------------------------------ install
    def install(self) -> None:
        """Schedule every fault's activation (and reversion) event."""
        if self._installed:
            raise SimulationError("chaos engine is already installed")
        self._installed = True
        loop = self.deployment.simulator
        for index, spec in enumerate(self.schedule):
            if isinstance(spec, ReclamationStorm):
                loop.schedule_at(
                    spec.at_s,
                    lambda s=spec, i=index: self._storm(s, i),
                    label=f"chaos.storm.{index}",
                )
            elif isinstance(spec, (LinkDegradation, LinkBlackhole)):
                loop.schedule_at(
                    spec.at_s,
                    lambda s=spec, i=index: self._degrade_links(s, i),
                    label=f"chaos.link.{index}",
                )
            elif isinstance(spec, InvocationFaults):
                loop.schedule_at(
                    spec.at_s,
                    lambda s=spec, i=index: self._arm_invocation_faults(s, i),
                    label=f"chaos.invoke.{index}",
                )
            elif isinstance(spec, StragglerInflation):
                loop.schedule_at(
                    spec.at_s,
                    lambda s=spec, i=index: self._inflate_stragglers(s, i),
                    label=f"chaos.straggler.{index}",
                )
            elif isinstance(spec, ProxyCrash):
                loop.schedule_at(
                    spec.at_s,
                    lambda s=spec, i=index: self._crash_proxy(s, i),
                    label=f"chaos.proxy.{index}",
                )

    # ------------------------------------------------------------------ bookkeeping
    def _spec_rng(self, index: int) -> SeededRNG:
        return self.rng.child("fault", index)

    def _record(
        self, kind: str, index: int, started_at: float, ended_at: float,
        **details: object,
    ) -> FaultWindow:
        window = FaultWindow(
            kind=kind, index=index, started_at=started_at, ended_at=ended_at,
            details=dict(details),
        )
        self.windows.append(window)
        tracer = self.deployment.request_env.tracer
        tracer.record(f"fault.{kind}", started_at, ended_at, **details)
        self.deployment.metrics.counter("chaos.faults_injected").increment()
        return window

    # ------------------------------------------------------------------ storms
    def _storm(self, spec: ReclamationStorm, index: int) -> None:
        platform = self.deployment.platform
        now = self.deployment.simulator.now
        rng = self._spec_rng(index)
        alive = platform.alive_instances()
        by_id = {instance.instance_id: instance for instance in alive}
        victims: list[str] = []
        if spec.correlated:
            residents = platform.host_manager.residents_by_host()
            hosts = list(residents)
            count = max(1, math.ceil(spec.fraction * len(hosts))) if hosts else 0
            if count:
                picked = rng.sample_without_replacement(len(hosts), count)
                for host_index in sorted(picked):
                    victims.extend(residents[hosts[host_index]])
        else:
            ids = sorted(by_id)
            count = max(1, math.ceil(spec.fraction * len(ids))) if ids else 0
            if count:
                picked = rng.sample_without_replacement(len(ids), count)
                victims = [ids[i] for i in sorted(picked)]
        reclaimed = 0
        for instance_id in victims:
            instance = by_id.get(instance_id)
            if instance is not None and instance.is_alive:
                platform.reclaim_instance(instance)
                reclaimed += 1
        self._record(
            "storm", index, now, now,
            reclaimed=reclaimed, correlated=spec.correlated,
        )

    # ------------------------------------------------------------------ link faults
    def _degrade_links(self, spec: LinkDegradation | LinkBlackhole, index: int) -> None:
        deployment = self.deployment
        now = deployment.simulator.now
        rng = self._spec_rng(index)
        factor = (
            BLACKHOLE_FACTOR if isinstance(spec, LinkBlackhole) else spec.factor
        )
        kind = "blackhole" if isinstance(spec, LinkBlackhole) else "degradation"
        fabric = deployment.transfer_model.fabric
        host_ids = sorted(deployment.platform.host_manager.hosts)
        count = max(1, math.ceil(spec.host_fraction * len(host_ids))) if host_ids else 0
        picked: list[str] = []
        if count:
            indices = rng.sample_without_replacement(len(host_ids), count)
            picked = [host_ids[i] for i in sorted(indices)]
        for host_id in picked:
            nic = fabric.host(host_id, HOST_NIC_BANDWIDTH)
            nic.degradation_factor = factor
            deployment.flows.reassess_host(host_id)
        window = self._record(
            kind, index, now, now + spec.duration_s,
            hosts=len(picked), factor=factor,
        )
        self._active[index] = window
        deployment.simulator.schedule_at(
            now + spec.duration_s,
            lambda: self._restore_links(picked, index),
            label=f"chaos.link_restore.{index}",
        )

    def _restore_links(self, host_ids: list[str], index: int) -> None:
        deployment = self.deployment
        fabric = deployment.transfer_model.fabric
        for host_id in host_ids:
            nic = fabric.host(host_id, HOST_NIC_BANDWIDTH)
            nic.degradation_factor = 1.0
            deployment.flows.reassess_host(host_id)
        self._active.pop(index, None)

    # ------------------------------------------------------------------ invocation faults
    def _arm_invocation_faults(self, spec: InvocationFaults, index: int) -> None:
        platform = self.deployment.platform
        now = self.deployment.simulator.now
        platform.set_invocation_faults(
            failure_probability=spec.failure_probability,
            extra_overhead_s=spec.extra_overhead_s,
            rng=self._spec_rng(index) if spec.failure_probability > 0 else None,
        )
        window = self._record(
            "invocation", index, now, now + spec.duration_s,
            failure_probability=spec.failure_probability,
            extra_overhead_s=spec.extra_overhead_s,
        )
        self._active[index] = window
        self.deployment.simulator.schedule_at(
            now + spec.duration_s,
            lambda: self._disarm_invocation_faults(index),
            label=f"chaos.invoke_clear.{index}",
        )

    def _disarm_invocation_faults(self, index: int) -> None:
        self.deployment.platform.clear_invocation_faults()
        self._active.pop(index, None)

    # ------------------------------------------------------------------ stragglers
    def _inflate_stragglers(self, spec: StragglerInflation, index: int) -> None:
        now = self.deployment.simulator.now
        override = StragglerModel(
            probability=spec.probability,
            min_factor=spec.min_factor,
            max_factor=spec.max_factor,
        )
        affected = list(self.deployment.proxies)
        for proxy in affected:
            proxy.straggler_override = override
        window = self._record(
            "straggler", index, now, now + spec.duration_s,
            probability=spec.probability, proxies=len(affected),
        )
        self._active[index] = window
        self.deployment.simulator.schedule_at(
            now + spec.duration_s,
            lambda: self._deflate_stragglers(affected, index),
            label=f"chaos.straggler_clear.{index}",
        )

    def _deflate_stragglers(self, proxies: list, index: int) -> None:
        for proxy in proxies:
            proxy.straggler_override = None
        self._active.pop(index, None)

    # ------------------------------------------------------------------ proxy crash
    def _crash_proxy(self, spec: ProxyCrash, index: int) -> None:
        deployment = self.deployment
        now = deployment.simulator.now
        if len(deployment.proxies) <= 1:
            # Refusing to kill the last proxy: record a zero-impact window so
            # the schedule's accounting still lines up.
            self._record("proxy_crash", index, now, now, skipped=True)
            return
        position = min(spec.proxy_index, len(deployment.proxies) - 1)
        proxy_id = deployment.proxies[position].proxy_id
        deployment.remove_proxy(proxy_id)
        window = self._record(
            "proxy_crash", index, now, now + spec.down_s, proxy_id=proxy_id,
        )
        self._active[index] = window
        deployment.simulator.schedule_at(
            now + spec.down_s,
            lambda: self._recover_proxy(index),
            label=f"chaos.proxy_recover.{index}",
        )

    def _recover_proxy(self, index: int) -> None:
        self.deployment.add_proxy()
        self._active.pop(index, None)

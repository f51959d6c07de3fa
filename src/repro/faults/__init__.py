"""Deterministic fault injection for the simulated InfiniCache deployment.

``repro.faults`` is the chaos side of the reproduction: declarative
:mod:`fault specs <repro.faults.spec>` sequenced by a
:class:`~repro.faults.spec.FaultSchedule`, injected as clock events by the
:class:`~repro.faults.engine.ChaosEngine`, and accounted for by the
:class:`~repro.faults.report.ResilienceReport`.  See ``docs/robustness.md``
for the full model and the request-path hardening it exercises.
"""

from repro.faults.engine import ChaosEngine
from repro.faults.report import FaultWindow
from repro.faults.scenario import run_chaos_scenario
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

__all__ = [
    "BLACKHOLE_FACTOR",
    "ChaosEngine",
    "FaultSchedule",
    "FaultWindow",
    "InvocationFaults",
    "LinkBlackhole",
    "LinkDegradation",
    "ProxyCrash",
    "ReclamationStorm",
    "StragglerInflation",
    "run_chaos_scenario",
]

"""Declarative scenario engine: spec → grid → parallel deterministic runs.

The icarus-style experiment orchestration layer (ROADMAP item 1): frozen
scenario specifications (:mod:`repro.scenarios.spec`), a registry of
pluggable data collectors (:mod:`repro.scenarios.collectors`), a runner
that expands a grid and executes every ``(cell, replication)`` serially or
across forked worker processes with byte-identical fingerprints either way
(:mod:`repro.scenarios.runner`), and a built-in scenario library beyond the
paper's figures (:mod:`repro.scenarios.library`).

The ``cluster_scale`` and ``autoscale_policies`` experiments execute
through this package (:mod:`repro.scenarios.cluster`).
"""

from repro.scenarios.collectors import DATA_COLLECTORS, register_collector
from repro.scenarios.execute import ScenarioOutcome, execute_cell
from repro.scenarios.runner import CellResult, GridResult, ScenarioRunner, run_grid
from repro.scenarios.spec import (
    Axis,
    ClusterScenarioSpec,
    FixedObjectSize,
    ScenarioCell,
    ScenarioGrid,
    ScenarioSpec,
    TenantShare,
    TenantSpec,
    default_tenants,
)

__all__ = [
    "Axis",
    "CellResult",
    "ClusterScenarioSpec",
    "DATA_COLLECTORS",
    "FixedObjectSize",
    "GridResult",
    "ScenarioCell",
    "ScenarioGrid",
    "ScenarioOutcome",
    "ScenarioRunner",
    "ScenarioSpec",
    "TenantShare",
    "TenantSpec",
    "default_tenants",
    "execute_cell",
    "register_collector",
    "run_grid",
]

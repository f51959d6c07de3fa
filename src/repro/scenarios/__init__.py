"""Declarative scenario engine: spec → grid → parallel deterministic runs.

The icarus-style experiment orchestration layer (ROADMAP item 1): frozen
scenario specifications whose grids expand once, at declaration
(:mod:`repro.scenarios.spec`), a registry of pluggable data collectors
(:mod:`repro.scenarios.collectors`), a runner that executes every
``(cell, replication)`` serially or across forked worker processes with
byte-identical fingerprints either way (:mod:`repro.scenarios.runner`), and
a built-in scenario library beyond the paper's figures
(:mod:`repro.scenarios.library`).

Every cell is a single-deployment workload replay.  The multi-tenant
cluster replay is an experiment, :mod:`repro.experiments.cluster_scale`,
not a grid: the runner seeds each cell from its coordinates, and that
experiment replays at the experiment seed.
"""

from repro.scenarios.collectors import DATA_COLLECTORS, register_collector
from repro.scenarios.execute import ScenarioOutcome, execute_cell
from repro.scenarios.runner import CellResult, GridResult, ScenarioRunner, run_grid
from repro.scenarios.spec import (
    Axis,
    FixedObjectSize,
    ScenarioCell,
    ScenarioGrid,
    ScenarioSpec,
    TenantShare,
)

__all__ = [
    "Axis",
    "CellResult",
    "DATA_COLLECTORS",
    "FixedObjectSize",
    "GridResult",
    "ScenarioCell",
    "ScenarioGrid",
    "ScenarioOutcome",
    "ScenarioRunner",
    "ScenarioSpec",
    "TenantShare",
    "execute_cell",
    "register_collector",
    "run_grid",
]

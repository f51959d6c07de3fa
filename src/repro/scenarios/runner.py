"""The scenario runner: execute every (cell, replication) of a grid.

Execution units are independent by construction — each gets a child seed
derived in the **parent** from the grid name, the base seed, and the cell's
coordinate key (never from the expansion index or the worker that happens
to pick it up) — so serial and ``multiprocessing`` runs produce
byte-identical per-cell fingerprints and metric digests.  The differential
suite (``tests/test_scenarios_differential.py``) pins exactly that.

Parallel mode hands the units to :func:`repro.utils.fanout.fan_out`, the
forked worker pool the figure suite also uses; the worker entry point
:func:`_run_unit` is a top-level function and every payload/result a
picklable dataclass.  A worker that dies fails the run with a
:class:`~repro.exceptions.SimulationError` instead of hanging it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.experiments.harness import ExperimentHarness
from repro.scenarios.collectors import metric_digest, resolve_collectors
from repro.scenarios.execute import execute_cell
from repro.scenarios.spec import ScenarioCell, ScenarioGrid
from repro.utils.fanout import fan_out

__all__ = ["CellResult", "GridResult", "ScenarioRunner", "run_grid"]


@dataclass(frozen=True)
class _WorkUnit:
    """One (cell, replication) execution, fully described and picklable."""

    cell: ScenarioCell
    replication: int
    seed: int
    collector_names: tuple[str, ...]


@dataclass(frozen=True)
class CellResult:
    """What one (cell, replication) produced — picklable, digest-pinned."""

    cell_index: int
    cell_key: str
    replication: int
    seed: int
    #: The replay driver's deterministic fingerprint for this unit.
    fingerprint: str
    #: ``collector -> metric -> value``.
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    #: ``collector -> sha256[:16]`` over the rounded metric dict.
    digests: dict[str, str] = field(default_factory=dict)

    def flat_metrics(self) -> dict[str, float]:
        """``<collector>.<metric>`` → value, for tables and JSON."""
        return {
            f"{collector}.{metric}": value
            for collector, metrics in sorted(self.metrics.items())
            for metric, value in sorted(metrics.items())
        }


def _run_unit(unit: _WorkUnit) -> CellResult:
    """Worker entry point: execute one unit start to finish."""
    outcome = execute_cell(unit.cell.spec, unit.seed)
    collectors = resolve_collectors(unit.collector_names)
    metrics = {name: fn(outcome) for name, fn in collectors.items()}
    return CellResult(
        cell_index=unit.cell.index,
        cell_key=unit.cell.key(),
        replication=unit.replication,
        seed=unit.seed,
        fingerprint=outcome.report.fingerprint(),
        metrics=metrics,
        digests={name: metric_digest(m) for name, m in metrics.items()},
    )


@dataclass
class GridResult:
    """Every unit result of one grid run, plus the derived summary."""

    grid_name: str
    seed: int
    parallel: int
    cells: tuple[ScenarioCell, ...]
    results: list[CellResult]

    def results_for(self, cell_key: str) -> list[CellResult]:
        return [r for r in self.results if r.cell_key == cell_key]

    def fingerprints(self) -> dict[str, str]:
        """``"<cell key>#<replication>"`` → replay fingerprint (pinnable)."""
        return {
            f"{result.cell_key}#{result.replication}": result.fingerprint
            for result in self.results
        }

    def summary_rows(self) -> list[dict[str, object]]:
        """Per-cell rows averaging every flat metric over replications."""
        rows: list[dict[str, object]] = []
        for cell in self.cells:
            reps = self.results_for(cell.key())
            if not reps:
                continue
            row: dict[str, object] = {"cell": cell.key()}
            row.update(dict(cell.coords))
            totals: dict[str, list[float]] = {}
            for result in reps:
                for metric, value in result.flat_metrics().items():
                    totals.setdefault(metric, []).append(value)
            for metric, values in sorted(totals.items()):
                row[metric] = sum(values) / len(values)
            row["replications"] = len(reps)
            rows.append(row)
        return rows

    def to_json(self) -> dict[str, object]:
        """The grid summary document (``repro scenarios run --output``)."""
        return {
            "schema": "repro.scenarios.grid_summary/v1",
            "grid": self.grid_name,
            "seed": self.seed,
            "parallel": self.parallel,
            "cells": len(self.cells),
            "replications_per_cell": (
                len(self.results) // len(self.cells) if self.cells else 0
            ),
            "fingerprints": self.fingerprints(),
            "digests": {
                f"{r.cell_key}#{r.replication}": dict(sorted(r.digests.items()))
                for r in self.results
            },
            "summary": self.summary_rows(),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class ScenarioRunner:
    """Run every unit of a :class:`ScenarioGrid`, serially or not.

    ``parallel=1`` executes in-process (and is the reference ordering);
    ``parallel=N`` fans units out over N forked workers.  Seeds are
    derived up front in the parent, so the two modes are interchangeable —
    the result list is canonically ordered by ``(cell_index, replication)``
    either way.
    """

    def __init__(self, grid: ScenarioGrid, seed: int = 2020):
        self.grid = grid
        self.seed = seed
        self.harness = ExperimentHarness(f"scenarios.{grid.name}", seed)

    def work_units(self) -> list[_WorkUnit]:
        names = tuple(self.grid.collectors)
        return [
            _WorkUnit(
                cell=cell,
                replication=rep,
                # The coordinate key — not the expansion index — feeds the
                # seed, so adding/reordering unrelated axis values never
                # changes an existing cell's stream.
                seed=self.harness.seed_for("cell", cell.key(), "rep", rep),
                collector_names=names,
            )
            for cell in self.grid.cells
            for rep in range(self.grid.replications)
        ]

    def run(self, parallel: int = 1) -> GridResult:
        if parallel < 1:
            raise ConfigurationError(f"parallel must be >= 1, got {parallel}")
        results = fan_out(_run_unit, self.work_units(), workers=parallel)
        return GridResult(
            grid_name=self.grid.name,
            seed=self.seed,
            parallel=parallel,
            cells=self.grid.cells,
            results=results,
        )


def run_grid(grid: ScenarioGrid, seed: int = 2020, parallel: int = 1) -> GridResult:
    """Convenience wrapper: build a runner and run the whole grid."""
    return ScenarioRunner(grid, seed=seed).run(parallel=parallel)

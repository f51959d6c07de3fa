"""Unit tests for the declarative scenario engine: specs, grids, seeding.

The seeding contract is the load-bearing piece: a cell's replication seeds
derive from its **coordinate key** (sorted ``axis=label`` pairs), never
from its position in the expansion order or the worker that executes it.
These tests pin injectivity, stability under axis re-ordering and
unrelated-value insertion, and independence from the parallelism level.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.harness import ExperimentHarness
from repro.faults.scenario import demo_resilience
from repro.faults.spec import FaultSchedule, InvocationFaults, ReclamationStorm
from repro.scenarios import (
    Axis,
    ScenarioGrid,
    ScenarioRunner,
    ScenarioSpec,
    TenantShare,
    execute,
)
from repro.scenarios.cli import main as scenarios_cli
from repro.scenarios.collectors import DATA_COLLECTORS, resolve_collectors
from repro.scenarios.library import SCENARIOS, get_grid
from repro.workload.arrivals import ClosedLoopArrivals, PoissonArrivals
from repro.workload.popularity import ScanMix, StaticZipf, ZipfChurn


def small_grid(axes=(), **kwargs) -> ScenarioGrid:
    return ScenarioGrid(
        name="unit",
        base=ScenarioSpec(arrival=PoissonArrivals(rate_rps=1.0, duration_s=10.0)),
        axes=axes,
        **kwargs,
    )


ARRIVAL_AXIS = Axis("arrival", (
    ("slow", PoissonArrivals(rate_rps=1.0, duration_s=10.0)),
    ("fast", PoissonArrivals(rate_rps=4.0, duration_s=10.0)),
))
POPULARITY_AXIS = Axis("popularity", (
    ("zipf", StaticZipf(exponent=0.9)),
    ("scan", ScanMix(exponent=0.9, scan_fraction=0.3)),
))


class TestSpecValidation:
    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(tenants=(TenantShare("a"), TenantShare("a")))

    def test_time_dependent_popularity_needs_open_loop(self):
        with pytest.raises(ConfigurationError, match="open-loop"):
            ScenarioSpec(arrival=ClosedLoopArrivals(), popularity=ZipfChurn())

    def test_faults_without_resilience_run_and_account(self, monkeypatch):
        # One supervised request path: a deployment with no resilience
        # budget still completes every request under faults, so the spec
        # accepts the schedule and the cell runs to a drained loop.
        schedule = FaultSchedule((
            ReclamationStorm(at_s=5.0, fraction=0.5),
            InvocationFaults(at_s=6.0, duration_s=5.0, failure_probability=0.3),
        ))
        spec = ScenarioSpec(
            arrival=PoissonArrivals(rate_rps=4.0, duration_s=20.0), faults=schedule
        )
        assert spec.resilience is None
        ScenarioSpec(faults=schedule, resilience=demo_resilience())
        deployments = []
        build = execute._build_deployment

        def capture(*args):
            deployments.append(build(*args))
            return deployments[-1]

        monkeypatch.setattr(execute, "_build_deployment", capture)
        outcome = execute.execute_cell(spec, seed=7)
        report = outcome.report
        assert report.resilience["faas.injected_faults"] > 0
        assert report.resilience["faas.reclaims"] > 0
        assert report.requests == outcome.offered_requests
        assert report.hits + report.misses + report.degraded_hits == report.requests
        assert len(report.samples) == report.requests
        (deployment,) = deployments
        assert deployment.flows.active_count == 0

    def test_axis_label_charset_enforced(self):
        with pytest.raises(ConfigurationError):
            Axis("arrival", (("a=b", PoissonArrivals()),))
        with pytest.raises(ConfigurationError):
            Axis("bad,name", (("x", PoissonArrivals()),))

    def test_grid_rejects_unknown_spec_field(self):
        with pytest.raises(ConfigurationError, match="unknown spec field"):
            small_grid(axes=(Axis("nope", (("x", 1),)),))

    def test_grid_rejects_unknown_collector_at_run(self):
        with pytest.raises(ConfigurationError, match="unknown collectors"):
            resolve_collectors(("requests", "nonexistent"))

    def test_invalid_cell_fails_at_declaration_time(self):
        # The axis substitutes a time-dependent popularity under a
        # closed-loop base arrival: expansion validates every cell eagerly.
        with pytest.raises(ConfigurationError, match="open-loop"):
            ScenarioGrid(
                name="bad",
                base=ScenarioSpec(arrival=ClosedLoopArrivals()),
                axes=(Axis("popularity", (("churn", ZipfChurn()),)),),
            )

    def test_specs_and_cells_are_picklable(self):
        grid = small_grid(axes=(ARRIVAL_AXIS, POPULARITY_AXIS))
        for cell in grid.cells:
            clone = pickle.loads(pickle.dumps(cell))
            assert clone.key() == cell.key()


class TestGridExpansion:
    def test_cartesian_product_order_and_count(self):
        grid = small_grid(axes=(ARRIVAL_AXIS, POPULARITY_AXIS))
        cells = grid.cells
        assert len(cells) == grid.cell_count == 4
        assert [cell.coords for cell in cells] == [
            (("arrival", "slow"), ("popularity", "zipf")),
            (("arrival", "slow"), ("popularity", "scan")),
            (("arrival", "fast"), ("popularity", "zipf")),
            (("arrival", "fast"), ("popularity", "scan")),
        ]

    def test_key_is_sorted_and_index_free(self):
        grid = small_grid(axes=(POPULARITY_AXIS, ARRIVAL_AXIS))
        keys = {cell.key() for cell in grid.cells}
        assert "arrival=slow,popularity=zipf" in keys

    def test_axis_values_substitute_into_spec(self):
        grid = small_grid(axes=(ARRIVAL_AXIS,))
        fast = [c for c in grid.cells if c.coords[0][1] == "fast"]
        assert fast[0].spec.arrival.rate_rps == 4.0

    def test_cells_are_expanded_once_at_declaration(self):
        grid = small_grid(axes=(ARRIVAL_AXIS, POPULARITY_AXIS), replications=2)
        units = ScenarioRunner(grid, seed=2020).work_units()
        assert len(units) == 2 * len(grid.cells) == 8
        assert all(
            unit.cell is grid.cells[index // 2] for index, unit in enumerate(units)
        )


class TestSeedDerivation:
    def test_seeds_injective_over_cell_and_replication(self):
        grid = small_grid(axes=(ARRIVAL_AXIS, POPULARITY_AXIS), replications=3)
        units = ScenarioRunner(grid, seed=2020).work_units()
        seeds = [unit.seed for unit in units]
        assert len(set(seeds)) == len(seeds) == 12

    def test_seeds_stable_under_axis_reordering(self):
        forward = small_grid(axes=(ARRIVAL_AXIS, POPULARITY_AXIS))
        backward = small_grid(axes=(POPULARITY_AXIS, ARRIVAL_AXIS))
        seed_by_key = {
            (u.cell.key(), u.replication): u.seed
            for u in ScenarioRunner(forward, seed=7).work_units()
        }
        for unit in ScenarioRunner(backward, seed=7).work_units():
            assert seed_by_key[(unit.cell.key(), unit.replication)] == unit.seed

    def test_seeds_stable_when_unrelated_axis_value_added(self):
        wider_arrivals = Axis("arrival", ARRIVAL_AXIS.values + (
            ("extra", PoissonArrivals(rate_rps=9.0, duration_s=10.0)),
        ))
        narrow = small_grid(axes=(ARRIVAL_AXIS, POPULARITY_AXIS))
        wide = small_grid(axes=(wider_arrivals, POPULARITY_AXIS))
        narrow_seeds = {
            (u.cell.key(), u.replication): u.seed
            for u in ScenarioRunner(narrow, seed=3).work_units()
        }
        wide_seeds = {
            (u.cell.key(), u.replication): u.seed
            for u in ScenarioRunner(wide, seed=3).work_units()
        }
        for key, seed in narrow_seeds.items():
            assert wide_seeds[key] == seed

    def test_seeds_differ_across_base_seed_and_grid_name(self):
        grid = small_grid(axes=(ARRIVAL_AXIS,))
        a = [u.seed for u in ScenarioRunner(grid, seed=1).work_units()]
        b = [u.seed for u in ScenarioRunner(grid, seed=2).work_units()]
        assert a != b

    def test_seeds_are_the_experiment_sweep_formula(self):
        grid = small_grid(axes=(ARRIVAL_AXIS,), replications=2)
        harness = ExperimentHarness(f"scenarios.{grid.name}", 2020)
        for unit in ScenarioRunner(grid, seed=2020).work_units():
            assert unit.seed == harness.seed_for(
                "cell", unit.cell.key(), "rep", unit.replication
            )

    def test_replications_get_distinct_seeds(self):
        grid = small_grid(replications=4)
        seeds = [u.seed for u in ScenarioRunner(grid, seed=11).work_units()]
        assert len(set(seeds)) == 4


class TestLibrary:
    def test_registry_grids_are_well_formed(self):
        for name, grid in SCENARIOS.items():
            assert grid.name == name
            assert grid.cell_count == math.prod(len(axis.values) for axis in grid.axes)
            resolve_collectors(grid.collectors)

    def test_acceptance_scale_grid_present(self):
        # The issue's acceptance bar: a grid of >= 24 cells, >= 2 replications.
        grid = get_grid("tenant_interference")
        assert grid.cell_count >= 24
        assert grid.replications >= 2

    def test_unknown_grid_error_lists_names(self):
        with pytest.raises(ConfigurationError, match="smoke"):
            get_grid("does-not-exist")

    def test_collector_registry_has_core_set(self):
        assert {"requests", "latency", "cost", "throughput",
                "resilience"} <= set(DATA_COLLECTORS)


class TestCli:
    WORKLOAD_GRIDS = [
        "bursty_arrivals", "fault_windows", "flash_crowd", "popularity_churn",
        "scan_resistance", "smoke", "tenant_interference",
    ]

    def test_list_prints_the_workload_grids(self, capsys):
        assert scenarios_cli(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # Title, header and rule, then one row per grid.
        assert [line.split()[0] for line in lines[3:]] == self.WORKLOAD_GRIDS
        assert sorted(SCENARIOS) == self.WORKLOAD_GRIDS

    def test_describe_prints_every_cell(self, capsys):
        assert scenarios_cli(["describe", "tenant_interference"]) == 0
        out = capsys.readouterr().out
        cells = [line.split()[-1] for line in out.splitlines() if line.startswith("    [")]
        grid = get_grid("tenant_interference")
        assert "  cells (24):" in out.splitlines()
        assert cells == [cell.key() for cell in grid.cells]
        assert len(cells) == 24

"""Differential tests: serial vs. multiprocess scenario runs are identical.

The scenario runner's core promise is that parallelism is an execution
detail: a grid fanned out over forked workers must produce byte-identical
per-unit replay fingerprints, collector metric digests, and summary JSON
(minus the ``parallel`` field itself) compared to the in-process run.
These tests execute the library's ``smoke`` grid (2x2 cells x 2
replications) both ways and diff everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios.library import get_grid
from repro.scenarios.runner import ScenarioRunner


@pytest.fixture(scope="module")
def smoke_runs():
    runner = ScenarioRunner(get_grid("smoke"), seed=2020)
    return runner.run(parallel=1), runner.run(parallel=4)


class TestSerialVsParallel:
    def test_fingerprints_byte_identical(self, smoke_runs):
        serial, parallel = smoke_runs
        assert serial.fingerprints() == parallel.fingerprints()
        # 4 cells x 2 replications, all distinct workloads.
        assert len(serial.fingerprints()) == 8
        assert len(set(serial.fingerprints().values())) == 8

    def test_collector_digests_identical(self, smoke_runs):
        serial, parallel = smoke_runs
        for left, right in zip(serial.results, parallel.results):
            assert (left.cell_key, left.replication) == (right.cell_key, right.replication)
            assert left.digests == right.digests
            assert left.metrics == right.metrics
            assert left.seed == right.seed

    def test_summary_json_identical_modulo_parallel_field(self, smoke_runs):
        serial, parallel = smoke_runs
        left, right = serial.to_json(), parallel.to_json()
        assert left.pop("parallel") == 1
        assert right.pop("parallel") == 4
        assert left == right

    def test_results_canonically_ordered(self, smoke_runs):
        _serial, parallel = smoke_runs
        order = [(r.cell_index, r.replication) for r in parallel.results]
        assert order == sorted(order)

    def test_rerun_is_deterministic(self, smoke_runs):
        serial, _parallel = smoke_runs
        again = ScenarioRunner(get_grid("smoke"), seed=2020).run(parallel=1)
        assert again.fingerprints() == serial.fingerprints()

    def test_different_seed_changes_fingerprints(self, smoke_runs):
        serial, _parallel = smoke_runs
        other = ScenarioRunner(get_grid("smoke"), seed=2021).run(parallel=1)
        assert other.fingerprints() != serial.fingerprints()


def test_a_grid_fed_on_stdin_runs_parallel_with_serial_fingerprints():
    """A script fed on stdin has no file a worker could re-import.  Spawned
    workers died in their bootstrap there; forked ones inherit the script's
    state and run it, whatever the calling script looks like."""
    script = (
        "from repro.scenarios import run_grid\n"
        "from repro.scenarios.library import get_grid\n"
        "serial = run_grid(get_grid('smoke'), 2020, parallel=1)\n"
        "parallel = run_grid(get_grid('smoke'), 2020, parallel=2)\n"
        "assert parallel.fingerprints() == serial.fingerprints()\n"
        "print(len(parallel.fingerprints()), 'fingerprints equal')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-"],
        input=script,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "8 fingerprints equal"

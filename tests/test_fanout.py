"""The fan-out helper and the experiments that run their units through it.

``fan_out`` must be indistinguishable from a list comprehension: results in
unit order, a unit's exception raised to the caller, and a dead worker
failing the run instead of hanging it.  Every experiment that fans out is
replayed both ways at ``golden`` scale — forked, and in-process by
reporting one usable CPU — and must agree on its fingerprints, its report
text and its ``--metrics`` export.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    autoscale_policies,
    chaos_availability,
    figure8,
    figure9,
    figure13,
    figure14,
    figure15,
    figure16,
    production,
    registry,
    table1,
)
from repro.experiments.harness import ExperimentHarness
from repro.network.flows import FlowInterval
from repro.obs.metrics import MetricRegistry
from repro.utils import fanout
from repro.utils.fanout import fan_out, usable_cpus
from repro.workload.replay import ConcurrentReplayReport, RequestSample


def _pid(_unit: int) -> int:
    return os.getpid()


def _square(unit: int) -> int:
    return unit * unit


def _reject_three(unit: int) -> int:
    if unit == 3:
        raise ValueError(f"unit {unit} rejected")
    return unit


class TestFanOut:
    def test_results_come_back_in_unit_order(self):
        assert fan_out(_square, list(range(20)), workers=2) == [n * n for n in range(20)]

    def test_two_workers_run_outside_this_process(self):
        pids = fan_out(_pid, list(range(8)), workers=2)
        assert os.getpid() not in pids

    def test_one_usable_cpu_runs_the_units_here(self, monkeypatch):
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 1)
        assert fan_out(_pid, list(range(4))) == [os.getpid()] * 4

    def test_one_unit_runs_here_whatever_the_worker_count(self):
        assert fan_out(_pid, [0], workers=8) == [os.getpid()]

    def test_no_units_no_pool(self):
        assert fan_out(_pid, []) == []

    def test_usable_cpus_reads_the_affinity_mask(self):
        expected = (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        )
        assert usable_cpus() == expected >= 1

    def test_a_unit_exception_reaches_the_caller(self):
        with pytest.raises(ValueError, match="unit 3 rejected") as error:
            fan_out(_reject_three, list(range(6)), workers=2)
        # It crossed a process boundary: the worker's traceback is chained on.
        assert "_RemoteTraceback" in type(error.value.__cause__).__name__

    def test_a_dead_worker_fails_the_run_instead_of_hanging(self):
        """``os._exit`` skips every handler, so the pool only sees a worker
        vanish.  ``multiprocessing.Pool`` would wait for its result forever,
        so the run happens in a child with a timeout: a regression fails
        here instead of hanging the suite."""
        script = (
            "import os\n"
            "from repro.utils.fanout import fan_out\n"
            "def die(unit):\n"
            "    if unit == 2:\n"
            "        os._exit(3)\n"
            "    return unit\n"
            "fan_out(die, list(range(6)), workers=2)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-"],
            input=script,
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
        assert "repro.exceptions.SimulationError" in result.stderr
        assert "a worker process died while running die over 6 units" in result.stderr


class TestFlowIntervalPickle:
    def test_round_trip_is_equal(self):
        intervals = [
            FlowInterval(7, "chunk", "host-1", "proxy-0", 1_000_000, 0.25, 1.5, True, 1e6),
            FlowInterval(8, "chunk", "host-2", "proxy-0", 1_000_000, 0.25, 0.75, False, 4.2e5),
        ]
        assert pickle.loads(pickle.dumps(intervals)) == intervals

    def test_slotted(self):
        interval = FlowInterval(1, "x", "h", "p", 1, 0.0, 1.0, True, 1.0)
        assert not hasattr(interval, "__dict__")
        with pytest.raises(AttributeError):
            interval.size_bytes = 2  # type: ignore[misc]


class TestRequestSamplePickle:
    """The production and autoscaling reports carry these back from workers."""

    def test_round_trip_is_equal(self):
        samples = [
            RequestSample("c-0", "obj-1", 2_000_000, 0.5, 0.75, hit=True, hosts_touched=4),
            RequestSample("c-1", "obj-2", 3_000, 1.0, 3.25, hit=False, reset=True,
                          recovery=False, degraded=True),
        ]
        restored = pickle.loads(pickle.dumps(samples))
        assert restored == samples
        assert [sample.latency_s for sample in restored] == [0.25, 2.25]
        assert type(restored[0]) is RequestSample

    def test_frozen(self):
        sample = RequestSample("c", "k", 1, 0.0, 1.0, hit=True)
        with pytest.raises(AttributeError):
            sample.hit = False  # type: ignore[misc]


def _golden(name: str) -> dict:
    return dict(registry.EXPERIMENTS[name].scales["golden"])


def _production_reports(results) -> list[str]:
    return [
        module.format_report(module.from_production(results))
        for module in (figure13, figure14, figure15, figure16, table1)
    ]


#: experiment -> (run it at golden scale, render every report it feeds,
#: the harness its ``--metrics`` series are labelled with, if any).
#: Figure 8 drives no replay driver, so it has no fingerprints; its whole
#: result — every per-hour and per-sweep reclaim count — is compared instead.
_FANNED_OUT = {
    "figure8": (
        lambda: figure8.run(**_golden("figure8")),
        lambda result: [
            figure8.format_report(result), figure9.format_report(figure9.run(result)),
        ],
        None,
    ),
    "production": (
        lambda: production.run(**_golden("production")),
        _production_reports,
        "production",
    ),
    "chaos_availability": (
        lambda: chaos_availability.run(**_golden("chaos_availability")),
        lambda result: [chaos_availability.format_report(result)],
        None,
    ),
    "autoscale_policies": (
        lambda: autoscale_policies.run(**_golden("autoscale_policies")),
        lambda result: [autoscale_policies.format_report(result)],
        "autoscale_policies",
    ),
}


@pytest.mark.parametrize("name", sorted(_FANNED_OUT))
def test_fanned_out_and_in_process_runs_are_identical(monkeypatch, name):
    # Fresh simulations on both sides, whatever the memos already hold.
    for module in (figure8, production):
        monkeypatch.setattr(module, "_run_cached", module._run_cached.__wrapped__)
    run, render, harness = _FANNED_OUT[name]

    def replay(cpus: int):
        monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
        metrics = MetricRegistry()
        monkeypatch.setattr(ExperimentHarness, "default_metrics", metrics)
        result = run()
        pinned = result if name == "figure8" else result.fingerprints
        return pinned, render(result), metrics.to_prometheus()

    fanned, in_process = replay(2), replay(1)
    assert fanned[0] and fanned[0] == in_process[0]
    assert fanned[1] == in_process[1]
    assert fanned[2] == in_process[2]
    if harness is not None:
        # Recorded in this process, not lost in a worker's copy of the registry.
        assert f'experiment="{harness}"' in fanned[2]


class TestProductionShipsDigests:
    """Each production replay is hashed by the unit that ran it and comes
    back without its flow intervals, whichever process ran it."""

    @pytest.fixture(scope="class")
    def runs(self):
        """The golden production run forked (as shipped), and in-process
        with the intervals kept (the full reports the digests must match)."""
        simulate = production._run_cached.__wrapped__
        scale = _golden("production")["scale"]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fanout, "usable_cpus", lambda: 2)
            shipped = simulate(scale)
            patch.setattr(fanout, "usable_cpus", lambda: 1)
            patch.setattr(ConcurrentReplayReport, "release_flow_intervals", lambda self: None)
            full = simulate(scale)
        return shipped, full

    @staticmethod
    def _reports(results) -> dict[str, ConcurrentReplayReport]:
        return {
            label: getattr(results, label.replace(".", "_")) for label in production._REPLAYS
        }

    def test_shipped_digest_is_the_full_runs(self, runs):
        shipped, full = runs
        full_reports = self._reports(full)
        assert set(shipped.fingerprints) == set(full_reports) and len(full_reports) == 5
        for label, report in self._reports(shipped).items():
            digest = full_reports[label].fingerprint()
            assert report.fingerprint() == digest == shipped.fingerprints[label], label

    def test_shipped_reports_hold_no_intervals_and_count_them_dropped(self, runs):
        shipped, full = runs
        full_reports = self._reports(full)
        retired = {
            label: len(report.flow_intervals) + report.flow_intervals_dropped
            for label, report in full_reports.items()
        }
        assert retired["infinicache.all"] > 0
        for label, report in self._reports(shipped).items():
            assert len(report.flow_intervals) == 0, label
            assert report.flow_intervals_dropped == retired[label], label
            # Everything a figure reads is still there.
            assert report.samples == full_reports[label].samples
            assert report.hourly_cost == full_reports[label].hourly_cost
            assert report.peak_active_flows == full_reports[label].peak_active_flows

    def test_shipped_results_pickle_to_under_a_quarter(self, runs):
        shipped, full = runs
        assert len(pickle.dumps(shipped)) < len(pickle.dumps(full)) / 4

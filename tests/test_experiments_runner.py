"""Tests for the experiment registry and the runner CLI on top of it."""

import inspect
import re
from functools import lru_cache

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import figure8, production, registry, runner
from repro.experiments.harness import ExperimentHarness
from repro.obs.metrics import MetricRegistry


def _count_runs(monkeypatch, module) -> list:
    """Swap ``module._run_cached`` for a fresh memo around a counting copy of
    the real body, so a test sees how often the source is really simulated
    whatever an earlier test left in the process-wide cache."""
    calls = []
    simulate = module._run_cached.__wrapped__

    @lru_cache(maxsize=None)
    def counting(*args):
        calls.append(args)
        return simulate(*args)

    monkeypatch.setattr(module, "_run_cached", counting)
    return calls


class TestRegistry:
    def test_every_paper_artifact_is_declared_in_publication_order(self):
        assert registry.names() == [
            "figure1", "figure4", "figure8", "figure9", "figure11", "figure12",
            "figure13", "figure14", "figure15", "figure16", "table1", "figure17",
            "availability", "chaos_availability", "cluster_scale", "autoscale_policies",
        ]

    def test_every_rendered_experiment_declares_golden_and_quick(self):
        for name in registry.names():
            assert {"golden", "quick"} <= set(registry.scales(name)), name

    def test_report_is_the_quick_object_where_the_two_are_equal(self):
        declared = registry.EXPERIMENTS["production"].scales
        assert declared["report"] is declared["quick"]
        assert "smoke" not in {s for name in registry.names() for s in registry.scales(name)}

    def test_run_takes_only_what_a_scale_varies(self):
        """Paper settings are module constants: a ``run()`` takes what a
        scale varies, the ``seed`` seed sweeps vary, and, for
        ``cluster_scale``, what ``repro chargeback`` and
        ``autoscale_policies`` pass.  A projection takes its source's result."""
        parameters = {
            name: list(inspect.signature(experiment.run).parameters)
            for name, experiment in registry.EXPERIMENTS.items()
        }
        projections = {
            name: parameters.pop(name)
            for name, experiment in registry.EXPERIMENTS.items() if experiment.source
        }
        assert parameters == {
            "figure1": ["duration_hours", "datacenters"],
            "figure4": ["pool_sizes", "requests_per_pool", "seed"],
            "figure8": ["fleet_size", "hours", "strategies", "seed"],
            "figure11": ["lambda_memories_mib", "rs_codes", "object_sizes",
                         "requests_per_cell", "seed"],
            "figure12": ["client_counts", "requests_per_client", "seed"],
            "production": ["scale"],
            "figure17": [],
            "availability": [],
            "chaos_availability": ["seed", "clients", "rounds"],
            "cluster_scale": ["tenants", "duration_s", "seed", "autoscaler_config",
                              "harness"],
            "autoscale_policies": ["duration_s", "seed"],
        }
        assert all(len(names) == 1 for names in projections.values()), projections

    def test_an_undeclared_scale_names_the_declared_ones(self):
        with pytest.raises(ConfigurationError) as error:
            registry.build("cluster_scale", "paper")
        assert "'paper'" in str(error.value)
        assert "['golden', 'quick']" in str(error.value)
        # A projection has exactly the scales of its source.
        with pytest.raises(ConfigurationError, match="golden.*quick.*report.*paper"):
            registry.build("figure9", "smoke")

    def test_an_unknown_name_lists_the_available_ones(self):
        with pytest.raises(ConfigurationError) as error:
            registry.build("figure99", "golden")
        assert "'figure99'" in str(error.value)
        assert "figure13" in str(error.value) and "table1" in str(error.value)

    @pytest.mark.parametrize("order", [
        ("figure8", "figure9"), ("figure9", "figure8"),
        ("production", "figure13", "table1"), ("figure14", "production", "figure16"),
    ], ids=" then ".join)
    def test_a_source_is_simulated_once_whichever_experiment_asks_first(
        self, monkeypatch, order
    ):
        calls = {
            "figure8": _count_runs(monkeypatch, figure8),
            "production": _count_runs(monkeypatch, production),
        }
        for name in order + order:
            registry.build(name, "golden")
        expected = {"figure8": 1, "production": 0} if "figure8" in order else {
            "figure8": 0, "production": 1,
        }
        assert {source: len(runs) for source, runs in calls.items()} == expected


class TestRunAll:
    def test_run_selected_experiments_writes_reports(self, tmp_path):
        reports = runner.run_all(output_dir=tmp_path, only=["figure17", "availability"])
        assert set(reports) == {"figure17", "availability"}
        for name, report in reports.items():
            assert (tmp_path / f"{name}.txt").exists()
            assert (tmp_path / f"{name}.txt").read_text().strip() == report.strip()
        assert "crossover" in reports["figure17"]
        assert "availability" in reports["availability"]

    def test_one_experiment_at_a_time_still_shares_the_figure8_simulation(
        self, tmp_path, monkeypatch
    ):
        """``bench/workloads.py`` calls ``run_all(only=[name])`` once per
        experiment: a second simulation for figure9 would be its regression."""
        calls = _count_runs(monkeypatch, figure8)
        monkeypatch.setitem(
            registry.EXPERIMENTS["figure8"].scales, "quick", {"fleet_size": 6, "hours": 2}
        )
        reports = runner.run_all(output_dir=tmp_path, only=["figure9"])
        reports.update(runner.run_all(output_dir=tmp_path, only=["figure8"]))
        again = runner.run_all(output_dir=tmp_path, only=["figure9"])
        assert calls == [(6, 2, figure8.DEFAULT_STRATEGIES, 808)]
        assert again["figure9"] == reports["figure9"]
        assert "Figure 8" in reports["figure8"]
        assert "Figure 9" in reports["figure9"]

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            runner.run_all(output_dir=tmp_path, only=["figure99"])

    def test_an_empty_selection_is_rejected_not_read_as_everything(self, tmp_path):
        with pytest.raises(ValueError, match="no experiment selected"):
            runner.run_all(output_dir=tmp_path / "out", only=[])
        assert not (tmp_path / "out").exists()


class TestCli:
    def test_list_option(self, capsys):
        assert runner.main(["--list"]) == 0
        captured = capsys.readouterr()
        assert "figure13" in captured.out
        assert "table1" in captured.out

    def test_cli_runs_selected_experiment(self, tmp_path, capsys):
        exit_code = runner.main(
            ["--output-dir", str(tmp_path), "--only", "availability"]
        )
        assert exit_code == 0
        assert (tmp_path / "availability.txt").exists()
        assert "availability" in capsys.readouterr().out

    def test_unknown_experiment_is_a_usage_error_not_a_traceback(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["--output-dir", str(tmp_path / "out"), "--only", "bogus", "figure17"])
        assert exit_info.value.code == 2
        error_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert "unknown experiments ['bogus']" in error_line
        assert "figure17" in error_line and "table1" in error_line
        assert not (tmp_path / "out").exists()

    def test_only_without_a_name_is_a_usage_error_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # the default --output-dir would land here
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["--only"])
        assert exit_info.value.code == 2
        assert "expected at least one argument" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["--only", "figure17", "--fingerprints", "FILE/dir/f.json"],
        ["--only", "figure17", "--metrics", "FILE/dir/m.prom"],
        ["--only", "figure17", "--output-dir", "FILE"],
        ["chaos", "--clients", "2", "--rounds", "4", "--json", "FILE/r.json"],
        ["trace", "--clients", "2", "--requests", "1", "--output", "FILE/t.json"],
        ["perf", "--quick", "--output", "FILE/b.json"],
        ["scenarios", "run", "smoke", "--output", "FILE/s.json"],
        pytest.param(["--only", "figure17", "--fingerprints", "DIR"], id="--only --fingerprints DIR"),
        pytest.param(["--only", "figure17", "--metrics", "DIR"], id="--only --metrics DIR"),
        pytest.param(["perf", "--quick", "--output", "DIR"], id="perf --quick --output DIR"),
    ], ids=lambda argv: " ".join(argv[:2] + argv[-2:-1]))
    def test_unwritable_output_path_exits_2_not_a_traceback(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        """A path under a regular file is unwritable for every user, root
        included, and an existing directory cannot be written as a file.
        The runner's three and ``perf`` fail before anything has run."""
        from repro import __main__ as cli
        from repro.experiments import perf

        monkeypatch.chdir(tmp_path)
        blocker = tmp_path / "FILE"
        blocker.write_text("not a directory")
        (tmp_path / "DIR").mkdir()
        built = []
        monkeypatch.setattr(runner, "build", lambda name, scale: built.append(name))
        monkeypatch.setattr(perf, "run_suite", lambda **kwargs: built.append("perf"))
        argv = [arg.replace("FILE", str(blocker)).replace("DIR", str(tmp_path / "DIR"))
                for arg in argv]
        assert cli.main(argv) == 2
        error_lines = capsys.readouterr().err.strip().splitlines()
        assert error_lines[-1].startswith("error: ")
        assert "FILE" in error_lines[-1] or "DIR" in error_lines[-1]
        assert "Traceback" not in "\n".join(error_lines)
        assert built == []
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize("argv", [
        ["trace", "--clients", "0"],
        ["trace", "--requests", "0"],
        ["chaos", "--clients", "0", "--rounds", "1"],
        ["chargeback", "--requests", "0"],
        ["chargeback", "--duration", "-5"],
        pytest.param(["chargeback", "--duration", "nan"], id="chargeback --duration nan"),
        pytest.param(["chargeback", "--duration", "inf"], id="chargeback --duration inf"),
        ["perf", "--quick", "--regression-baseline", "/nonexistent.json"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_bad_subcommand_arguments_exit_2_not_a_traceback(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        """Status 1 is a failed gate; arguments a subcommand cannot run with
        are status 2 and one ``error:`` line, from argparse or from the
        library's ``ConfigurationError`` / ``WorkloadError``."""
        from repro import __main__ as cli

        monkeypatch.chdir(tmp_path)  # `perf` would write BENCH_perf.json here
        try:
            status = cli.main(argv)
        except SystemExit as exit_info:
            status = exit_info.code
        assert status == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err.strip().splitlines()[-1]
        assert "FAIL" not in captured.err
        assert not list(tmp_path.iterdir())


class TestTraceSmoke:
    """``repro trace`` is also the determinism and wire-overlap smoke check
    (it absorbed the former ``sim-smoke`` subcommand)."""

    ARGV = ["trace", "--clients", "4", "--requests", "2"]

    def test_same_seed_runs_match_and_clients_overlap_on_the_wire(self, tmp_path, capsys):
        from repro import __main__ as cli

        output = tmp_path / "trace.json"
        assert cli.main([*self.ARGV, "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "fingerprint parity with untraced run: OK" in out
        assert int(re.search(r"overlapping pairs=(\d+)", out).group(1)) > 0
        assert output.exists()

    def test_no_wire_overlap_fails_before_writing_the_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro import __main__ as cli
        from repro.workload.replay import ConcurrentReplayReport

        monkeypatch.setattr(ConcurrentReplayReport, "overlapping_flow_pairs", lambda self: 0)
        output = tmp_path / "trace.json"
        assert cli.main([*self.ARGV, "--output", str(output)]) == 1
        assert "FAIL: concurrent clients produced no overlapping transfers" in (
            capsys.readouterr().err
        )
        assert not output.exists()

    def test_sim_smoke_is_no_longer_a_subcommand(self, capsys):
        from repro import __main__ as cli

        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sim-smoke"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: sim-smoke" in capsys.readouterr().err


def _series(prometheus_text: str, name: str) -> dict[tuple[str, str], float]:
    """``(experiment, run) -> value`` of every sample of one metric."""
    pattern = re.compile(
        rf'^{name}\{{experiment="([^"]+)",run="([^"]+)"\}} (\S+)$', re.MULTILINE
    )
    return {
        (experiment, run): float(value)
        for experiment, run, value in pattern.findall(prometheus_text)
    }


class TestClusterReplayMetrics:
    """The ``--metrics`` series the cluster replays publish match their reports."""

    def _export(self, monkeypatch, *experiments: str):
        metrics = MetricRegistry()
        monkeypatch.setattr(ExperimentHarness, "default_metrics", metrics)
        results = {name: registry.build(name, "golden") for name in experiments}
        return results, metrics.to_prometheus()

    def test_cluster_scale_publishes_the_bill_it_reports(self, monkeypatch):
        results, text = self._export(monkeypatch, "cluster_scale")
        result = results["cluster_scale"]
        assert result.total_cost > 0
        assert result.replay_report.total_cost == result.total_cost
        assert _series(text, "experiment_total_cost_dollars") == {
            ("cluster_scale", "replay"): result.total_cost,
        }

    def test_each_autoscale_policy_publishes_its_own_series(self, monkeypatch):
        results, text = self._export(monkeypatch, "cluster_scale", "autoscale_policies")
        cluster, policies = results["cluster_scale"], results["autoscale_policies"]
        expected = {("cluster_scale", "replay"): cluster.replay_report}
        expected.update({
            ("autoscale_policies", f"{policy}.replay"): run.replay_report
            for policy, run in policies.runs.items()
        })
        assert _series(text, "experiment_requests") == {
            key: float(report.requests) for key, report in expected.items()
        }
        assert _series(text, "experiment_hit_ratio") == {
            key: report.hit_ratio for key, report in expected.items()
        }
        assert _series(text, "experiment_total_cost_dollars") == {
            key: report.total_cost for key, report in expected.items()
        }
        assert set(policies.fingerprints) == {
            f"{policy}.replay" for policy in policies.runs
        }

"""Tests for the experiment runner CLI."""

import pytest

from repro.experiments import runner


class TestRunnerSpecs:
    def test_every_paper_artifact_has_a_spec(self):
        specs = runner._quick_specs()
        expected = {
            "figure1", "figure4", "figure8", "figure9", "figure11", "figure12",
            "figure13", "figure14", "figure15", "figure16", "figure17",
            "table1", "availability", "cluster_scale", "autoscale_policies",
            "chaos_availability",
        }
        assert expected == set(specs)


class TestRunAll:
    def test_run_selected_experiments_writes_reports(self, tmp_path):
        reports = runner.run_all(output_dir=tmp_path, only=["figure17", "availability"])
        assert set(reports) == {"figure17", "availability"}
        for name, report in reports.items():
            assert (tmp_path / f"{name}.txt").exists()
            assert (tmp_path / f"{name}.txt").read_text().strip() == report.strip()
        assert "crossover" in reports["figure17"]
        assert "availability" in reports["availability"]

    def test_figure8_and_figure9_share_one_simulation(self, tmp_path, monkeypatch):
        calls = []
        real_run = runner.figure8.run

        def counting_run(**kwargs):
            calls.append(kwargs)
            return real_run(fleet_size=6, hours=2)

        monkeypatch.setattr(runner.figure8, "run", counting_run)
        runner._figure8_result.cache_clear()
        try:
            reports = runner.run_all(output_dir=tmp_path, only=["figure8", "figure9"])
            assert calls == [{"fleet_size": 150, "hours": 24}]
            # A later call in the same process (bench's one-experiment-at-a-
            # time loop) reuses the result too.
            again = runner.run_all(output_dir=tmp_path, only=["figure9"])
            assert len(calls) == 1
            assert again["figure9"] == reports["figure9"]
        finally:
            runner._figure8_result.cache_clear()
        assert "Figure 8" in reports["figure8"]
        assert "Figure 9" in reports["figure9"]

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            runner.run_all(output_dir=tmp_path, only=["figure99"])


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

    @pytest.mark.parametrize("argv", [
        ["sim-smoke", "--clients", "0"],
        ["sim-smoke", "--requests", "0"],
        ["chaos", "--clients", "0", "--rounds", "1"],
        ["chargeback", "--requests", "0"],
        ["chargeback", "--duration", "-5"],
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

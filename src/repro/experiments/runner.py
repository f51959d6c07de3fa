"""Run every experiment from one entry point.

``python -m repro.experiments.runner`` (or ``python -m repro``) regenerates
all the paper's tables and figures and writes the text reports to a results
directory.  It exists so a user can reproduce the whole evaluation without
going through pytest, and so CI can diff the regenerated reports.

Every experiment is declared once in :mod:`repro.experiments.registry`;
this module builds each at the ``quick`` scale, renders it and collects
the driver fingerprints.  The replay-driving experiments build their
deployments and drivers themselves and record each run in an
:class:`repro.experiments.harness.ExperimentHarness`, which owns seeding
and report fingerprinting.
``--fingerprints PATH`` writes the collected per-figure fingerprints as
JSON; the ``figures-smoke`` CI job uploads that file as an artifact so
fingerprint drift between commits is visible at a glance.
``--metrics PATH`` additionally collects every harness's labelled metrics
into one shared :class:`~repro.obs.metrics.MetricRegistry` and
writes it in Prometheus text exposition format when the run finishes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from repro.experiments.harness import ExperimentHarness
from repro.experiments.registry import EXPERIMENTS, build, names
from repro.obs.metrics import MetricRegistry
from repro.utils.report import prepare_output_file

__all__ = ["run_all", "main"]


def run_all(
    output_dir: str | pathlib.Path = "experiment_results",
    only: list[str] | None = None,
    fingerprints_path: str | pathlib.Path | None = None,
    metrics_path: str | pathlib.Path | None = None,
) -> dict[str, str]:
    """Run the selected experiments and write one report file per experiment.

    Args:
        output_dir: directory to write ``<name>.txt`` reports into.
        only: optional list of experiment names (default: all of them).
        fingerprints_path: optional JSON file collecting every experiment's
            driver fingerprints (the figures-smoke CI artifact).
        metrics_path: optional Prometheus text-exposition file; when given,
            every :class:`ExperimentHarness` the experiments construct
            publishes into one shared registry that is written here.

    Returns:
        Mapping from experiment name to its formatted report.
    """
    selected = names()
    if only is not None:
        if not only:
            raise ValueError("no experiment selected; only=None runs all of them")
        unknown = sorted(set(only) - set(selected))
        if unknown:
            raise ValueError(f"unknown experiments {unknown}; available: {sorted(selected)}")
        selected = [name for name in selected if name in only]

    registry = MetricRegistry() if metrics_path is not None else None
    out_path = pathlib.Path(output_dir)
    # Before the first experiment, so minutes of replay are never thrown away
    # on a path that cannot be written.
    out_path.mkdir(parents=True, exist_ok=True)
    for path in (fingerprints_path, metrics_path):
        if path is not None:
            prepare_output_file(path)
    reports: dict[str, str] = {}
    fingerprints: dict[str, dict[str, str]] = {}
    previous_default = ExperimentHarness.default_metrics
    if registry is not None:
        ExperimentHarness.default_metrics = registry
    try:
        for name in selected:
            # Progress logging only — never feeds simulation state.
            started = time.time()  # repro: allow[D102]
            result = build(name, "quick")
            report = EXPERIMENTS[name].format_report(result)
            reports[name] = report
            # Per-run driver fingerprints, empty for analytic experiments.
            fingerprints[name] = dict(getattr(result, "fingerprints", {}) or {})
            (out_path / f"{name}.txt").write_text(report + "\n", encoding="utf-8")
            print(
                f"[{name}] done in {time.time() - started:.1f}s -> "  # repro: allow[D102]
                f"{out_path / (name + '.txt')}"
            )
    finally:
        ExperimentHarness.default_metrics = previous_default
    if fingerprints_path is not None:
        payload = {"schema": "repro.figure_fingerprints/1", "experiments": fingerprints}
        pathlib.Path(fingerprints_path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"(wrote fingerprints to {fingerprints_path})")
    if registry is not None:
        pathlib.Path(metrics_path).write_text(registry.to_prometheus(), encoding="utf-8")
        print(f"(wrote metrics to {metrics_path})")
    return reports


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the InfiniCache paper's tables and figures.",
    )
    parser.add_argument(
        "--output-dir", default="experiment_results",
        help="directory for the generated report files (default: experiment_results/)",
    )
    parser.add_argument(
        "--only", nargs="+", default=None, metavar="NAME",
        help="run only the named experiments (e.g. --only figure13 table1)",
    )
    parser.add_argument(
        "--fingerprints", default=None, metavar="PATH",
        help="also write every experiment's driver fingerprints as JSON "
        "(the figures-smoke CI artifact)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="also write every harness's labelled metrics in Prometheus "
        "text exposition format",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiment names and exit",
    )
    args = parser.parse_args(argv)
    available = sorted(names())
    if args.list:
        for name in available:
            print(name)
        return 0
    unknown = sorted(set(args.only or ()) - set(available))
    if unknown:
        parser.error(f"unknown experiments {unknown}; available: {available}")
    run_all(
        output_dir=args.output_dir,
        only=args.only,
        fingerprints_path=args.fingerprints,
        metrics_path=args.metrics,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run every experiment from one entry point.

``python -m repro.experiments.runner`` (or ``python -m repro``) regenerates
all the paper's tables and figures and writes the text reports to a results
directory.  It exists so a user can reproduce the whole evaluation without
going through pytest, and so CI can diff the regenerated reports.

Every experiment is described by an :class:`ExperimentSpec` — build the
result, render the report, expose the driver fingerprints — and the
replay-driving experiments construct their workloads through the shared
:class:`repro.experiments.harness.ExperimentHarness` (re-exported here),
which owns seeding, driver construction, and report fingerprinting.
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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.experiments import (
    autoscale_policies,
    availability,
    chaos_availability,
    cluster_scale,
    figure1,
    figure4,
    figure8,
    figure9,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    production,
    table1,
)
from repro.experiments.harness import ExperimentHarness
from repro.obs.metrics import MetricRegistry
from repro.utils.units import MB

__all__ = ["ExperimentHarness", "ExperimentSpec", "run_all", "main"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: how to run it, render it, and fingerprint it."""

    name: str
    build: Callable[[], object]
    render: Callable[[object], str]

    def fingerprints(self, result: object) -> dict[str, str]:
        """Per-run driver fingerprints, empty for analytic experiments."""
        return dict(getattr(result, "fingerprints", {}) or {})


@lru_cache(maxsize=1)
def _figure8_result() -> figure8.Figure8Result:
    """The quick-scale Figure 8 simulation, run once per process.

    Figure 9 only re-bins these per-sweep counts, so both registry entries
    share the one (read-only) result.
    """
    return figure8.run(fleet_size=150, hours=24)


def _quick_specs() -> dict[str, ExperimentSpec]:
    """Experiment name -> spec producing the formatted report (quick scale)."""
    shared_scale = production.ProductionScale()

    def shared_results():
        return production.run(shared_scale)

    entries: dict[str, tuple[Callable[[], object], Callable[[object], str]]] = {
        "figure1": (lambda: figure1.run(duration_hours=12.0), figure1.format_report),
        "figure4": (
            lambda: figure4.run(pool_sizes=(20, 60, 120, 200), requests_per_pool=20),
            figure4.format_report,
        ),
        "figure8": (_figure8_result, figure8.format_report),
        "figure9": (
            lambda: figure9.run(figure8_result=_figure8_result()), figure9.format_report,
        ),
        "figure11": (
            lambda: figure11.run(
                lambda_memories_mib=(256, 1024, 3008),
                object_sizes=(10 * MB, 100 * MB),
                requests_per_cell=10,
            ),
            figure11.format_report,
        ),
        "figure12": (
            lambda: figure12.run(client_counts=(1, 2, 4, 8, 10), requests_per_client=12),
            figure12.format_report,
        ),
        "figure13": (
            lambda: figure13.from_production(shared_results()), figure13.format_report,
        ),
        "figure14": (
            lambda: figure14.from_production(shared_results()), figure14.format_report,
        ),
        "figure15": (
            lambda: figure15.from_production(shared_results()), figure15.format_report,
        ),
        "figure16": (
            lambda: figure16.from_production(shared_results()), figure16.format_report,
        ),
        "table1": (
            lambda: table1.from_production(shared_results()), table1.format_report,
        ),
        "figure17": (figure17.run, figure17.format_report),
        "availability": (availability.run, availability.format_report),
        "chaos_availability": (
            lambda: chaos_availability.run(clients=5, rounds=50),
            chaos_availability.format_report,
        ),
        "cluster_scale": (
            lambda: cluster_scale.run(duration_s=300.0), cluster_scale.format_report,
        ),
        "autoscale_policies": (
            lambda: autoscale_policies.run(duration_s=240.0),
            autoscale_policies.format_report,
        ),
    }
    return {
        name: ExperimentSpec(name=name, build=build, render=render)
        for name, (build, render) in entries.items()
    }


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
    specs = _quick_specs()
    if only:
        unknown = sorted(set(only) - set(specs))
        if unknown:
            raise ValueError(f"unknown experiments {unknown}; available: {sorted(specs)}")
        specs = {name: spec for name, spec in specs.items() if name in only}

    registry = MetricRegistry() if metrics_path is not None else None
    out_path = pathlib.Path(output_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    reports: dict[str, str] = {}
    fingerprints: dict[str, dict[str, str]] = {}
    previous_default = ExperimentHarness.default_metrics
    if registry is not None:
        ExperimentHarness.default_metrics = registry
    try:
        for name, spec in specs.items():
            # Progress logging only — never feeds simulation state.
            started = time.time()  # repro: allow[D102]
            result = spec.build()
            report = spec.render(result)
            reports[name] = report
            fingerprints[name] = spec.fingerprints(result)
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
        "--only", nargs="*", default=None, metavar="NAME",
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
    available = sorted(_quick_specs())
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

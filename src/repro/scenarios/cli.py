"""``python -m repro scenarios`` — the declarative scenario engine CLI.

Subcommands:

* ``list`` — every registered grid with cell/replication counts;
* ``describe NAME`` — the grid's axes, cells, and collector set;
* ``run NAME [--parallel N] [--seed N] [--replications N] [--output PATH]``
  — expand and execute the grid, print the summary table, and optionally
  write the grid summary JSON (fingerprints + collector digests + rows).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.exceptions import ConfigurationError
from repro.scenarios.library import SCENARIOS, get_grid
from repro.scenarios.runner import GridResult, ScenarioRunner
from repro.utils.report import format_table

__all__ = ["main"]

#: Summary-table columns (flat metric keys) shown by ``run``; everything
#: else still lands in ``--output`` JSON.
_TABLE_METRICS = (
    "requests.completed",
    "requests.hit_ratio",
    "latency.p50_ms",
    "latency.p99_ms",
    "cost.total_usd",
)


def _list(_args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(SCENARIOS):
        grid = SCENARIOS[name]
        rows.append([
            name,
            grid.cell_count,
            grid.replications,
            grid.run_count,
            grid.description,
        ])
    print(format_table(
        ["scenario", "cells", "reps", "runs", "description"],
        rows,
        title="Scenario library",
    ))
    return 0


def _describe(args: argparse.Namespace) -> int:
    grid = get_grid(args.name)
    print(f"scenario: {grid.name}")
    print(f"  {grid.description}")
    print(f"  collectors: {', '.join(grid.collectors)}")
    print(f"  replications per cell: {grid.replications}")
    if grid.axes:
        print("  axes:")
        for axis in grid.axes:
            labels = ", ".join(label for label, _value in axis.values)
            print(f"    {axis.name} -> {axis.spec_field}: {labels}")
    print(f"  cells ({grid.cell_count}):")
    for cell in grid.cells:
        print(f"    [{cell.index:3d}] {cell.key() or '(base)'}")
    return 0


def _print_summary(result: GridResult) -> None:
    rows = []
    for row in result.summary_rows():
        rows.append(
            [row["cell"] or "(base)"]
            + [row.get(metric, float("nan")) for metric in _TABLE_METRICS]
            + [row["replications"]]
        )
    headers = ["cell"] + [metric.split(".", 1)[1] for metric in _TABLE_METRICS] + ["reps"]
    print(format_table(
        headers, rows,
        title=f"Scenario grid: {result.grid_name} "
        f"(seed={result.seed}, parallel={result.parallel})",
    ))


def _run(args: argparse.Namespace) -> int:
    grid = get_grid(args.name)
    if args.replications is not None:
        grid = replace(grid, replications=args.replications)
    runner = ScenarioRunner(grid, seed=args.seed)
    print(
        f"running {grid.name}: {grid.cell_count} cells x "
        f"{grid.replications} replications = {grid.run_count} simulations "
        f"(parallel={args.parallel})"
    )
    result = runner.run(parallel=args.parallel)
    _print_summary(result)
    if args.fingerprints:
        print("\nper-unit fingerprints:")
        for unit, digest in sorted(result.fingerprints().items()):
            print(f"  {unit or '(base)'}: {digest}")
    if args.output:
        result.write_json(args.output)
        print(f"\n(wrote {args.output})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro scenarios",
        description="Declarative scenario grids over the simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the scenario library")

    describe = sub.add_parser("describe", help="show a grid's axes and cells")
    describe.add_argument("name", help="scenario name (see `list`)")

    run = sub.add_parser("run", help="expand and execute a grid")
    run.add_argument("name", help="scenario name (see `list`)")
    run.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="worker processes (forked; default: 1 = in-process)",
    )
    run.add_argument(
        "--seed", type=int, default=2020, help="base seed (default: 2020)",
    )
    run.add_argument(
        "--replications", type=int, default=None, metavar="N",
        help="override the grid's replications per cell",
    )
    run.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the grid summary JSON (fingerprints, digests, rows)",
    )
    run.add_argument(
        "--fingerprints", action="store_true",
        help="also print every unit's replay fingerprint",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _list(args)
        if args.command == "describe":
            return _describe(args)
        return _run(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""``repro lint`` — the command-line front end and CI gate.

Exit codes: 0 clean, 1 violations (or an unparseable file), 2 usage errors.
Intentional exceptions are suppressed inline with ``# repro: allow[CODE]``.
See ``docs/static-analysis.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.engine import lint_paths
from repro.lint.registry import rule_codes
from repro.lint.reporting import render, render_json, render_rule_list


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Determinism & sim-protocol static analysis over the source tree.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="report format (default: text; github emits ::error annotations)",
    )
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="additionally write the full JSON report to PATH (the CI artifact)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue (code, name, rationale) and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0

    select = None
    if args.select:
        select = tuple(code.strip() for code in args.select.split(",") if code.strip())
        unknown = [code for code in select if code not in rule_codes()]
        if unknown:
            parser.error(f"unknown rule code(s): {', '.join(unknown)}")

    try:
        violations = lint_paths(args.paths, select=select)
    except SyntaxError as exc:
        print(f"repro lint: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 1

    print(render(args.format, violations))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_json(violations))
            handle.write("\n")
    return 1 if violations else 0

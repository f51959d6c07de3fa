"""Violation report renderers: text, JSON, GitHub annotations."""

from __future__ import annotations

import json
from typing import Sequence

from repro.lint.registry import all_rules
from repro.lint.violations import Violation


def render_text(violations: Sequence[Violation]) -> str:
    """Human-readable report: one ``path:line:col: CODE message`` per hit."""
    lines = [
        f"{violation.location()}: {violation.code} {violation.message}"
        for violation in violations
    ]
    counts: dict[str, int] = {}
    for violation in violations:
        counts[violation.code] = counts.get(violation.code, 0) + 1
    if violations:
        summary = ", ".join(f"{code}×{count}" for code, count in sorted(counts.items()))
        lines.append(f"{len(violations)} violation(s): {summary}")
    else:
        lines.append("clean: no violations")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation]) -> str:
    """Machine-readable report (also the CI artifact payload)."""
    payload = {
        "violations": [violation.to_dict() for violation in violations],
        "summary": {"violations": len(violations)},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _escape_annotation(text: str) -> str:
    """GitHub workflow-command escaping for the message portion."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def render_github(violations: Sequence[Violation]) -> str:
    """GitHub Actions ``::error`` annotations, one per violation."""
    lines = []
    for violation in violations:
        message = _escape_annotation(violation.message)
        lines.append(
            f"::error file={violation.path},line={violation.line},"
            f"col={violation.col},title={violation.code}::{message}"
        )
    if not lines:
        lines.append("::notice::repro lint: no violations")
    return "\n".join(lines)


def render_rule_list() -> str:
    """The ``--list-rules`` catalogue: code, name, one-line rationale."""
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"      {rule.rationale}")
    return "\n".join(lines)


def render(fmt: str, violations: Sequence[Violation]) -> str:
    """Dispatch on ``--format`` value."""
    if fmt == "text":
        return render_text(violations)
    if fmt == "json":
        return render_json(violations)
    if fmt == "github":
        return render_github(violations)
    raise ValueError(f"unknown format {fmt!r}")

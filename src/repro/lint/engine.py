"""The lint engine: file discovery, rule execution, suppression filtering."""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.context import FileContext
from repro.lint.registry import all_rules
from repro.lint.violations import Violation

#: Directories never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    found: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name for name in dirnames
                if name not in _SKIP_DIRS and not name.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    return iter(sorted(dict.fromkeys(found)))


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> list[Violation]:
    """Lint one source string; returns unsuppressed violations, sorted.

    Raises:
        SyntaxError: if the source does not parse — a file the linter
            cannot read is a build break, not something to skip silently.
    """
    ctx = FileContext(source, path=path)
    violations: list[Violation] = []
    for rule in all_rules(select):
        for violation in rule.check(ctx):
            if not ctx.is_suppressed(violation):
                violations.append(violation)
    return sorted(violations)


def lint_file(path: str, select: Optional[Iterable[str]] = None) -> list[Violation]:
    """Lint one file from disk (paths reported exactly as given)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=_normalise(path), select=select)


def lint_paths(
    paths: Sequence[str], select: Optional[Iterable[str]] = None
) -> list[Violation]:
    """Lint every Python file under ``paths``; the CLI's workhorse."""
    violations: list[Violation] = []
    for filename in iter_python_files(paths):
        violations.extend(lint_file(filename, select=select))
    return sorted(violations)


def _normalise(path: str) -> str:
    """Forward-slashed relative-ish path so reports are identical across
    platforms and invocation directories."""
    return os.path.relpath(path).replace(os.sep, "/")

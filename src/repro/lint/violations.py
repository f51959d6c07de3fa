"""The violation record every rule emits."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit at one source location.

    Violations order by ``(path, line, col, code)`` so reports are stable
    across runs regardless of rule execution order.
    """

    path: str
    line: int
    col: int
    code: str
    message: str = field(compare=False)
    #: The stripped source line, carried into the JSON report.
    snippet: str = field(default="", compare=False)

    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of the text format."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form (the ``--format=json`` / report payload)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "snippet": self.snippet,
        }

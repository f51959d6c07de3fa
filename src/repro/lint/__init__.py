"""Static analysis for determinism and sim-protocol invariants.

The whole reproduction rests on byte-identical deterministic replay: every
experiment is pinned by a golden fingerprint, the incremental flow arbiter
is differentially tested against a reference sweep, and the tracer must
observe without perturbing the schedule.  Those guarantees are invariants
of the *source*, not of any particular run — one unseeded ``random`` call,
one ``time.time()`` feeding a decision, or one iteration over an unordered
``set`` in a scheduling path silently breaks fingerprints in a way tests
only catch after the fact.

``repro.lint`` machine-checks those invariants with an AST rule engine:

* **D-rules** (determinism hazards): global/unseeded RNG use, wall-clock
  reads outside the profiling allowlist, unordered-collection iteration in
  scheduling paths, identity-based sort keys, environment reads outside
  config loading.
* **S-rules** (sim-protocol): coroutine processes must not block the event
  loop with real I/O, must only yield the documented waitable types, must
  not hold a billed transfer across an unguarded ``yield``/``return``, and
  must not schedule events at negative or NaN delays.

Intentional exceptions are suppressed inline with ``# repro: allow[CODE]``;
``repro lint`` is the CLI and the CI gate.  See ``docs/static-analysis.md``.
"""

from repro.lint.context import FileContext
from repro.lint.engine import lint_file, lint_paths, lint_source
from repro.lint.registry import Rule, all_rules, get_rule, register_rule, rule_codes
from repro.lint.reporting import render_github, render_json, render_text
from repro.lint.violations import Violation

# Importing the rule modules registers every built-in rule.
from repro.lint import rules_determinism as _rules_determinism  # noqa: F401
from repro.lint import rules_simprotocol as _rules_simprotocol  # noqa: F401

__all__ = [
    "FileContext",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register_rule",
    "render_github",
    "render_json",
    "render_text",
    "rule_codes",
]

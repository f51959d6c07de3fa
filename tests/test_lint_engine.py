"""Tests for the ``repro.lint`` static-analysis engine.

The rule tests are fixture-driven: each module under ``tests/lint_fixtures``
marks its offending lines with ``# lint-expect: CODE`` comments, and
:func:`expected_violations` turns those markers into the exact multiset of
``(line, code)`` pairs the linter must produce — no more (false positives on
the guard lines fail the test) and no less (missed true positives fail it
too).  On top of that sit tests for suppressions, the baseline workflow, the
CLI gate, the registry, and the repo-wide cleanliness invariant the CI
``lint`` job enforces.
"""

from __future__ import annotations

import collections
import json
import pathlib
import re
import shutil
import subprocess
import textwrap

import pytest

from repro.exceptions import ConfigurationError
from repro.lint import (
    Baseline,
    BaselineEntry,
    Rule,
    get_rule,
    lint_paths,
    lint_source,
    register_rule,
    render_github,
    render_text,
    rule_codes,
)
from repro.lint.cli import main as lint_main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = pathlib.Path(__file__).resolve().parent / "lint_fixtures"

_EXPECT_RE = re.compile(r"#\s*lint-expect:\s*([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)")

#: fixture file -> the synthetic path it is linted under.  Path-sensitive
#: rules (D103's scheduling scope, D102's allowlist, D105's config
#: exemption) key on the path string, so every fixture lints as if it lived
#: in the engine core.
FIXTURES = {
    "d101_global_random.py": "src/repro/sim/fixture.py",
    "d102_wallclock.py": "src/repro/sim/fixture.py",
    "d103_unordered_iteration.py": "src/repro/sim/fixture.py",
    "d104_identity_sort.py": "src/repro/sim/fixture.py",
    "d105_environ.py": "src/repro/sim/fixture.py",
    "s201_blocking_io.py": "src/repro/sim/fixture.py",
    "s202_invalid_yield.py": "src/repro/sim/fixture.py",
    "s203_billed_session.py": "src/repro/sim/fixture.py",
    "s204_delay.py": "src/repro/sim/fixture.py",
    "s205_swallowed_exception.py": "src/repro/sim/fixture.py",
    "suppressions.py": "src/repro/sim/fixture.py",
}


def fixture_source(name: str) -> str:
    return (FIXTURE_DIR / name).read_text(encoding="utf-8")


def expected_violations(source: str) -> collections.Counter:
    """The ``(line, code)`` multiset declared by ``# lint-expect`` markers."""
    expected: collections.Counter = collections.Counter()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            for code in match.group(1).split(","):
                expected[(lineno, code.strip())] += 1
    return expected


def observed_violations(source: str, path: str) -> collections.Counter:
    return collections.Counter(
        (violation.line, violation.code)
        for violation in lint_source(source, path=path)
    )


# --------------------------------------------------------------------------- rules
class TestRuleFixtures:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_matches_markers(self, name):
        source = fixture_source(name)
        expected = expected_violations(source)
        assert expected, f"fixture {name} declares no lint-expect markers"
        assert observed_violations(source, FIXTURES[name]) == expected

    def test_every_rule_has_fixture_coverage(self):
        covered = set()
        for name in FIXTURES:
            for (_line, code) in expected_violations(fixture_source(name)):
                covered.add(code)
        assert covered == set(rule_codes())

    def test_d102_allowlisted_paths_are_exempt(self):
        source = fixture_source("d102_wallclock.py")
        for path in ("src/repro/obs/meter.py", "src/repro/experiments/perf.py"):
            assert observed_violations(source, path) == collections.Counter()

    def test_d103_only_fires_in_scheduling_paths(self):
        source = fixture_source("d103_unordered_iteration.py")
        assert observed_violations(
            source, "src/repro/experiments/figure12.py"
        ) == collections.Counter()

    def test_d105_config_modules_are_exempt(self):
        source = fixture_source("d105_environ.py")
        assert observed_violations(
            source, "src/repro/utils/config.py"
        ) == collections.Counter()

    def test_select_restricts_rules(self):
        source = fixture_source("d102_wallclock.py")
        none = lint_source(source, path="src/repro/sim/fixture.py", select=("D101",))
        only = lint_source(source, path="src/repro/sim/fixture.py", select=("D102",))
        assert none == []
        assert {violation.code for violation in only} == {"D102"}

    def test_syntax_error_is_raised_not_swallowed(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n", path="src/repro/sim/broken.py")


class TestRegistry:
    def test_all_expected_codes_registered(self):
        assert set(rule_codes()) == {
            "D101", "D102", "D103", "D104", "D105",
            "S201", "S202", "S203", "S204", "S205",
        }

    def test_get_rule_round_trips(self):
        assert get_rule("D101").code == "D101"

    def test_unknown_rule_code_rejected(self):
        with pytest.raises(ConfigurationError):
            get_rule("D999")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            @register_rule
            class Duplicate(Rule):
                code = "D101"
                name = "duplicate"

                def check(self, ctx):
                    return ()


# --------------------------------------------------------------------------- baseline
def _violations_for(source: str, path: str = "src/repro/sim/fixture.py"):
    return lint_source(source, path=path)


BASELINE_SOURCE = textwrap.dedent(
    """\
    import random


    def a():
        return random.random()


    def b():
        return random.random()
    """
)


class TestBaseline:
    def test_roundtrip_grandfathers_everything(self, tmp_path):
        violations = _violations_for(BASELINE_SOURCE)
        assert len(violations) == 2
        path = tmp_path / "baseline.json"
        Baseline.from_violations(violations).write(str(path))
        fresh, grandfathered, stale = Baseline.load(str(path)).partition(violations)
        assert fresh == []
        assert len(grandfathered) == 2
        assert stale == []

    def test_count_consumption_flags_the_extra_hit(self):
        violations = _violations_for(BASELINE_SOURCE)
        baseline = Baseline(
            [BaselineEntry(path=v.path, code=v.code, snippet=v.snippet, count=1)
             for v in violations[:1]]
        )
        fresh, grandfathered, stale = baseline.partition(violations)
        # Both hits share the snippet `return random.random()`; a count of 1
        # absorbs only one of them.
        assert len(grandfathered) == 1
        assert len(fresh) == 1
        assert stale == []

    def test_stale_entries_surface_after_the_fix(self):
        violations = _violations_for(BASELINE_SOURCE)
        baseline = Baseline.from_violations(violations)
        fresh, grandfathered, stale = baseline.partition([])
        assert fresh == [] and grandfathered == []
        assert sum(entry.count for entry in stale) == 2

    def test_baseline_survives_line_drift(self):
        drifted = "# a new leading comment\n" + BASELINE_SOURCE
        baseline = Baseline.from_violations(_violations_for(BASELINE_SOURCE))
        fresh, grandfathered, _stale = baseline.partition(_violations_for(drifted))
        assert fresh == []
        assert len(grandfathered) == 2

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ConfigurationError):
            Baseline.from_payload(["not", "a", "dict"])
        with pytest.raises(ConfigurationError):
            Baseline.from_payload({"version": 99, "entries": []})
        with pytest.raises(ConfigurationError):
            Baseline.from_payload({"version": 1, "entries": [{"path": "x"}]})


# --------------------------------------------------------------------------- CLI
@pytest.fixture()
def dirty_tree(tmp_path, monkeypatch):
    """A temp tree holding one D101 violation, with cwd pinned inside it."""
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "offender.py").write_text(
        "import random\n\n\ndef roll():\n    return random.random()\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCli:
    def test_violations_exit_nonzero(self, dirty_tree, capsys):
        assert lint_main(["src"]) == 1
        out = capsys.readouterr().out
        assert "D101" in out and "1 violation(s)" in out

    def test_clean_tree_exits_zero(self, dirty_tree, capsys):
        (dirty_tree / "src" / "repro" / "sim" / "offender.py").write_text(
            "X = 1\n", encoding="utf-8"
        )
        assert lint_main(["src"]) == 0
        assert "clean: no violations" in capsys.readouterr().out

    def test_write_then_check_baseline(self, dirty_tree, capsys):
        assert lint_main(["src", "--write-baseline"]) == 0
        payload = json.loads((dirty_tree / "lint_baseline.json").read_text())
        assert payload["version"] == 1 and len(payload["entries"]) == 1
        assert lint_main(["src", "--check-baseline"]) == 0
        assert "grandfathered" in capsys.readouterr().out

    def test_stale_baseline_warns_then_fails_strict(self, dirty_tree, capsys):
        assert lint_main(["src", "--write-baseline"]) == 0
        (dirty_tree / "src" / "repro" / "sim" / "offender.py").write_text(
            "X = 1\n", encoding="utf-8"
        )
        assert lint_main(["src", "--check-baseline"]) == 0
        assert "stale baseline entry" in capsys.readouterr().out
        assert lint_main(["src", "--check-baseline", "--strict-baseline"]) == 1

    def test_missing_baseline_fails_check(self, dirty_tree, capsys):
        assert lint_main(["src", "--check-baseline"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_baseline_fails_check(self, dirty_tree, capsys):
        (dirty_tree / "lint_baseline.json").write_text('{"version": 99}\n')
        assert lint_main(["src", "--check-baseline"]) == 1
        assert "baseline" in capsys.readouterr().err

    def test_new_violation_fails_even_with_baseline(self, dirty_tree, capsys):
        assert lint_main(["src", "--write-baseline"]) == 0
        offender = dirty_tree / "src" / "repro" / "sim" / "offender.py"
        offender.write_text(
            offender.read_text() + "\n\ndef again():\n    return random.choice([1])\n",
            encoding="utf-8",
        )
        assert lint_main(["src", "--check-baseline"]) == 1
        assert "random.choice" in capsys.readouterr().out

    def test_json_format_and_artifact_output(self, dirty_tree, capsys):
        artifact = dirty_tree / "report.json"
        assert lint_main(["src", "--format", "json", "--output", str(artifact)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 1
        assert payload["violations"][0]["code"] == "D101"
        assert json.loads(artifact.read_text()) == payload

    def test_github_format_annotations(self, dirty_tree, capsys):
        assert lint_main(["src", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=D101" in out

    def test_inline_suppression_clears_the_gate(self, dirty_tree, capsys):
        offender = dirty_tree / "src" / "repro" / "sim" / "offender.py"
        offender.write_text(
            offender.read_text().replace(
                "return random.random()",
                "return random.random()  # repro: allow[D101]",
            ),
            encoding="utf-8",
        )
        assert lint_main(["src"]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in rule_codes():
            assert code in out

    def test_unknown_select_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["src", "--select", "Z999"])
        assert excinfo.value.code == 2

    def test_unparseable_file_fails(self, dirty_tree, capsys):
        (dirty_tree / "src" / "repro" / "sim" / "broken.py").write_text(
            "def broken(:\n", encoding="utf-8"
        )
        assert lint_main(["src"]) == 1
        assert "cannot parse" in capsys.readouterr().err


# --------------------------------------------------------------------------- reporting
class TestReporting:
    def test_text_summary_counts_by_code(self):
        violations = _violations_for(BASELINE_SOURCE)
        report = render_text(violations)
        assert "2 violation(s): D101×2" in report

    def test_github_escaping(self):
        violations = lint_source(
            "import random\nrandom.random()\n", path="src/repro/sim/fixture.py"
        )
        annotation = render_github(violations)
        assert annotation.startswith("::error file=src/repro/sim/fixture.py,line=2,")
        assert "\n" not in annotation.split("::", 2)[-1]

    def test_github_clean_notice(self):
        assert "::notice" in render_github([])


# --------------------------------------------------------------------------- repo gate
class TestRepoGate:
    def test_src_tree_is_lint_clean(self):
        violations = lint_paths([str(REPO_ROOT / "src")])
        assert violations == [], render_text(violations)

    def test_committed_baseline_is_empty(self):
        payload = json.loads(
            (REPO_ROOT / "lint_baseline.json").read_text(encoding="utf-8")
        )
        assert payload == {"entries": [], "version": 1}


# --------------------------------------------------------------------------- mypy
def test_mypy_strict_core_passes():
    """Strict typing gate for repro.sim / repro.network / repro.erasure (CI-only dep)."""
    mypy = shutil.which("mypy")
    if mypy is None:
        pytest.skip("mypy not installed (CI-only dev dependency)")
    result = subprocess.run(
        [mypy, "--config-file", str(REPO_ROOT / "mypy.ini")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr

"""Tests for the ``repro.lint`` static-analysis engine.

The rule tests are fixture-driven: each module under ``tests/lint_fixtures``
marks its offending lines with ``# lint-expect: CODE`` comments, and
:func:`expected_violations` turns those markers into the exact multiset of
``(line, code)`` pairs the linter must produce — no more (false positives on
the guard lines fail the test) and no less (missed true positives fail it
too).  On top of that sit tests for suppressions, the CLI gate, the
registry, and the repo-wide cleanliness invariant the CI ``lint`` job
enforces.
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
    Rule,
    get_rule,
    lint_paths,
    lint_source,
    register_rule,
    render_github,
    render_json,
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

    def test_json_format_and_artifact_output(self, dirty_tree, capsys):
        artifact = dirty_tree / "report.json"
        assert lint_main(["src", "--format", "json", "--output", str(artifact)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["violations"] == 1
        assert payload["violations"][0]["code"] == "D101"
        assert json.loads(artifact.read_text()) == payload

    def test_github_format_annotations(self, dirty_tree, capsys):
        assert lint_main(["src", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=D101" in out

    def test_ci_invocation_fails_and_still_writes_the_artifact(self, dirty_tree, capsys):
        """CI runs ``--format=github --output lint_report.json`` with no
        baseline: any violation fails the step and lands in the artifact."""
        assert lint_main(["--format=github", "--output", "lint_report.json"]) == 1
        assert "title=D101" in capsys.readouterr().out
        payload = json.loads((dirty_tree / "lint_report.json").read_text())
        assert payload["summary"] == {"violations": 1}
        assert [v["code"] for v in payload["violations"]] == ["D101"]

    @pytest.mark.parametrize("flag", [
        ["--baseline", "lint_baseline.json"],
        ["--write-baseline"],
        ["--check-baseline"],
        ["--strict-baseline"],
    ], ids=lambda flag: flag[0])
    def test_removed_baseline_flags_are_usage_errors(self, flag, dirty_tree, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["src", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (dirty_tree / "lint_baseline.json").exists()

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
        source = textwrap.dedent(
            """\
            import random


            def a():
                return random.random()


            def b():
                return random.random()
            """
        )
        report = render_text(lint_source(source, path="src/repro/sim/fixture.py"))
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

    def test_json_report_holds_only_the_violations_and_their_count(self):
        violations = lint_source(
            "import random\nrandom.random()\n", path="src/repro/sim/fixture.py"
        )
        payload = json.loads(render_json(violations))
        assert payload == {
            "violations": [violation.to_dict() for violation in violations],
            "summary": {"violations": 1},
        }


# --------------------------------------------------------------------------- repo gate
class TestRepoGate:
    def test_src_tree_is_lint_clean(self):
        violations = lint_paths([str(REPO_ROOT / "src")])
        assert violations == [], render_text(violations)


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

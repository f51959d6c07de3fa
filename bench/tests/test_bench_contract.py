"""The benchmark keeps the contract BENCHMARK.json declares.

One ``--quick`` invocation (tiny sizes, never a baseline) exercises every
workload, the traced pass and the micro loops; the checks are about names,
units and shapes only, never about how fast anything ran.
"""

from __future__ import annotations

import copy
import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402  (bench/ is not a package)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *arguments],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = run_bench("--quick", "--reps", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    result["stdout"] = done.stdout
    return result


def test_manifest_is_within_the_contract_limits(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["bench"]
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_every_declared_name_is_reported_and_nothing_else(manifest, quick_result):
    declared = {m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    reported = set()
    for summary in quick_result["workloads"].values():
        reported |= set(summary["end_to_end"]) | set(summary["per_layer"])
    assert reported == declared
    assert list(quick_result["workloads"]) == [w["name"] for w in manifest["workloads"]]
    # Printed, too: every name shows up in the text with its unit.
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    for name, unit in units.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b",
                         quick_result["stdout"], re.MULTILINE), name


def test_result_has_the_documented_shape(manifest, quick_result):
    assert quick_result["schema"] == "bench.result/1"
    assert quick_result["scale"] == "quick"
    assert quick_result["model_accuracy"] == "unvalidated"
    everywhere = {m["name"] for m in manifest["end_to_end"]}
    for workload, summary in quick_result["workloads"].items():
        assert summary["fingerprints_identical"], workload
        assert summary["failed"] == 0 and summary["attempted"] >= 1
        assert everywhere <= set(summary["end_to_end"]), workload
        for name, entry in summary["end_to_end"].items():
            assert entry["clock"] in ("host", "sim", "-")
            assert entry["n"] == len(entry["values"]) == summary["reps"]
            assert entry["min"] <= entry["value"] <= entry["max"]
        for name in everywhere:
            assert summary["end_to_end"][name]["value"] > 0, (workload, name)
        assert summary["end_to_end"]["ops_failed_share"]["value"] == 0


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_form_ends_with_the_contract_line(manifest, trace, section):
    done = run_bench("--quick", "--workload", "bytes_rw", "--seed", "7",
                     "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in manifest[section]]
    for metric in manifest[section]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(line["metrics"][metric["name"]]["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for source in BENCH.glob("*.py"):
        (tmp_path / "bench" / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bytes_rw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_verdicts(manifest, quick_result):
    same = compare.compare(quick_result, quick_result, manifest)
    assert same and all(row["verdict"] == "ok" for row in same)

    slower = copy.deepcopy(quick_result)
    entry = slower["workloads"]["fleet_hits"]["end_to_end"]["wall_s"]
    entry.update(value=entry["value"] * 2, values=[v * 2 for v in entry["values"]])
    drifted = slower["workloads"]["chaos_rw"]["end_to_end"]["sim_get_p99_ms"]
    drifted.update(value=drifted["value"] * 1.001,
                   values=[v * 1.001 for v in drifted["values"]])
    worse = {(row["workload"], row["metric"]) for row in
             compare.compare(quick_result, slower, manifest) if row["verdict"] == "worse"}
    assert worse == {("fleet_hits", "wall_s"), ("chaos_rw", "sim_get_p99_ms")}

    noisy = copy.deepcopy(quick_result)
    entry = noisy["workloads"]["fleet_hits"]["end_to_end"]["wall_s"]
    entry["values"] = [entry["value"] * 0.5, entry["value"] * 1.5]
    row = next(row for row in compare.compare(quick_result, noisy, manifest)
               if (row["workload"], row["metric"]) == ("fleet_hits", "wall_s"))
    assert row["verdict"] == "unresolved"

"""Tests for the simulator performance harness (``repro.experiments.perf``).

Timing values are environment noise and are never asserted on — coverage is
the payload shape, event accounting, and the arbiter fingerprint gate the
CI step relies on — including that ``repro perf`` actually exits non-zero
when the gate trips, not just that it exits zero on the happy path.
"""

from __future__ import annotations

import copy
import inspect
import json
import pathlib
import re

import pytest

from repro.experiments import perf


ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMITTED = json.loads((ROOT / "BENCH_perf.json").read_text())
#: The committed sample of each name, the open-loop rung at the quick geometry.
COMMITTED_SAMPLES = {
    sample["name"]: sample for sample in COMMITTED["micro"] + COMMITTED["open_loop"][:1]
}


@pytest.fixture(scope="module")
def quick_payload() -> dict:
    """One quick suite for the module, round-tripped through JSON: every
    micro at the size the suite runs, rungs of 4 and 8 clients, the arbiter
    comparison at 8, the quick open-loop rung and the profile at 8."""
    return json.loads(json.dumps(perf.run_suite(client_counts=(4, 8), quick=True)))


def _micro(payload: dict, name: str) -> dict:
    [sample] = [sample for sample in payload["micro"] if sample["name"] == name]
    return sample


class TestMicroBenchmarks:
    @pytest.mark.parametrize("events", [2_000, 20_000])
    def test_event_queue_micro_counts_survivors_only(self, events):
        sample = perf.micro_event_queue(events=events)
        # Half the scheduled events are cancelled before dispatch; exactly
        # the surviving half runs.
        assert sample.extra["scheduled"] == events
        assert sample.events == events // 2
        assert sample.extra["cancelled"] == events // 2
        assert sample.events_per_s > 0

    def test_flow_churn_micro_completes_every_flow(self):
        sample = perf.micro_flow_churn(flows=100, hosts=4, proxies=2)
        assert sample.extra["flows"] == 100
        assert sample.extra["peak_active_flows"] >= 1
        assert sample.events > 0

    @pytest.mark.parametrize("flows,pinned", [
        (150, None),
        # Exact per seed: (events, peak flows, re-aimed, swept incremental, swept reference).
        (1_000, (2_000, 26, 1_000, 1_000, 50_290)),
    ])
    def test_flow_churn_arbiters_agree_on_the_simulation(self, flows, pinned):
        incremental = perf.micro_flow_churn(flows=flows, arbiter="incremental")
        reference = perf.micro_flow_churn(flows=flows, arbiter="reference")
        if pinned is not None:
            assert (
                incremental.events,
                incremental.extra["peak_active_flows"],
                incremental.extra["flows_reaimed"],
                incremental.extra["flows_swept"],
                reference.extra["flows_swept"],
            ) == pinned
        assert incremental.events == reference.events
        assert incremental.extra["peak_active_flows"] == reference.extra["peak_active_flows"]
        # ... and on what had to change, from a fraction of the visits: the
        # churn geometry's 2 000 MB/s uplinks never bind its 80 MB/s flows.
        assert incremental.extra["flows_reaimed"] == reference.extra["flows_reaimed"]
        assert 0 < incremental.extra["flows_swept"] < reference.extra["flows_swept"] / 4

    def test_erasure_micro_reports_three_rates_and_renders(self, quick_payload):
        sample = _micro(quick_payload, "micro.erasure")
        assert sample["events"] == 3 * perf.ERASURE_MICRO_CALLS == 12
        assert sample["code"] == "RS(10+2)"
        assert sample["object_bytes"] == 4_000_000
        for key in ("encode_MBps", "decode_MBps", "rebuild_MBps"):
            assert sample[key] > 0
        text = perf.format_report(quick_payload)
        assert "decode (2 data chunks lost)" in text and "MB/s" in text

    def test_faas_cycle_micro_reports_the_exact_ledger(self, quick_payload):
        sample = _micro(quick_payload, "micro.faas_cycle")
        assert sample["events"] == 100_000 and sample["events_per_s"] > 0
        assert (sample["cycles"], sample["total_invocations"]) == (100_000, 100_000)
        # Every 1000th instance is reclaimed mid-flight and still billed; the
        # cycle after it cold-starts (the last reclaim has no cycle after it,
        # the first cycle cold-starts).
        assert (sample["reclaims"], sample["cold_starts"]) == (100, 100)
        # 25 000 each of 0.1 / 0.1 / 0.2 / 0.2 billed s, carried as a repr.
        assert sample["total_billed_seconds"] == repr(float(sample["total_billed_seconds"]))
        assert float(sample["total_billed_seconds"]) == pytest.approx(15_000.0)
        text = perf.format_report(quick_payload)
        assert "micro.faas_cycle, exact per seed: 100000 cycles, 100 reclaims" in text
        assert "100 cold starts" in text

    def test_committed_faas_cycle_ledger_is_what_the_code_computes(self, quick_payload):
        """``BENCH_perf.json`` is the gate's reference; it must not go stale:
        the quick payload passes every gate against it, as in CI."""
        assert perf.validate_faas_cycle(COMMITTED) == []
        assert perf.check_regression(quick_payload, COMMITTED) == []

    def test_fleet_warm_up_micro_reports_the_per_call_ledger(self, quick_payload):
        sample = _micro(quick_payload, "micro.fleet_warm_up")
        assert sample["events"] == 240 and sample["events_per_s"] > 0
        # The same ledger, float for float, as 36 000 invoke -> complete
        # pairs: what the per-call warm-up loop books for this fleet.
        assert {key: sample[key] for key in perf.EXACT_KEYS["micro.fleet_warm_up"]} == {
            "rounds": 240, "invocations": 36_000, "cold_starts": 316, "reclaims": 166,
            "total_billed_seconds": "3599.9999999978213",
            "total_cost": "0.015720029999986895",
        }
        # Every reclaimed function cold-starts at the next round.
        assert sample["functions"] == 150
        assert sample["cold_starts"] == 150 + sample["reclaims"]
        text = perf.format_report(quick_payload)
        assert "micro.fleet_warm_up, exact per seed: 240 rounds" in text
        assert "316 cold starts" in text

    def test_hardened_chunk_micro_counts_one_process_per_chunk_plus_hedges(
        self, quick_payload
    ):
        sample = _micro(quick_payload, "micro.hardened_chunk")
        assert sample["events"] == sample["attempts"]
        assert sample["hedges"] > 0 and sample["retries"] > 0
        # Sixteen client processes, one per chunk of every GET (RS(4+2)), one
        # per hedge: the attempts themselves run inside the chunk processes.
        assert sample["processes_spawned"] == 16 + 6 * sample["requests"] + sample["hedges"]
        # One deadline per attempt and one per hedge pair; the ones that do
        # not fire are cancelled.
        assert sample["deadlines_scheduled"] == sample["attempts"] + sample["hedges"]
        assert sample["deadlines_cancelled"] < sample["deadlines_scheduled"]
        text = perf.format_report(quick_payload)
        assert f"exact per seed: {sample['attempts']} attempts" in text

class TestMacroAndComparison:
    def test_fleet_is_the_geometry_bench_mirrors(self):
        """``bench/workloads.py`` copies this fleet's geometry and key names."""
        deployment, plans = perf.fleet(8, "incremental")
        assert len(deployment.proxies) == 2
        assert deployment.config.flow_arbiter == "incremental"
        assert plans == [
            [(f"perf/{client}/obj-{request % 2}", 2_000_000) for request in range(6)]
            for client in range(8)
        ]
        assert deployment.simulator.now == 0.0
        # A proxy per four clients, at least two.
        deployment, _plans = perf.fleet(64, "reference")
        assert len(deployment.proxies) == 16
        assert deployment.config.flow_arbiter == "reference"

    def test_macro_closed_loop_reports_fleet_metrics(self, quick_payload):
        sample = quick_payload["macro"][0]
        assert sample["clients"] == 4
        assert sample["requests"] == 24
        assert sample["peak_active_flows"] > 0
        assert sample["events"] > 0
        assert len(sample["fingerprint"]) == 64

    def test_64_client_macro_dispatches_the_pinned_event_sequence(self, quick_payload):
        """The chunk supervisor must stay invisible on a fault-free fleet:
        5 862 events and this fingerprint are what a bare, un-supervised
        transfer per chunk dispatches for 64 clients at seed 2020 (recorded
        at commit 66fc670, before that coroutine pair was deleted)."""
        sample = perf.macro_closed_loop(64)
        assert sample.events == 5862
        assert sample.extra["peak_active_flows"] == 384
        # The arbiter's work for it, exact per seed: one sweep per flow
        # start and per retirement, uplink groups that cannot bind left out.
        assert sample.extra["flows_swept"] == 29916
        assert sample.extra["flows_reaimed"] == 12309
        assert sample.extra["fingerprint"] == (
            "f77e93cfc09199aabdbb780ae20c17f62b5ab96ce64e57bab7e49679b8895985"
        )
        # The 8-client rung of the same sweep, equally exact.
        small = quick_payload["macro"][1]
        assert (
            small["clients"],
            small["events"],
            small["peak_active_flows"],
            small["flows_swept"],
            small["flows_reaimed"],
        ) == (8, 715, 48, 2087, 1261)

    def test_open_loop_production_rung_replays_the_pinned_run(self, quick_payload):
        """One trace hour of ``infinicache.all`` at the quick geometry: the
        counts and the digest the replay gave before its flow trace became
        columnar."""
        [sample] = quick_payload["open_loop"]
        [scale] = perf.open_loop_scales(quick=True)
        assert sample["name"] == "macro.open_loop_production"
        assert sample["geometry"] == perf.open_loop_geometry(scale) == "24x1536MiB RS(10+2) 1h"
        assert (sample["events"], sample["records"], sample["flow_intervals"]) == (
            11034, 298, 3560
        )
        assert sample["hit_ratio"] == pytest.approx(0.738255033557047, abs=1e-12)
        assert sample["fingerprint"] == (
            "f3853935f3b138e1c1fbb0b803913601111370b003ee70e5179897b88eaba501"
        )
        # The committed payload holds this rung, so ``--quick`` is gated on it.
        assert sample["geometry"] in {rung["geometry"] for rung in COMMITTED["open_loop"]}

    def test_full_suite_runs_the_quick_geometry_and_the_paper_pool(self):
        quick, paper = perf.open_loop_scales(quick=False)
        assert quick == perf.open_loop_scales(quick=True)[0]
        assert perf.open_loop_geometry(paper) == "400x1536MiB RS(10+2) 1h"

    def test_compare_arbiters_fingerprints_identical(self, quick_payload):
        # Under --quick the comparison runs at the largest swept fleet.
        comparison = quick_payload["arbiter_comparison"]
        assert comparison["clients"] == 8
        assert comparison["fingerprints_identical"] is True
        assert comparison["fingerprint"] == quick_payload["macro"][1]["fingerprint"]
        assert comparison["incremental_wall_s"] > 0
        assert comparison["reference_wall_s"] > 0
        assert not any("vectorized" in key for key in comparison)

    def test_run_suite_quick_payload_is_json_ready(self, quick_payload):
        assert quick_payload["schema"] == "repro.perf/1"
        assert quick_payload["quick"] is True
        assert [sample["clients"] for sample in quick_payload["macro"]] == [4, 8]
        assert [
            (sample["name"], sample["geometry"]) for sample in quick_payload["open_loop"]
        ] == [("macro.open_loop_production", "24x1536MiB RS(10+2) 1h")]
        assert [sample["name"] for sample in quick_payload["micro"]] == [
            "micro.event_queue",
            "micro.flow_churn[incremental]",
            "micro.flow_churn[reference]",
            "micro.flow_churn[incremental,dense]",
            "micro.erasure",
            "micro.faas_cycle",
            "micro.fleet_warm_up",
            "micro.hardened_chunk",
        ]
        assert perf.validate_faas_cycle(quick_payload) == []
        for sample in quick_payload["micro"] + quick_payload["macro"]:
            assert sample["events_per_s"] >= 0
        # The profile section rides along at the largest swept fleet and
        # must satisfy the same schema the CI step validates.
        assert quick_payload["profile"]["clients"] == 8
        assert perf.validate_profile(quick_payload["profile"]) == []

    def test_format_report_renders_the_comparison(self, quick_payload):
        text = perf.format_report(quick_payload)
        assert "arbiter comparison at 8 clients" in text
        assert "fingerprints identical" in text


class TestProfileSection:
    """The event-loop ``profile`` section and its schema validator."""

    def test_profile_closed_loop_meters_the_run(self, quick_payload):
        section = quick_payload["profile"]
        assert perf.validate_profile(section) == []
        assert section["clients"] == 8
        assert section["events"] > 0
        assert section["counts"]["dispatched"] == section["events"]
        assert section["counts"]["coroutine_steps"] > 0
        assert section["counts"]["arbiter_transitions"] > 0
        phases = section["phases"]
        # The meters are attributions, not a disjoint partition (the first
        # step of a spawned process runs outside any dispatched callback),
        # so only sanity bounds hold: all non-negative, dispatch did happen.
        assert all(value >= 0.0 for value in phases.values())
        assert phases["dispatch_s"] > 0.0
        assert phases["coroutine_steps_s"] > 0.0
        assert section["top_labels"]
        assert section["top_labels"][0]["dispatched"] > 0

    def test_validate_profile_rejects_malformed_sections(self, quick_payload):
        assert perf.validate_profile(None) != []
        assert perf.validate_profile([]) != []
        assert perf.validate_profile({"schema": "repro.perf.profile/1"}) != []
        good = quick_payload["profile"]
        for key in perf.PROFILE_PHASE_KEYS:
            broken = copy.deepcopy(good)
            del broken["phases"][key]
            assert any(key in error for error in perf.validate_profile(broken))
        for key in perf.PROFILE_COUNT_KEYS:
            broken = copy.deepcopy(good)
            broken["counts"][key] = -1
            assert any(key in error for error in perf.validate_profile(broken))

    def test_format_report_renders_the_profile(self, quick_payload):
        text = perf.format_report(quick_payload)
        assert "Event-loop profile at 8 clients" in text
        assert "Hottest callback labels" in text
        counts = quick_payload["profile"]["counts"]
        assert counts["flows_swept"] >= counts["flows_reaimed"] > 0
        # The profiled replay is the 8-client macro rung again.
        assert counts["flows_swept"] == quick_payload["macro"][1]["flows_swept"]
        assert f"swept {counts['flows_swept']} flows" in text
        assert "per transition" in text
        # The collector row: a phase in the table and its counts in a line.
        assert re.search(r"^gc +\d", text, re.MULTILINE)
        assert counts["gc_collections_in_dispatch"] == 0
        assert "0 of them inside EventLoop.run*" in text


def _run_cli(tmp_path, monkeypatch, payload: dict, *extra: str) -> int:
    """``repro perf --quick --rungs 4 8`` on a canned suite ``payload``."""
    from repro import __main__ as cli

    calls = []

    def fake_run_suite(client_counts=None, quick=False):
        calls.append((client_counts, quick))
        return payload

    monkeypatch.setattr(perf, "run_suite", fake_run_suite)
    output = tmp_path / "bench.json"
    exit_code = cli.main([
        "perf", "--quick", "--rungs", "4", "8", "--output", str(output), *extra,
    ])
    assert calls == [((4, 8), True)]
    assert json.loads(output.read_text()) == payload
    return exit_code


class TestCliFingerprintGate:
    """``repro perf`` must fail the build on fingerprint drift."""

    def test_exit_zero_when_fingerprints_match(self, tmp_path, monkeypatch, quick_payload):
        assert _run_cli(tmp_path, monkeypatch, copy.deepcopy(quick_payload)) == 0

    def test_exit_nonzero_on_injected_fingerprint_drift(
        self, tmp_path, monkeypatch, capsys, quick_payload
    ):
        """Regression for the coverage gap: the gate's failure path was
        never exercised, so a broken exit code would have shipped green."""
        drifted = copy.deepcopy(quick_payload)
        drifted["arbiter_comparison"]["fingerprints_identical"] = False
        assert _run_cli(tmp_path, monkeypatch, drifted) == 1
        assert "diverged" in capsys.readouterr().err


class TestRegressionGuard:
    """``check_regression``: the CI throughput floor on macro rungs."""

    def _payload(self, rate: float, clients: int = 256) -> dict:
        return {
            "macro": [
                {
                    "name": f"macro.closed_loop[{clients}]",
                    "clients": clients,
                    "events_per_s": rate,
                }
            ]
        }

    def test_within_threshold_passes(self):
        assert perf.check_regression(self._payload(80.0), self._payload(100.0)) == []

    def test_drop_beyond_threshold_fails(self):
        errors = perf.check_regression(self._payload(60.0), self._payload(100.0))
        assert len(errors) == 1
        assert "macro.closed_loop[256]" in errors[0]

    def test_rungs_only_one_side_ran_are_skipped(self):
        # Quick mode trims the sweep; a 1024 baseline rung must not fail a
        # payload that only ran 256 (and vice versa).
        quick = self._payload(50.0, clients=256)
        full_baseline = self._payload(100.0, clients=1024)
        assert perf.check_regression(quick, full_baseline) == []

    def test_sub_second_rungs_are_exempt_by_default(self):
        # The 8/64-client rungs finish in well under a second and swing
        # past the threshold on warm-up noise alone; the guard ignores
        # anything below REGRESSION_MIN_CLIENTS.
        small = self._payload(10.0, clients=8)
        baseline = self._payload(100.0, clients=8)
        assert perf.check_regression(small, baseline) == []

    def test_improvements_never_fail(self):
        assert perf.check_regression(self._payload(500.0), self._payload(100.0)) == []

    def _swept(
        self, count: int | None, clients: int = 64, counter: str = "flows_swept"
    ) -> dict:
        payload = self._payload(100.0, clients=clients)
        if count is not None:
            payload["macro"][0][counter] = count
        return payload

    def test_one_more_flow_swept_fails_on_any_shared_rung(self):
        # Exact per seed, so no tolerance and no REGRESSION_MIN_CLIENTS exemption.
        errors = perf.check_regression(self._swept(1001), self._swept(1000))
        assert len(errors) == 1
        assert "macro.closed_loop[64]" in errors[0] and "1001" in errors[0]
        assert perf.check_regression(self._swept(1000), self._swept(1000)) == []
        assert perf.check_regression(self._swept(999), self._swept(1000)) == []

    def test_swept_gate_needs_the_count_on_the_committed_side(self):
        assert perf.check_regression(self._swept(1001), self._swept(None)) == []
        assert perf.check_regression(
            self._swept(1001, clients=64), self._swept(1000, clients=256)
        ) == []

    def test_a_collection_inside_dispatch_fails_exactly(self):
        def profiled(in_dispatch):
            payload = self._payload(100.0)
            payload["profile"] = {"counts": {"gc_collections_in_dispatch": in_dispatch}}
            return payload

        baseline = self._payload(100.0)
        assert perf.check_regression(profiled(0), baseline) == []
        errors = perf.check_regression(profiled(1), baseline)
        assert len(errors) == 1 and "inside EventLoop.run*" in errors[0]

    def test_one_more_flow_reaimed_fails_the_same_way(self):
        def reaimed(count):
            return self._swept(count, counter="flows_reaimed")

        errors = perf.check_regression(reaimed(1001), reaimed(1000))
        assert len(errors) == 1
        assert "macro.closed_loop[64]" in errors[0] and "1001 flows re-aimed" in errors[0]
        assert perf.check_regression(reaimed(1000), reaimed(1000)) == []
        assert perf.check_regression(reaimed(999), reaimed(1000)) == []
        assert perf.check_regression(reaimed(1001), reaimed(None)) == []


    def _open_loop(self, geometry: str = "24x1536MiB RS(10+2) 1h", **changed) -> dict:
        sample = {
            "name": "macro.open_loop_production", "geometry": geometry,
            "events": 11034, "flow_intervals": 3560, "fingerprint": "f" * 64,
            "wall_s": 0.3, "events_per_s": 36_000.0, "hit_ratio": 0.74,
        }
        sample.update(changed)
        return {"macro": [], "open_loop": [sample]}

    @pytest.mark.parametrize("name", sorted(perf.EXACT_KEYS))
    def test_every_exact_key_is_gated_on_equality(self, name):
        """One loop gates every sample of ``perf.EXACT_KEYS`` against the
        committed one of the same name and geometry."""
        section = "open_loop" if "geometry" in COMMITTED_SAMPLES[name] else "micro"

        def payload(**changed) -> dict:
            return {section: [dict(COMMITTED_SAMPLES[name], **changed)]}

        assert perf.check_regression(payload(), payload()) == []
        # Timings are never gated.
        assert perf.check_regression(payload(wall_s=9.0, events_per_s=9e9), payload()) == []
        for key in perf.EXACT_KEYS[name]:
            errors = perf.check_regression(payload(**{key: "drifted"}), payload())
            assert len(errors) == 1 and key in errors[0] and name in errors[0]
            # A baseline written before the sample existed gates nothing.
            assert perf.check_regression(payload(**{key: "drifted"}), {}) == []
        # A payload that lost a micro sample fails on every gated field; an
        # open-loop geometry the run did not reach (--quick) gates nothing.
        lost = perf.check_regression({}, payload())
        assert len(lost) == (0 if section == "open_loop" else len(perf.EXACT_KEYS[name]))

    def test_open_loop_gate_matches_by_geometry(self):
        # A baseline without the rung, or with it at another geometry only,
        # gates nothing.
        changed = self._open_loop(events=1)
        assert perf.check_regression(changed, {"macro": []}) == []
        assert perf.check_regression(
            changed, self._open_loop(geometry="400x1536MiB RS(10+2) 1h")
        ) == []
        # A quick payload against a full baseline: only the shared geometry.
        full = self._open_loop()
        full["open_loop"].append(
            dict(full["open_loop"][0], geometry="400x1536MiB RS(10+2) 1h", events=62527)
        )
        assert perf.check_regression(self._open_loop(), full) == []
        assert len(perf.check_regression(changed, full)) == 1

    def _ledger(self, **changed) -> dict:
        sample = {
            "name": "micro.faas_cycle", "cycles": 10, "reclaims": 1, "cold_starts": 1,
            "total_invocations": 10, "total_billed_seconds": "1.5", "total_cost": "0.25",
            "events_per_s": 1.0,
        }
        sample.update(changed)
        return {"micro": [sample], "macro": []}

    def test_validate_faas_cycle_rejects_malformed_samples(self):
        assert perf.validate_faas_cycle(self._ledger()) == []
        assert perf.validate_faas_cycle({"micro": []}) != []
        for key, value in (
            ("total_cost", 0.25), ("total_cost", "0.250"), ("total_billed_seconds", "n/a"),
            ("total_invocations", -1), ("cycles", "10"),
        ):
            errors = perf.validate_faas_cycle(self._ledger(**{key: value}))
            assert len(errors) == 1 and key in errors[0]


class TestCliRegressionGate:
    """``repro perf --regression-baseline`` must fail on throughput floors."""

    def _run(self, tmp_path, monkeypatch, quick_payload, committed_rate: float) -> int:
        # The floor's 256-client minimum, lowered to the canned 8-client rung.
        monkeypatch.setattr(perf, "REGRESSION_MIN_CLIENTS", 8)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "macro": [{"clients": 8, "events_per_s": committed_rate}],
        }))
        return _run_cli(
            tmp_path, monkeypatch, copy.deepcopy(quick_payload),
            "--regression-baseline", str(baseline),
        )

    def test_exit_zero_when_throughput_holds(self, tmp_path, monkeypatch, quick_payload):
        # A microscopic committed rate can never be regressed against.
        assert self._run(tmp_path, monkeypatch, quick_payload, committed_rate=1e-6) == 0

    def test_exit_nonzero_on_throughput_regression(
        self, tmp_path, monkeypatch, capsys, quick_payload
    ):
        # An absurd committed rate guarantees the fresh run lands >30% below.
        assert self._run(tmp_path, monkeypatch, quick_payload, committed_rate=1e15) == 1
        assert "macro.closed_loop[8] throughput regressed" in capsys.readouterr().err


def test_perf_takes_only_what_a_caller_varies():
    """A perf setting is a parameter or a flag only where callers use more
    than one value: the sizes the suite and ``bench/micros.py`` pass, the
    arbiter the comparison varies, the fleet size of each rung.  Every
    other one is a module constant beside its reader (``perf.SEED``,
    ``perf.FAAS_CYCLES``, ``perf.REGRESSION_THRESHOLD``, ...)."""
    from repro import __main__ as cli

    parameters = {
        name: [
            parameter.name if parameter.default is inspect.Parameter.empty
            else f"{parameter.name}={parameter.default!r}"
            for parameter in inspect.signature(function).parameters.values()
        ]
        for name, function in vars(perf).items()
        if inspect.isfunction(function) and function.__module__ == perf.__name__
        and not name.startswith("_")
    }
    flags = [
        flag for action in cli._perf_parser()._actions for flag in action.option_strings
        if flag not in ("-h", "--help")
    ]
    assert parameters == {
        "micro_event_queue": ["events=50000"],
        "micro_flow_churn": [
            "flows=2000", "hosts=32", "proxies=8", "arbiter='incremental'", "tag=''",
        ],
        "micro_erasure": [], "micro_faas_cycle": [],
        "micro_fleet_warm_up": [], "micro_hardened_chunk": [],
        "fleet": ["clients", "arbiter"],
        "macro_closed_loop": ["clients", "arbiter='incremental'"],
        "open_loop_scales": ["quick"], "open_loop_geometry": ["scale"],
        "macro_open_loop_production": ["scale"], "profile_closed_loop": ["clients"],
        "validate_profile": ["section"], "validate_faas_cycle": ["payload"],
        "compare_arbiters": ["clients=256"],
        "check_regression": ["payload", "baseline"],
        "run_suite": ["client_counts=None", "quick=False"],
        "format_report": ["payload"],
    }
    assert flags == ["--quick", "--rungs", "--output", "--regression-baseline"]
    defaulted = sum("=" in entry for entries in parameters.values() for entry in entries)
    assert defaulted + len(flags) == 14

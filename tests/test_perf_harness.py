"""Tests for the simulator performance harness (``repro.experiments.perf``).

Timing values are environment noise and are never asserted on — coverage is
the payload shape, event accounting, and the arbiter fingerprint gate the
CI step relies on — including that ``repro perf`` actually exits non-zero
when the gate trips, not just that it exits zero on the happy path.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from repro.experiments import perf


class TestMicroBenchmarks:
    @pytest.mark.parametrize("events", [2_000, 20_000])
    def test_event_queue_micro_counts_survivors_only(self, events):
        sample = perf.micro_event_queue(events=events, cancel_every=2)
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

    def test_erasure_micro_reports_three_rates_and_renders(self):
        sample = perf.micro_erasure()
        assert sample.events == 3 * perf.ERASURE_MICRO_CALLS == 12
        assert sample.extra["code"] == "RS(10+2)"
        assert sample.extra["object_bytes"] == 4_000_000
        for key in ("encode_MBps", "decode_MBps", "rebuild_MBps"):
            assert sample.extra[key] > 0
        text = perf.format_report({"micro": [sample.as_dict()], "macro": []})
        assert "decode (2 data chunks lost)" in text and "MB/s" in text


    def test_faas_cycle_micro_reports_the_exact_ledger(self):
        sample = perf.micro_faas_cycle(cycles=3_000, reclaim_every=500)
        assert sample.name == "micro.faas_cycle" and sample.events == 3_000
        assert sample.events_per_s > 0
        extra = sample.extra
        assert (extra["cycles"], extra["total_invocations"]) == (3_000, 3_000)
        # Every 500th instance is reclaimed mid-flight and still billed; the
        # cycle after it cold-starts (the last reclaim has no cycle after it).
        assert (extra["reclaims"], extra["cold_starts"]) == (6, 6)
        # Exact on any host, so pinned: 750 each of 0.1 / 0.1 / 0.2 / 0.2 s.
        assert extra["total_billed_seconds"] == repr(float(extra["total_billed_seconds"]))
        assert float(extra["total_billed_seconds"]) == pytest.approx(450.0)
        assert extra == perf.micro_faas_cycle(cycles=3_000, reclaim_every=500).extra
        text = perf.format_report({"micro": [sample.as_dict()], "macro": []})
        assert "3000 invoke -> complete -> bill cycles" in text and "6 cold starts" in text

    def test_committed_faas_cycle_ledger_is_what_the_code_computes(self):
        """``BENCH_perf.json`` is the gate's reference; it must not go stale
        (the ledger, and the hardened-chunk counts gated beside it)."""
        committed = json.loads(
            (pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json").read_text()
        )
        fresh = {"micro": [
            perf.micro_faas_cycle().as_dict(),
            perf.micro_fleet_warm_up().as_dict(),
            perf.micro_hardened_chunk().as_dict(),
        ]}
        assert perf.validate_faas_cycle(committed) == []
        assert perf.check_regression(fresh, committed) == []

    def test_fleet_warm_up_micro_reports_the_per_call_ledger(self):
        sample = perf.micro_fleet_warm_up()
        assert sample.name == "micro.fleet_warm_up" and sample.events == 240
        assert sample.events_per_s > 0
        # The same ledger, float for float, as 36 000 invoke -> complete
        # pairs: what the per-call warm-up loop books for this fleet.
        assert {key: sample.extra[key] for key in perf.FLEET_WARM_UP_EXACT_KEYS} == {
            "rounds": 240, "invocations": 36_000, "cold_starts": 316, "reclaims": 166,
            "total_billed_seconds": "3599.9999999978213",
            "total_cost": "0.015720029999986895",
        }
        # Every reclaimed function cold-starts at the next round.
        assert sample.extra["cold_starts"] == 150 + sample.extra["reclaims"]
        text = perf.format_report({"micro": [sample.as_dict()], "macro": []})
        assert "240 warm-up rounds of 150 functions" in text and "316 cold starts" in text

    def test_fleet_warm_up_ledger_is_gated_on_equality(self):
        def ledger(**changed):
            sample = {"name": "micro.fleet_warm_up", "rounds": 240, "invocations": 36_000,
                      "cold_starts": 316, "reclaims": 166,
                      "total_billed_seconds": "3599.9999999978213",
                      "total_cost": "0.015720029999986895", "events_per_s": 1.0}
            sample.update(changed)
            return {"micro": [sample], "macro": []}

        assert perf.check_regression(ledger(events_per_s=9e9), ledger()) == []
        for key, value in (
            ("rounds", 241), ("invocations", 35_999), ("cold_starts", 317),
            ("reclaims", 165), ("total_billed_seconds", "3600.0"),
            ("total_cost", "0.015720029999986897"),
        ):
            errors = perf.check_regression(ledger(**{key: value}), ledger())
            assert len(errors) == 1 and key in errors[0] and "micro.fleet_warm_up" in errors[0]
        assert len(perf.check_regression({"macro": []}, ledger())) == len(
            perf.FLEET_WARM_UP_EXACT_KEYS
        )

    def test_hardened_chunk_micro_counts_one_process_per_chunk_plus_hedges(self):
        sample = perf.micro_hardened_chunk(clients=4, rounds=12)
        extra = sample.extra
        assert sample.name == "micro.hardened_chunk" and sample.events == extra["attempts"]
        assert extra["hedges"] > 0 and extra["retries"] > 0
        # Four client processes, one per chunk of every GET (RS(4+2)), one
        # per hedge: the attempts themselves run inside the chunk processes.
        assert extra["processes_spawned"] == 4 + 6 * extra["requests"] + extra["hedges"]
        # One deadline per attempt and one per hedge pair; the ones that do
        # not fire are cancelled.
        assert extra["deadlines_scheduled"] == extra["attempts"] + extra["hedges"]
        assert extra["deadlines_cancelled"] < extra["deadlines_scheduled"]
        assert extra == perf.micro_hardened_chunk(clients=4, rounds=12).extra
        text = perf.format_report({"micro": [sample.as_dict()], "macro": []})
        assert f"{extra['attempts']} deadline-bounded chunk attempts" in text

    def test_hardened_chunk_counts_are_gated_on_equality(self):
        def counts(**changed):
            sample = {"name": "micro.hardened_chunk", "attempts": 10, "processes_spawned": 20,
                      "deadlines_scheduled": 12, "deadlines_cancelled": 9, "hedges": 2,
                      "events_per_s": 1.0}
            sample.update(changed)
            return {"micro": [sample], "macro": []}

        assert perf.check_regression(counts(events_per_s=9e9), counts()) == []
        for key in perf.HARDENED_MICRO_EXACT_KEYS:
            errors = perf.check_regression(counts(**{key: 0}), counts())
            assert len(errors) == 1 and key in errors[0] and "micro.hardened_chunk" in errors[0]


class TestMacroAndComparison:
    def test_macro_closed_loop_reports_fleet_metrics(self):
        sample = perf.macro_closed_loop(4, requests_per_client=2)
        assert sample.extra["clients"] == 4
        assert sample.extra["requests"] == 8
        assert sample.extra["peak_active_flows"] > 0
        assert sample.events > 0
        assert len(sample.extra["fingerprint"]) == 64

    def test_64_client_macro_dispatches_the_pinned_event_sequence(self):
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
        small = perf.macro_closed_loop(8)
        assert (
            small.events,
            small.extra["peak_active_flows"],
            small.extra["flows_swept"],
            small.extra["flows_reaimed"],
        ) == (715, 48, 2087, 1261)

    def test_open_loop_production_rung_replays_the_pinned_run(self):
        """One trace hour of ``infinicache.all`` at the quick geometry: the
        counts and the digest the replay gave before its flow trace became
        columnar."""
        [scale] = perf.open_loop_scales(quick=True)
        sample = perf.macro_open_loop_production(scale)
        assert sample.name == "macro.open_loop_production"
        assert sample.extra["geometry"] == "24x1536MiB RS(10+2) 1h"
        assert (sample.events, sample.extra["records"], sample.extra["flow_intervals"]) == (
            11034, 298, 3560
        )
        assert sample.extra["hit_ratio"] == pytest.approx(0.738255033557047, abs=1e-12)
        assert sample.extra["fingerprint"] == (
            "f3853935f3b138e1c1fbb0b803913601111370b003ee70e5179897b88eaba501"
        )
        # The committed payload holds this rung, so ``--quick`` is gated on it.
        committed = json.loads(
            (pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json").read_text()
        )
        assert sample.extra["geometry"] in {
            rung["geometry"] for rung in committed["open_loop"]
        }
        assert perf.check_regression(
            {"open_loop": [sample.as_dict()]}, {"open_loop": committed["open_loop"]}
        ) == []

    def test_full_suite_runs_the_quick_geometry_and_the_paper_pool(self):
        quick, paper = perf.open_loop_scales(quick=False)
        assert quick == perf.open_loop_scales(quick=True)[0]
        assert perf.open_loop_geometry(paper) == "400x1536MiB RS(10+2) 1h"

    def test_compare_arbiters_fingerprints_identical(self):
        comparison = perf.compare_arbiters(clients=8, requests_per_client=2)
        assert comparison["fingerprints_identical"] is True
        assert comparison["incremental_wall_s"] > 0
        assert comparison["reference_wall_s"] > 0
        assert not any("vectorized" in key for key in comparison)

    def test_run_suite_quick_payload_is_json_ready(self):
        payload = perf.run_suite(quick=True, client_counts=(4, 8), compare_clients=8)
        encoded = json.loads(json.dumps(payload))
        assert encoded["schema"] == "repro.perf/1"
        assert encoded["quick"] is True
        assert [sample["clients"] for sample in encoded["macro"]] == [4, 8]
        assert [
            (sample["name"], sample["geometry"]) for sample in encoded["open_loop"]
        ] == [("macro.open_loop_production", "24x1536MiB RS(10+2) 1h")]
        assert encoded["arbiter_comparison"]["fingerprints_identical"] is True
        assert [sample["name"] for sample in encoded["micro"]] == [
            "micro.event_queue",
            "micro.flow_churn[incremental]",
            "micro.flow_churn[reference]",
            "micro.flow_churn[incremental,dense]",
            "micro.erasure",
            "micro.faas_cycle",
            "micro.fleet_warm_up",
            "micro.hardened_chunk",
        ]
        assert perf.validate_faas_cycle(encoded) == []
        for sample in encoded["micro"] + encoded["macro"]:
            assert sample["events_per_s"] >= 0
        # The profile section rides along at the largest swept fleet and
        # must satisfy the same schema the CI step validates.
        assert encoded["profile"]["clients"] == 8
        assert perf.validate_profile(encoded["profile"]) == []

    def test_format_report_renders_the_comparison(self):
        payload = perf.run_suite(quick=True, client_counts=(4,), compare_clients=4)
        text = perf.format_report(payload)
        assert "arbiter comparison" in text
        assert "fingerprints identical" in text


class TestProfileSection:
    """The event-loop ``profile`` section and its schema validator."""

    def test_profile_closed_loop_meters_the_run(self):
        section = perf.profile_closed_loop(4, requests_per_client=2)
        assert perf.validate_profile(section) == []
        assert section["clients"] == 4
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

    def test_validate_profile_rejects_malformed_sections(self):
        assert perf.validate_profile(None) != []
        assert perf.validate_profile([]) != []
        assert perf.validate_profile({"schema": "repro.perf.profile/1"}) != []
        good = perf.profile_closed_loop(2, requests_per_client=1)
        for key in perf.PROFILE_PHASE_KEYS:
            broken = json.loads(json.dumps(good))
            del broken["phases"][key]
            assert any(key in error for error in perf.validate_profile(broken))
        for key in perf.PROFILE_COUNT_KEYS:
            broken = json.loads(json.dumps(good))
            broken["counts"][key] = -1
            assert any(key in error for error in perf.validate_profile(broken))

    def test_format_report_renders_the_profile(self):
        payload = perf.run_suite(quick=True, client_counts=(4,), compare_clients=4)
        text = perf.format_report(payload)
        assert "Event-loop profile at 4 clients" in text
        assert "Hottest callback labels" in text
        counts = payload["profile"]["counts"]
        assert counts["flows_swept"] >= counts["flows_reaimed"] > 0
        # The profiled replay is the 4-client macro rung again.
        assert counts["flows_swept"] == payload["macro"][0]["flows_swept"]
        assert f"swept {counts['flows_swept']} flows" in text
        assert "per transition" in text
        # The collector row: a phase in the table and its counts in a line.
        assert re.search(r"^gc +\d", text, re.MULTILINE)
        assert counts["gc_collections_in_dispatch"] == 0
        assert "0 of them inside EventLoop.run*" in text


class TestCliFingerprintGate:
    """``repro perf`` must fail the build on fingerprint drift."""

    def _run_cli(self, tmp_path, monkeypatch, drifted: bool) -> int:
        from repro import __main__ as cli

        def fake_compare(clients=perf.DEFAULT_COMPARE_CLIENTS, **kwargs):
            return {
                "clients": clients,
                "incremental_wall_s": 0.1,
                "reference_wall_s": 0.2,
                "speedup": 2.0,
                "incremental_events_per_s": 10.0,
                "reference_events_per_s": 5.0,
                "fingerprints_identical": not drifted,
                "fingerprint": "f" * 64,
            }

        monkeypatch.setattr(perf, "compare_arbiters", fake_compare)
        output = tmp_path / "bench.json"
        exit_code = cli.main([
            "perf", "--quick", "--clients", "2", "--compare-clients", "2",
            "--output", str(output),
        ])
        assert output.exists()
        return exit_code

    def test_exit_zero_when_fingerprints_match(self, tmp_path, monkeypatch):
        assert self._run_cli(tmp_path, monkeypatch, drifted=False) == 0

    def test_exit_nonzero_on_injected_fingerprint_drift(self, tmp_path, monkeypatch, capsys):
        """Regression for the coverage gap: the gate's failure path was
        never exercised, so a broken exit code would have shipped green."""
        assert self._run_cli(tmp_path, monkeypatch, drifted=True) == 1
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

    def test_threshold_is_configurable(self):
        tight = perf.check_regression(
            self._payload(80.0), self._payload(100.0), threshold=0.10
        )
        assert len(tight) == 1

    def test_rungs_only_one_side_ran_are_skipped(self):
        # Quick mode trims the sweep; a 1024 baseline rung must not fail a
        # payload that only ran 256 (and vice versa).
        quick = self._payload(50.0, clients=256)
        full_baseline = self._payload(100.0, clients=1024)
        assert perf.check_regression(quick, full_baseline) == []

    def test_sub_second_rungs_are_exempt_by_default(self):
        # The 8/64-client rungs finish in well under a second and swing
        # past the threshold on warm-up noise alone; the guard ignores
        # anything below min_clients unless the caller opts in.
        small = self._payload(10.0, clients=8)
        baseline = self._payload(100.0, clients=8)
        assert perf.check_regression(small, baseline) == []
        assert len(perf.check_regression(small, baseline, min_clients=8)) == 1

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
        # Exact per seed, so no tolerance and no min_clients exemption.
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

    def test_open_loop_counts_and_fingerprint_are_gated_exactly(self):
        assert perf.check_regression(self._open_loop(), self._open_loop()) == []
        # Timings are never gated.
        assert perf.check_regression(
            self._open_loop(wall_s=9.0, events_per_s=1.0), self._open_loop()
        ) == []
        for key, value in (
            ("events", 11035), ("events", 11033), ("flow_intervals", 3561),
            ("fingerprint", "e" * 64),
        ):
            errors = perf.check_regression(self._open_loop(**{key: value}), self._open_loop())
            assert len(errors) == 1
            assert key in errors[0] and "macro.open_loop_production" in errors[0]

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

    def test_faas_ledger_is_gated_on_equality(self):
        assert perf.check_regression(self._ledger(), self._ledger()) == []
        assert perf.check_regression(self._ledger(events_per_s=9e9), self._ledger()) == []
        for key, value in (
            ("total_cost", "0.25000000000000006"),
            ("total_billed_seconds", "1.4"),
            ("total_invocations", 9),
            ("cold_starts", 2),
        ):
            errors = perf.check_regression(self._ledger(**{key: value}), self._ledger())
            assert len(errors) == 1 and key in errors[0] and "micro.faas_cycle" in errors[0]
        # A payload that lost the sample fails on every gated field ...
        assert len(perf.check_regression({"macro": []}, self._ledger())) == len(
            perf.FAAS_MICRO_EXACT_KEYS
        )
        # ... and a baseline written before the micro existed gates nothing.
        assert perf.check_regression(self._ledger(), {"macro": []}) == []

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

    def _run_cli(self, tmp_path, monkeypatch, committed_rate: float) -> int:
        from repro import __main__ as cli

        def fake_compare(clients=perf.DEFAULT_COMPARE_CLIENTS, **kwargs):
            return {
                "clients": clients,
                "incremental_wall_s": 0.1,
                "reference_wall_s": 0.2,
                "speedup": 2.0,
                "incremental_events_per_s": 10.0,
                "reference_events_per_s": 5.0,
                "fingerprints_identical": True,
                "fingerprint": "f" * 64,
            }

        monkeypatch.setattr(perf, "compare_arbiters", fake_compare)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "macro": [{"clients": 2, "events_per_s": committed_rate}],
        }))
        output = tmp_path / "bench.json"
        exit_code = cli.main([
            "perf", "--quick", "--clients", "2", "--compare-clients", "2",
            "--output", str(output),
            "--regression-baseline", str(baseline),
            "--regression-min-clients", "2",
        ])
        assert output.exists()
        return exit_code

    def test_exit_zero_when_throughput_holds(self, tmp_path, monkeypatch):
        # A microscopic committed rate can never be regressed against.
        assert self._run_cli(tmp_path, monkeypatch, committed_rate=1e-6) == 0

    def test_exit_nonzero_on_throughput_regression(self, tmp_path, monkeypatch, capsys):
        # An absurd committed rate guarantees the fresh run lands >30% below.
        assert self._run_cli(tmp_path, monkeypatch, committed_rate=1e15) == 1
        assert "regressed" in capsys.readouterr().err

"""Tests for the observability layer (``repro.obs``).

Covers the span tracer (unit-level and threaded through a real replay), the
JSONL/Chrome exporters and their schema validator, the critical-path
analysis, and the load-bearing invariant of the whole design: a traced run
replays byte-for-byte identically to an untraced one.
"""

from __future__ import annotations

import json

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    SpanTracer,
    analyze,
    format_summary,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.critical_path import analyze_request
from repro.obs.export import REQUEST_PID, SESSION_PID
from repro.sim.clock import SimClock
from repro.utils.units import MB, MIB
from repro.workload.replay import ClosedLoopDriver


class TestSpanTracer:
    def test_begin_finish_stamps_virtual_time(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        span = tracer.begin("request", key="k")
        clock.advance(0.25)
        tracer.finish(span, hit=True)
        assert span.start == 0.0
        assert span.end == 0.25
        assert span.duration == 0.25
        assert span.attrs == {"key": "k", "hit": True}

    def test_parent_linkage_and_descendants(self):
        tracer = SpanTracer(SimClock())
        root = tracer.begin("request")
        child = tracer.begin("proxy.get", root)
        grandchild = tracer.begin("chunk.fetch", child)
        sibling = tracer.begin("request")
        assert child.parent_id == root.span_id
        assert tracer.roots() == [root, sibling]
        assert set(s.span_id for s in tracer.descendants(root)) == {
            child.span_id, grandchild.span_id,
        }

    def test_record_completed_interval(self):
        clock = SimClock()
        clock.advance(5.0)
        tracer = SpanTracer(clock)
        span = tracer.record("net.flow", 1.0, 4.0, bytes=128)
        assert (span.start, span.end) == (1.0, 4.0)

    def test_finish_is_idempotent_on_end_time(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        span = tracer.begin("request")
        clock.advance(1.0)
        tracer.finish(span)
        clock.advance(1.0)
        tracer.finish(span)
        assert span.end == 1.0

    def test_finish_open_closes_and_marks_stragglers(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        done = tracer.begin("request")
        tracer.finish(done)
        abandoned = tracer.begin("chunk.fetch")
        clock.advance(2.0)
        assert tracer.finish_open() == 1
        assert abandoned.end == 2.0
        assert abandoned.attrs == {"unfinished": True}
        assert done.attrs is None

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.begin("anything", parent=NULL_SPAN, key="k")
        assert span is NULL_SPAN
        assert span.recording is False
        span.annotate(ignored=True)  # must not raise or allocate
        NULL_TRACER.finish(span, also_ignored=1)
        assert NULL_TRACER.record("x", 0.0, 1.0) is NULL_SPAN


class TestExporters:
    def _small_trace(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        root = tracer.begin("request", client="c0", key="k")
        child = tracer.begin("proxy.get", root, proxy="p0")
        clock.advance(0.010)
        tracer.finish(child)
        tracer.finish(root)
        tracer.begin_at("lambda.session", 0.0, node="n0").end = 0.5
        return tracer

    def test_jsonl_round_trips(self):
        tracer = self._small_trace()
        lines = to_jsonl(tracer.spans).splitlines()
        assert len(lines) == 3
        decoded = [json.loads(line) for line in lines]
        assert decoded[0]["name"] == "request"
        assert decoded[1]["parent"] == decoded[0]["id"]
        assert decoded[0]["attrs"]["client"] == "c0"

    def test_chrome_trace_layout(self):
        payload = to_chrome_trace(self._small_trace().spans)
        assert payload["displayTimeUnit"] == "ms"
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        request_events = [e for e in complete if e["pid"] == REQUEST_PID]
        session_events = [e for e in complete if e["pid"] == SESSION_PID]
        assert {e["name"] for e in request_events} == {"request", "proxy.get"}
        assert [e["name"] for e in session_events] == ["lambda.session"]
        # Descendants share the root span's thread so they nest visually.
        assert len({e["tid"] for e in request_events}) == 1
        # Virtual seconds are exported as microseconds.
        request_event = next(e for e in complete if e["name"] == "request")
        assert request_event["dur"] == 0.010 * 1e6
        names = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in names} == {"thread_name", "process_name"}

    def test_unfinished_spans_are_skipped(self):
        tracer = SpanTracer(SimClock())
        tracer.begin("request")
        payload = to_chrome_trace(tracer.spans)
        assert [e for e in payload["traceEvents"] if e["ph"] == "X"] == []

    def test_validator_accepts_emitted_payload(self):
        payload = to_chrome_trace(self._small_trace().spans)
        assert validate_chrome_trace(payload) == []
        # Round-trip through JSON exactly as the file on disk would be read.
        assert validate_chrome_trace(json.loads(json.dumps(payload))) == []

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": []}) != []
        bad_event = {"displayTimeUnit": "ms", "traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": -5.0},
        ]}
        assert any("negative" in error for error in validate_chrome_trace(bad_event))
        bad_phase = {"displayTimeUnit": "ms", "traceEvents": [
            {"name": "x", "ph": "Q", "pid": 1, "tid": 1},
        ]}
        assert any("'X' or 'M'" in error for error in validate_chrome_trace(bad_phase))


class TestCriticalPath:
    def test_overlapping_stage_intervals_are_unioned(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        root = tracer.begin("request", key="k")
        # Two racing transfers overlap on [0.01, 0.03]: the stage must be
        # billed the union (0.04s), not the sum (0.05s).
        tracer.record("net.flow", 0.00, 0.03, root)
        tracer.record("net.flow", 0.01, 0.04, root)
        clock.advance(0.05)
        tracer.finish(root)
        breakdown = analyze_request(root, list(tracer.descendants(root)))
        assert breakdown.duration == 0.05
        assert abs(breakdown.stage_seconds["transfer"] - 0.04) < 1e-12
        assert abs(breakdown.stage_seconds["other"] - 0.01) < 1e-12
        assert breakdown.dominant == "transfer"

    def test_intervals_clipped_to_root(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        root = tracer.begin("request")
        tracer.record("lambda.invoke", -1.0, 2.0, root)
        clock.advance(1.0)
        tracer.finish(root)
        breakdown = analyze_request(root, list(tracer.descendants(root)))
        assert breakdown.stage_seconds["invoke"] == 1.0
        assert breakdown.stage_seconds["other"] == 0.0

    def test_analyze_skips_sessions_and_ranks_slowest(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        tracer.begin_at("lambda.session", 0.0, node="n").end = 9.0
        fast = tracer.begin("request", key="fast")
        tracer.record("net.flow", 0.0, 0.1, fast)
        clock.advance(0.1)
        tracer.finish(fast)
        slow = tracer.begin("request", key="slow")
        tracer.record("client.decode", 0.1, 0.9, slow)
        clock.advance(0.8)
        tracer.finish(slow)
        summary = analyze(tracer.spans, slowest=1)
        assert summary.requests == 2
        assert summary.dominated_by == {"transfer": 1, "decode": 1}
        assert [b.key for b in summary.slowest] == ["slow"]
        text = format_summary(summary)
        assert "critical path over 2 requests" in text
        assert "key=slow" in text

    def test_empty_summary_renders(self):
        assert "no request spans" in format_summary(analyze([]))


def _run_replay(traced: bool, clients: int = 4, requests: int = 3):
    deployment = InfiniCacheDeployment(InfiniCacheConfig(
        num_proxies=2,
        lambdas_per_proxy=10,
        lambda_memory_bytes=512 * MIB,
        data_shards=4,
        parity_shards=2,
        backup_enabled=False,
        straggler=StragglerModel(probability=0.2),
        seed=2020,
    ))
    seeder = deployment.new_client("obs-seeder")
    for index in range(clients):
        seeder.put_sized(f"obs/{index}", 4 * MB)
    plans = [
        [(f"obs/{index}", 4 * MB)] * requests
        for index in range(clients)
    ]
    tracer = None
    if traced:
        tracer = SpanTracer(deployment.simulator.clock)
        deployment.request_env.attach_tracer(tracer)
    report = ClosedLoopDriver(deployment).run(plans)
    if tracer is not None:
        tracer.finish_open()
    return report, tracer


class TestTracedReplay:
    """The tracer threaded through the real event-driven request path."""

    def test_traced_run_matches_untraced_fingerprint(self):
        untraced, _ = _run_replay(traced=False)
        traced, tracer = _run_replay(traced=True)
        assert traced.fingerprint() == untraced.fingerprint()
        assert len(tracer.spans) > 0

    def test_replay_emits_the_full_span_taxonomy(self):
        _, tracer = _run_replay(traced=True)
        names = {span.name for span in tracer.spans}
        for required in (
            "request", "client.get", "proxy.get", "chunk.fetch",
            "net.flow", "lambda.invoke", "lambda.session", "client.decode",
        ):
            assert required in names, f"missing span kind {required}"

    def test_request_tree_nests_client_proxy_chunk_flow(self):
        _, tracer = _run_replay(traced=True)
        root = tracer.by_name("request")[0]
        names = {span.name for span in tracer.descendants(root)}
        assert {"client.get", "proxy.get", "chunk.fetch"} <= names
        # The flow span recorded at retirement must link into the chunk span.
        chunk_ids = {s.span_id for s in tracer.spans if s.name == "chunk.fetch"}
        flows = tracer.by_name("net.flow")
        assert flows and all(span.parent_id in chunk_ids for span in flows)

    def test_replay_trace_exports_clean(self):
        _, tracer = _run_replay(traced=True)
        assert validate_chrome_trace(to_chrome_trace(tracer.spans)) == []
        summary = analyze(tracer.spans)
        assert summary.requests == 12
        assert summary.total_duration > 0

    def test_attach_tracer_reaches_the_flow_network(self):
        deployment = InfiniCacheDeployment(InfiniCacheConfig(
            num_proxies=2, lambdas_per_proxy=8, lambda_memory_bytes=512 * MIB,
            data_shards=4, parity_shards=2, backup_enabled=False, seed=7,
        ))
        env = deployment.request_env
        tracer = SpanTracer(deployment.simulator.clock)
        env.attach_tracer(tracer)
        assert env.tracer is tracer
        assert deployment.flows.tracer is tracer

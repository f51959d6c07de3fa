"""Micro benchmarks: event-queue churn, raw flow-arbitration cost, codec MB/s.

Unlike the figure benchmarks (which regenerate paper content), the perf
suite measures the *simulator's own* throughput — events dispatched per
wall-clock second — so regressions in the engine or the flow arbiter show
up as timing deltas here and as events/sec drops in ``BENCH_perf.json``.

The tracked reports under ``benchmarks/results/`` hold only the counts that
repeat exactly; timings are printed, not committed.
"""

from repro.experiments import perf


def test_bench_perf_event_queue(benchmark, report_writer):
    sample = benchmark.pedantic(
        lambda: perf.micro_event_queue(events=20_000), rounds=1, iterations=1
    )
    print(f"{sample.name}: {sample.wall_s:.3f}s, {sample.events_per_s:,.0f} events/s")
    report_writer(
        "perf_event_queue",
        f"event queue micro: {sample.events} events dispatched "
        f"({sample.extra['cancelled']} of {sample.extra['scheduled']} cancelled)",
    )
    # Half the scheduled events are cancelled before dispatch; the live
    # counter must see exactly the surviving half run.
    assert sample.events == sample.extra["scheduled"] - sample.extra["cancelled"]
    assert sample.events_per_s > 0


def test_bench_perf_flow_churn(benchmark, report_writer):
    incremental = benchmark.pedantic(
        lambda: perf.micro_flow_churn(flows=1_000, arbiter="incremental"),
        rounds=1,
        iterations=1,
    )
    reference = perf.micro_flow_churn(flows=1_000, arbiter="reference")
    for sample in (incremental, reference):
        print(f"{sample.name}: {sample.wall_s:.3f}s, {sample.events_per_s:,.0f} events/s")
    report_writer(
        "perf_flow_churn",
        "flow churn micro (1000 staggered transfers over 32 NICs / 8 uplinks):\n"
        + "\n".join(
            f"  {sample.extra['arbiter'] + ':':<12} {sample.events} events, "
            f"peak {sample.extra['peak_active_flows']} active flows, "
            f"{sample.extra['flows_swept']} flows swept, "
            f"{sample.extra['flows_reaimed']} re-aimed"
            for sample in (incremental, reference)
        ),
    )
    # Identical workload, identical event counts and re-aims — only the
    # arbitration strategy, and so the flows it has to visit, differs.
    assert incremental.events == reference.events
    assert incremental.extra["peak_active_flows"] == reference.extra["peak_active_flows"]
    assert incremental.extra["flows_reaimed"] == reference.extra["flows_reaimed"]
    assert incremental.extra["flows_swept"] < reference.extra["flows_swept"]


def test_bench_perf_erasure(benchmark, report_writer):
    sample = benchmark.pedantic(perf.micro_erasure, rounds=1, iterations=1)
    print(
        f"{sample.name} {sample.extra['code']}: "
        f"encode {sample.extra['encode_MBps']:,.0f} MB/s, "
        f"decode {sample.extra['decode_MBps']:,.0f} MB/s, "
        f"rebuild {sample.extra['rebuild_MBps']:,.0f} MB/s"
    )
    report_writer(
        "perf_erasure",
        f"erasure micro: {sample.extra['code']}, {sample.extra['object_bytes']}-byte "
        f"object, {sample.events} codec calls (encode, decode and rebuild with two "
        "data chunks lost), every result byte-compared",
    )
    assert sample.events == 3 * perf.ERASURE_MICRO_CALLS
    assert min(
        sample.extra[key] for key in ("encode_MBps", "decode_MBps", "rebuild_MBps")
    ) > 0

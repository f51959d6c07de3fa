"""``python -m repro`` — experiment runner plus subcommands.

Without a subcommand this regenerates the paper's tables and figures (a
thin alias for :mod:`repro.experiments.runner`; see that module for the
available flags — ``--only``, ``--output-dir``, ``--list``, and
``--fingerprints PATH``, which also writes every experiment's event-driver
fingerprints as the JSON artifact the ``figures-smoke`` CI job uploads).
Every experiment replays through the event-driven drivers of
:mod:`repro.workload.replay`, the only replay stack.

``python -m repro chargeback [--duration SECONDS] [--requests N]`` runs a
small multi-tenant replay and prints the per-tenant GB-second chargeback
view: who caused which share of the Lambda bill, with the conservation
check that the per-tenant totals sum to the cluster-wide bill.

``python -m repro perf [--quick] [--output BENCH_perf.json]`` runs the
simulator performance harness (micro event-queue/flow-churn/codec/FaaS-cycle/
fleet-warm-up benchmarks plus the closed-loop fleet sweep and an open-loop production
replay), writes ``BENCH_perf.json``, and exits
non-zero if the incremental flow arbiter's replay fingerprint drifts from
the global-recompute reference — a correctness gate immune to timing
noise.  See ``docs/performance.md``.

``python -m repro chaos [--seed N] [--clients N] [--rounds N] [--json
PATH]`` replays the canonical fault storm (:mod:`repro.faults.scenario`)
twice through the deterministic chaos engine, asserts the two runs produce
byte-identical replay fingerprints, and prints the resilience report:
per-fault-window availability, degraded-hit and RESET counts, recovery
times, and the faulted-vs-clean SLO percentile deltas.  Exits non-zero on
fingerprint divergence, on any unhandled request failure, or if the
degraded-fallback path never engaged.  CI runs it as the ``chaos-smoke``
job.  See ``docs/robustness.md``.

``python -m repro scenarios {list,describe,run}`` drives the declarative
scenario engine (:mod:`repro.scenarios`): list the built-in grid library,
inspect a grid's axes and cells, or expand and execute one —
``run NAME --parallel N`` fans the (cell, replication) units over N forked
worker processes with per-unit fingerprints byte-identical to a serial run,
and ``--output PATH`` writes the grid summary JSON (fingerprints,
collector digests, per-cell metric rows).  See ``docs/scenarios.md``.

``python -m repro lint [PATHS] [--format text|json|github] [--output
PATH]`` runs the determinism & sim-protocol static analyser
(:mod:`repro.lint`) over the source tree and exits non-zero on any
violation; CI runs it with ``--format=github``.  See
``docs/static-analysis.md``.

``python -m repro trace [--clients N] [--output trace.json]`` runs one
seeded closed-loop replay twice — once untraced, once with the span tracer
attached — asserts the two produce identical replay fingerprints (the runs
are deterministic and tracing is a pure observer) and that concurrent
clients genuinely overlap on the wire, writes a Perfetto-loadable Chrome
trace-event file, and prints the per-request critical-path breakdown:
which stage (lambda invoke, network transfer, decode, ...) dominated each
request.  CI runs it as the ``trace-smoke`` job.  See
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ConfigurationError, WorkloadError


def _positive_int(text: str) -> int:
    """``argparse`` type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _chargeback(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chargeback",
        description="Per-tenant GB-second chargeback view over a multi-tenant replay.",
    )
    parser.add_argument(
        "--duration", type=float, default=300.0, metavar="SECONDS",
        help="simulated seconds to replay (default: 300)",
    )
    parser.add_argument(
        "--requests", type=int, default=150, metavar="N",
        help="requests per tenant (default: 150)",
    )
    parser.add_argument(
        "--policy", choices=("reactive", "predictive", "predictive_trend"),
        default="reactive",
        help="autoscaler policy to run under (default: reactive)",
    )
    args = parser.parse_args(argv)
    from repro.cluster import AutoscalerConfig
    from repro.experiments import cluster_scale
    from repro.faas.billing import UNATTRIBUTED_TENANT
    from repro.utils.report import format_table

    result = cluster_scale.run(
        tenants=cluster_scale.default_tenants(args.requests),
        duration_s=args.duration,
        autoscaler_config=AutoscalerConfig(policy=args.policy),
    )
    rows = []
    for tenant_id, row in sorted(result.chargeback.items()):
        label = "(cluster)" if tenant_id == UNATTRIBUTED_TENANT else tenant_id
        rows.append([
            label, row["gb_seconds"], row["cost"], row["bill_share"],
        ])
    print(format_table(
        ["tenant", "gb_seconds", "cost_$", "bill_share"],
        rows,
        title=f"Chargeback ({args.policy} autoscaler, {args.duration:g}s replay)",
    ))
    drift = abs(result.chargeback_total_cost - result.total_cost)
    print(
        f"\nconservation: per-tenant sum ${result.chargeback_total_cost:.6f} vs "
        f"cluster bill ${result.total_cost:.6f} (drift ${drift:.2e})"
    )
    return 0 if drift <= 1e-9 + 1e-9 * result.total_cost else 1


def _smoke_fleet(args: argparse.Namespace):
    """A small seeded two-proxy deployment and its clients' GET plans.

    Stragglers are likely (0.3) so the trace reliably shows racing chunk
    fetches being abandoned by the first-d barrier.
    """
    from repro.cache.config import InfiniCacheConfig, StragglerModel
    from repro.cache.deployment import InfiniCacheDeployment
    from repro.utils.units import MB, MIB
    from repro.workload.replay import seed_fleet

    deployment = InfiniCacheDeployment(InfiniCacheConfig(
        num_proxies=2,
        lambdas_per_proxy=10,
        lambda_memory_bytes=512 * MIB,
        data_shards=4,
        parity_shards=2,
        backup_enabled=False,
        straggler=StragglerModel(probability=0.3),
        seed=args.seed,
    ))
    return deployment, seed_fleet(
        deployment, "trace", args.clients, 4, 4 * MB, args.requests
    )


def _chaos(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Replay the canonical fault storm twice, assert same-seed "
        "fingerprint stability, and print the resilience report.",
    )
    parser.add_argument(
        "--seed", type=int, default=2020, help="simulation seed (default: 2020)",
    )
    parser.add_argument(
        "--clients", type=int, default=6, metavar="N",
        help="closed-loop clients (default: 6)",
    )
    parser.add_argument(
        "--rounds", type=int, default=70, metavar="N",
        help="requests per client (default: 70)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the resilience report as JSON",
    )
    args = parser.parse_args(argv)
    from repro.faults import run_chaos_scenario

    def run_once():
        return run_chaos_scenario(
            seed=args.seed, clients=args.clients, rounds=args.rounds,
        )

    first, second = run_once(), run_once()
    expected = args.clients * args.rounds
    print(
        f"chaos storm: requests={first.replay.requests}/{expected} "
        f"hits={first.replay.hits} degraded_hits={first.replay.degraded_hits} "
        f"resets={first.replay.resets} duration={first.replay.duration_s:.1f}s"
    )
    for line in first.resilience.format_lines():
        print(line)
    print(f"fingerprint run 1: {first.fingerprint}")
    print(f"fingerprint run 2: {second.fingerprint}")
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(first.resilience.to_dict(), handle, indent=2, sort_keys=True)
        print(f"(wrote {args.json})")
    if first.fingerprint != second.fingerprint:
        print(
            "FAIL: same seed + same fault schedule produced divergent "
            "fingerprints — the chaos engine is non-deterministic",
            file=sys.stderr,
        )
        return 1
    if first.replay.requests != expected:
        print(
            f"FAIL: {expected - first.replay.requests} requests never "
            "completed — the request path leaked a failure",
            file=sys.stderr,
        )
        return 1
    if first.replay.degraded_hits == 0:
        print(
            "FAIL: the storm never engaged the degraded-fallback path — "
            "the scenario lost its teeth",
            file=sys.stderr,
        )
        return 1
    print("determinism: OK (two runs byte-identical)")
    return 0


def _trace(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Traced closed-loop replay: check determinism and wire "
        "overlap, emit a Perfetto-loadable trace and print the per-request "
        "critical-path breakdown.",
    )
    parser.add_argument(
        "--clients", type=_positive_int, default=16, metavar="N",
        help="concurrent closed-loop clients (default: 16)",
    )
    parser.add_argument(
        "--requests", type=_positive_int, default=4, metavar="N",
        help="requests per client (default: 4)",
    )
    parser.add_argument(
        "--seed", type=int, default=2020, help="simulation seed (default: 2020)",
    )
    parser.add_argument(
        "--output", default="trace.json", metavar="PATH",
        help="Chrome trace-event file, loadable in Perfetto / chrome://tracing "
        "(default: trace.json)",
    )
    parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write the raw spans as JSON lines",
    )
    parser.add_argument(
        "--slowest", type=int, default=5, metavar="N",
        help="how many slowest requests to list (default: 5)",
    )
    args = parser.parse_args(argv)
    from repro.obs import (
        SpanTracer,
        analyze,
        format_summary,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.workload.replay import ClosedLoopDriver

    deployment, plans = _smoke_fleet(args)
    untraced = ClosedLoopDriver(deployment).run(plans)

    deployment, plans = _smoke_fleet(args)
    tracer = SpanTracer(deployment.simulator.clock)
    deployment.request_env.attach_tracer(tracer)
    traced = ClosedLoopDriver(deployment).run(plans)
    tracer.finish_open()

    if traced.fingerprint() != untraced.fingerprint():
        print(
            "FAIL: two runs with the same seed diverged — the replay is "
            "non-deterministic or tracing perturbed it",
            file=sys.stderr,
        )
        return 1
    overlap = untraced.overlapping_flow_pairs()
    if args.clients > 1 and overlap == 0:
        print("FAIL: concurrent clients produced no overlapping transfers", file=sys.stderr)
        return 1
    names = {span.name for span in tracer.spans}
    required = {
        "request", "client.get", "proxy.get", "chunk.fetch",
        "net.flow", "lambda.invoke", "lambda.session", "client.decode",
    }
    missing = sorted(required - names)
    if missing:
        print(f"FAIL: trace is missing span kinds: {missing}", file=sys.stderr)
        return 1
    payload = write_chrome_trace(args.output, tracer.spans)
    errors = validate_chrome_trace(payload)
    if errors:
        for error in errors:
            print(f"FAIL: invalid trace: {error}", file=sys.stderr)
        return 1
    if args.jsonl:
        write_jsonl(args.jsonl, tracer.spans)
        print(f"(wrote {len(tracer.spans)} spans to {args.jsonl})")
    print(
        f"traced replay: clients={args.clients} requests={traced.requests} "
        f"hits={traced.hits} duration={traced.duration_s:.3f}s "
        f"spans={len(tracer.spans)} ({len(names)} kinds)"
    )
    print(
        f"flow trace: {len(untraced.flow_intervals)} transfers, "
        f"peak concurrent={untraced.max_concurrent_flows()}, overlapping pairs={overlap}"
    )
    print(f"fingerprint parity with untraced run: OK ({traced.fingerprint()[:16]}...)")
    print(f"(wrote Chrome trace to {args.output} — load it in Perfetto)\n")
    print(format_summary(analyze(tracer.spans, slowest=args.slowest)))
    return 0


def _perf_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="Simulator performance harness: events/sec, fleet sweep, "
        "and the incremental-vs-reference arbiter comparison.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: small fleets, the arbiter comparison at the "
        "largest of them, seconds-fast",
    )
    parser.add_argument(
        "--rungs", type=_positive_int, nargs="+", default=None, metavar="N",
        help="fleet-size rungs for the closed-loop macro sweep (default: "
        "8 64 256 1024 4096, or 8 64 256 under --quick; explicit values "
        "are honored as given)",
    )
    parser.add_argument(
        "--output", default="BENCH_perf.json", metavar="PATH",
        help="where to write the JSON payload (default: BENCH_perf.json)",
    )
    parser.add_argument(
        "--regression-baseline", default=None, metavar="PATH",
        help="committed BENCH_perf.json to guard against: exit non-zero if "
        "any macro rung of 256 clients or more present in both runs lost "
        "more than 30%% of its committed events/s, if any shared rung swept "
        "or re-aimed more flows than committed, or if the micro ledgers and "
        "counts or the open-loop production rung's events, flow intervals "
        "or fingerprint (same geometry) differ (read before --output is "
        "written, so the same path can serve as both)",
    )
    return parser


def _perf(argv: list[str]) -> int:
    parser = _perf_parser()
    args = parser.parse_args(argv)
    import json

    from repro.experiments import perf
    from repro.utils.report import prepare_output_file

    baseline = None
    if args.regression_baseline is not None:
        try:
            with open(args.regression_baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as error:
            parser.error(f"cannot read --regression-baseline: {error}")
    # Before the suite, so its run is never thrown away on a path that
    # cannot be written.
    prepare_output_file(args.output)
    payload = perf.run_suite(
        client_counts=tuple(args.rungs) if args.rungs else None, quick=args.quick
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(perf.format_report(payload))
    print(f"\n(wrote {args.output})")
    schema_errors = perf.validate_profile(payload.get("profile"))
    schema_errors += perf.validate_faas_cycle(payload)
    if schema_errors:
        for error in schema_errors:
            print(f"FAIL: malformed payload: {error}", file=sys.stderr)
        return 1
    if not payload["arbiter_comparison"]["fingerprints_identical"]:
        print(
            "FAIL: the arbiters' replay fingerprints diverged (incremental "
            "vs reference must be byte-identical)",
            file=sys.stderr,
        )
        return 1
    if baseline is not None:
        regressions = perf.check_regression(payload, baseline)
        if regressions:
            for regression in regressions:
                print(f"FAIL: {regression}", file=sys.stderr)
            return 1
    return 0


def _dispatch(argv: list[str]) -> int:
    if argv and argv[0] == "chargeback":
        return _chargeback(argv[1:])
    if argv and argv[0] == "chaos":
        return _chaos(argv[1:])
    if argv and argv[0] == "perf":
        return _perf(argv[1:])
    if argv and argv[0] == "trace":
        return _trace(argv[1:])
    if argv and argv[0] == "scenarios":
        from repro.scenarios.cli import main as scenarios_main

        return scenarios_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    from repro.experiments.runner import main as runner_main

    return runner_main(argv)


def main(argv: list[str] | None = None) -> int:
    """Dispatch to a subcommand or the experiment runner; arguments it cannot
    run with — an output path that cannot be written included — end in one
    ``error:`` line and status 2 (1 is a failed gate)."""
    try:
        return _dispatch(sys.argv[1:] if argv is None else argv)
    except (ConfigurationError, WorkloadError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

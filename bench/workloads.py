"""The four benchmark workloads; one rep per process.

``bench/run.py`` starts this file once per rep in a fresh interpreter:
garbage left by one deployment slows the next (three in-process reps of
``fleet_hits`` measured 7.46 / 7.98 / 8.87 s on identical inputs).  Each
workload drives ``repro`` through its public API only, times its phases
with :class:`tracing.Spans` on the host clock, checks its own outputs, and
prints one JSON object as the last line of standard output.  Everything
``repro`` itself prints goes to standard error.

Sizes are fixed per scale; ``--seed`` is the only input that varies.  With
``--traced`` the same rep runs with the loop profiler on and wrapper spans
around a fixed list of entry points (see :func:`_trace_targets`), and the
spans are written to ``bench/results/trace_<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import pathlib
import random
import resource
import sys
import tempfile
import traceback

from tracing import Spans, install

from repro.baselines.s3 import ObjectStore
from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.consistent_hash import ConsistentHashRing
from repro.cache.deployment import InfiniCacheDeployment
from repro.cache.proxy import Proxy
from repro.erasure.codec import ErasureCodec
from repro.faas.billing import BillingModel
from repro.faas.platform import FaaSPlatform
from repro.faults.engine import ChaosEngine
from repro.faults.report import build_resilience_report
from repro.faults.scenario import demo_config, demo_schedule
from repro.obs.tracer import SpanTracer
from repro.utils.units import MB, MIB
from repro.workload.replay import ClientOp, ClosedLoopDriver

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: The quick-scale experiments, in the registry's own order.
EXPERIMENTS = (
    "figure1", "figure4", "figure8", "figure9", "figure11", "figure12",
    "figure13", "figure14", "figure15", "figure16", "table1", "figure17",
    "availability", "chaos_availability", "cluster_scale", "autoscale_policies",
)

#: ``full`` is what every committed number uses.  ``quick`` exists only so
#: the contract test can exercise every code path in a few seconds.
SCALES: dict[str, dict[str, object]] = {
    "full": {
        "fleet_clients": 1024, "chaos_clients": 64,
        "experiments": EXPERIMENTS, "grid": "tenant_interference",
        "production": "default", "objects": 48, "object_bytes": 4 * MB,
    },
    "quick": {
        "fleet_clients": 64, "chaos_clients": 8,
        "experiments": ("figure1", "figure4", "figure12"), "grid": "smoke",
        "production": "quick", "objects": 4, "object_bytes": 1 * MB,
    },
}

FLEET_OBJECT_BYTES = 2 * MB
CHAOS_OBJECT_BYTES = 2_000_000
CHAOS_KEYS = 128
CHAOS_ROUNDS = 70
CHAOS_PUT_SHARE = 0.3
CHAOS_THINK_S = 3.0
#: figure_suite's set-up takes 0.4 ms and runs once per process.  The box's
#: slow spells last about half a second, so it is repeated for longer than
#: one of them and the median reported.
FIGURE_SETUP_REPEATS = 2000


# ---------------------------------------------------------------------- tracing
def _trace_targets(flow_class: type) -> list[tuple[type, str, str]]:
    """The synchronous public entry points a traced rep wraps."""
    return [
        (ErasureCodec, "encode", "erasure.encode"),
        (ErasureCodec, "decode", "erasure.decode"),
        (ErasureCodec, "rebuild_missing", "erasure.rebuild_missing"),
        (flow_class, "transfer", "network.transfer"),
        (flow_class, "cancel", "network.cancel"),
        (FaaSPlatform, "invoke", "faas.invoke"),
        (FaaSPlatform, "complete_invocation", "faas.complete_invocation"),
        (BillingModel, "charge_invocation", "faas.charge_invocation"),
        (ConsistentHashRing, "lookup", "cache.ring_lookup"),
        (Proxy, "choose_placement", "cache.choose_placement"),
    ]


@contextlib.contextmanager
def _traced(spans: Spans, deployment: InfiniCacheDeployment, on: bool, profile: bool):
    """Wrapper spans (and the loop profiler) for the duration of the block."""
    if not on:
        yield
        return
    restore = install(spans, _trace_targets(type(deployment.flows)))
    if profile:
        deployment.simulator.enable_profiling()
    try:
        yield
    finally:
        restore()


def _profile_layers(deployment: InfiniCacheDeployment) -> dict[str, float]:
    snapshot = deployment.simulator.profile.snapshot()
    phases, counts = snapshot["phases"], snapshot["counts"]
    return {
        "sim.dispatch_s": phases["dispatch_s"],
        "sim.heap_ops_s": phases["heap_ops_s"],
        "sim.coroutine_steps_s": phases["coroutine_steps_s"],
        "network.arbiter_s": phases["arbiter_s"],
        "network.arbiter_transitions": counts["arbiter_transitions"],
    }


# ---------------------------------------------------------------------- replays
def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _sim_metrics(report) -> dict[str, float]:
    summary = report.latency_summary()
    return {
        "sim_get_p50_ms": 1e3 * summary["p50"],
        "sim_get_p99_ms": 1e3 * summary["p99"],
        "sim_get_samples": summary["count"],
        "hit_ratio": report.hit_ratio,
        "sim_cost_usd": report.total_cost,
    }


def _replay_layers(deployment: InfiniCacheDeployment, report, events: int) -> dict[str, float]:
    """Exact per-seed counts a replay leaves behind, by layer."""
    queue = deployment.simulator.queue.stats()
    flows = deployment.flows.flow_stats()
    retired = flows["completed_flows"] + flows["abandoned_flows"]
    return {
        "sim.events": events,
        "sim.cancelled_share": _share(queue["cancelled"], queue["pushed"]),
        "sim.peak_heap": queue["peak_heap_size"],
        "network.peak_active_flows": flows["peak_concurrent_flows"],
        "network.flows_completed": flows["completed_flows"],
        "network.abandoned_share": _share(flows["abandoned_flows"], retired),
        "cache.hits": report.hits,
        "cache.misses": report.misses,
        "cache.resets": report.resets,
        "cache.recoveries": report.recoveries,
        "cache.degraded_hits": report.degraded_hits,
        "faas.invocations": deployment.billing.total_invocations,
        "faas.billed_s": deployment.billing.total_billed_seconds,
        "faas.reclaims": deployment.counters().get("faas.reclaims", 0.0),
    }


def _drive(spans: Spans, deployment, driver, plans, traced: bool) -> tuple[object, dict]:
    """Run one closed-loop replay under the ``run`` span and reduce it."""
    events_before = deployment.simulator.events_processed
    with _traced(spans, deployment, traced, profile=True):
        gc.collect()
        with spans.span("run"):
            with spans.span("run.drive"):
                report = driver.run(plans)
    events = deployment.simulator.events_processed - events_before
    with spans.span("reduce"):
        result = {"fingerprint": report.fingerprint(), "sim": _sim_metrics(report)}
    result["layer"] = _replay_layers(deployment, report, events)
    if traced:
        result["layer"].update(_profile_layers(deployment))
    return report, result


def fleet_hits(seed: int, scale: dict, spans: Spans, traced: bool,
               clients: int | None = None, sim_tracer: bool = False) -> dict:
    """1024 closed-loop clients re-reading private objects: all hits."""
    clients = clients or scale["fleet_clients"]
    objects_per_client, requests_per_client = 2, 6
    with spans.span("setup"):
        with spans.span("setup.build"):
            # Geometry and key names of repro.experiments.perf.macro_closed_loop
            # (so BENCH_perf.json's event counts stay comparable), but with
            # flow_arbiter left at the config default.
            deployment = InfiniCacheDeployment(InfiniCacheConfig(
                num_proxies=max(2, min(256, clients // 4)),
                lambdas_per_proxy=8,
                lambda_memory_bytes=1536 * MIB,
                data_shards=4,
                parity_shards=2,
                backup_enabled=False,
                straggler=StragglerModel(probability=0.05),
                seed=seed,
            ))
        with spans.span("setup.seed"):
            seeder = deployment.new_client("bench-seeder")
            for client in range(clients):
                for obj in range(objects_per_client):
                    seeder.put_sized(f"perf/{client}/obj-{obj}", FLEET_OBJECT_BYTES)
        with spans.span("setup.plans"):
            plans = [
                [(f"perf/{client}/obj-{index % objects_per_client}", FLEET_OBJECT_BYTES)
                 for index in range(requests_per_client)]
                for client in range(clients)
            ]
    tracer = None
    if sim_tracer:
        tracer = SpanTracer(deployment.simulator.clock)
        deployment.request_env.attach_tracer(tracer)
    report, result = _drive(spans, deployment, ClosedLoopDriver(deployment), plans, traced)
    requests = clients * requests_per_client
    result["attempted"] = requests
    # A GET that is not a completed hit is a failure here.
    result["failed"] = requests - min(report.hits, len(report.samples))
    result["layer"]["cache.put_sized_per_s"] = _share(
        clients * objects_per_client, spans.duration("setup.seed")
    )
    if tracer is not None:
        result["layer"]["obs.spans"] = len(tracer)
    return result


def chaos_rw(seed: int, scale: dict, spans: Spans, traced: bool) -> dict:
    """Reads and writes through the hardened path under the demo fault storm."""
    clients = scale["chaos_clients"]
    with spans.span("setup"):
        with spans.span("setup.build"):
            deployment = InfiniCacheDeployment(demo_config(seed))
            engine = ChaosEngine(deployment, demo_schedule())
            engine.install()
            driver = ClosedLoopDriver(
                deployment, backing_store=ObjectStore(), warm_pool=True
            )
        with spans.span("setup.plans"):
            rng = random.Random(seed)
            plans, gets = [], 0
            for client in range(clients):
                ops = []
                for round_index in range(CHAOS_ROUNDS):
                    key = f"obj-{(client + round_index) % CHAOS_KEYS:03d}"
                    kind = "PUT" if rng.random() < CHAOS_PUT_SHARE else "GET"
                    gets += kind == "GET"
                    ops.append(ClientOp(kind, key=key, size=CHAOS_OBJECT_BYTES))
                    ops.append(ClientOp("SLEEP", delay_s=CHAOS_THINK_S))
                plans.append(ops)
    report, result = _drive(spans, deployment, driver, plans, traced)
    with spans.span("reduce"):
        resilience = build_resilience_report(report, engine.windows)
    result["attempted"] = clients * CHAOS_ROUNDS
    # Every GET must end as a hit, a miss served by the store, or a degraded
    # hit; a PUT the cache rolled back is counted (faults.put_failures), not
    # failed: the cache is write-through, the store still holds the object.
    accounted = report.hits + report.misses + report.degraded_hits
    result["failed"] = abs(gets - accounted) + abs(gets - len(report.samples))
    counters = resilience.counters
    result["layer"].update({
        "faults.retries": counters.get("proxy.chunk_retries", 0.0),
        "faults.hedges": counters.get("proxy.chunk_hedges", 0.0),
        "faults.breaker_rejections": counters.get("proxy.breaker_rejections", 0.0),
        "faults.degraded_fallbacks": counters.get("proxy.degraded_fallbacks", 0.0),
        "faults.put_failures": counters.get("proxy.put_failures", 0.0),
        "faults.worst_window_availability": resilience.worst_availability(),
    })
    return result


def bytes_rw(seed: int, scale: dict, spans: Spans, traced: bool) -> dict:
    """Real payloads through the synchronous client: put, get, degraded get."""
    count, size = scale["objects"], scale["object_bytes"]
    with spans.span("setup"):
        with spans.span("setup.build"):
            deployment = InfiniCacheDeployment(InfiniCacheConfig(
                num_proxies=1, lambdas_per_proxy=40,
                data_shards=10, parity_shards=2,
                backup_enabled=False, seed=seed,
            ))
            client = deployment.new_client("bench-bytes")
        with spans.span("setup.payloads"):
            rng = random.Random(seed)
            payloads = [rng.randbytes(size) for _ in range(count)]
    keys = [f"obj-{index}" for index in range(count)]
    mismatches = misses = decode_hits = 0
    placements = []

    def read_all(phase: str) -> None:
        nonlocal mismatches, misses, decode_hits
        with spans.span(phase):
            for key, payload in zip(keys, payloads):
                spans.op = key
                got = client.get(key)
                misses += not got.hit
                mismatches += got.hit and got.value != payload
                decode_hits += got.decoded

    with _traced(spans, deployment, traced, profile=False):
        gc.collect()
        with spans.span("run"):
            with spans.span("run.put"):
                for key, payload in zip(keys, payloads):
                    spans.op = key
                    placements.append(client.put(key, payload).node_ids)
            read_all("run.get")
            # Reclaim exactly p = 2 of the nodes holding object 0, so every
            # object stays recoverable and the touched ones decode and repair.
            victims = placements[0][:2]
            for node in deployment.proxies[0].nodes:
                if node.node_id in victims:
                    deployment.platform.reclaim_instance(node.primary)
            read_all("run.degraded_get")
            spans.op = "rep"
    payload_mb = count * size / 1e6
    result = {
        "attempted": 3 * count,
        "failed": misses + mismatches,
        "fingerprint": hashlib.sha256(
            json.dumps([placements, decode_hits, deployment.counters()],
                       sort_keys=True).encode()
        ).hexdigest(),
        "sim": {"hit_ratio": _share(2 * count - misses, 2 * count)},
        "put_MBps": _share(payload_mb, spans.duration("run.put")),
        "get_MBps": _share(payload_mb, spans.duration("run.get")),
        "degraded_get_MBps": _share(payload_mb, spans.duration("run.degraded_get")),
        "layer": {
            "cache.hits": 2 * count - misses,
            "cache.misses": misses,
            "cache.recoveries": deployment.counters().get("proxy.recoveries", 0.0),
            "faas.reclaims": deployment.counters().get("faas.reclaims", 0.0),
            "faas.invocations": deployment.counters().get("faas.invocations", 0.0),
        },
    }
    if traced:
        codec = {
            phase: spans.self_seconds("erasure.", within=phase)
            for phase in ("run.put", "run.get", "run.degraded_get")
        }
        gets_s = spans.duration("run.get") + spans.duration("run.degraded_get")
        result["layer"]["cache.put_noncodec_share"] = 1.0 - _share(
            codec["run.put"], spans.duration("run.put")
        )
        result["layer"]["cache.get_noncodec_share"] = 1.0 - _share(
            codec["run.get"] + codec["run.degraded_get"], gets_s
        )
    return result


def figure_suite(seed: int, scale: dict, spans: Spans, traced: bool) -> dict:
    """What a researcher regenerates: every quick-scale experiment, then one
    scenario grid serially and on two workers."""
    # Imported here so the three replay workloads do not pay for the
    # experiment registry.
    from repro.experiments import production, runner
    from repro.scenarios import ScenarioRunner, run_grid
    from repro.scenarios.library import get_grid

    names = scale["experiments"]
    setup_s = []
    for _ in range(FIGURE_SETUP_REPEATS):
        index = spans.begin("setup")
        grid = get_grid(scale["grid"])
        with spans.span("setup.expand"):
            units = ScenarioRunner(grid, seed).work_units()
        production_scale = (
            production.ProductionScale.quick() if scale["production"] == "quick"
            else production.ProductionScale()
        )
        setup_s.append(spans.end(index))
    setup_s.sort()

    RESULTS_DIR.mkdir(exist_ok=True)
    raised = 0
    fingerprints: dict[str, object] = {}
    gc.collect()
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR, prefix="figures-") as out:
        with spans.span("run"):
            for name in names:
                with spans.span(f"experiment.{name}"):
                    prints = pathlib.Path(out) / f"{name}.fingerprints.json"
                    try:
                        runner.run_all(output_dir=out, only=[name], fingerprints_path=prints)
                        fingerprints[name] = json.loads(prints.read_text())["experiments"]
                    except Exception:  # keep measuring; the experiment counts as failed
                        traceback.print_exc()
                        raised += 1
            with spans.span("run.grid_serial"):
                serial = run_grid(grid, seed, parallel=1)
            with spans.span("run.grid_parallel2"):
                parallel = run_grid(grid, seed, parallel=2)
    with spans.span("reduce"):
        serial_prints, parallel_prints = serial.fingerprints(), parallel.fingerprints()
        mismatched = sum(
            parallel_prints.get(cell) != fingerprint
            for cell, fingerprint in serial_prints.items()
        )
        fingerprints["grid"] = serial_prints
        # A cache hit when figure13 ran above; at the quick scale a second or so.
        sim = _sim_metrics(production.run(production_scale).infinicache_all)
    spans_by_name = spans.by_name()

    def experiment_s(name: str) -> float:
        return spans_by_name.get(f"experiment.{name}", {}).get("total_s", 0.0)

    serial_s = spans.duration("run.grid_serial")
    parallel_s = spans.duration("run.grid_parallel2")
    named = ("figure8", "figure9", "figure13")
    return {
        "setup_s": setup_s[len(setup_s) // 2],
        "attempted": len(names) + 2 * len(units),
        "failed": raised + mismatched + abs(len(units) - len(serial.results))
        + abs(len(units) - len(parallel.results)),
        "fingerprint": hashlib.sha256(
            json.dumps(fingerprints, sort_keys=True).encode()
        ).hexdigest(),
        "sim": sim,
        "layer": {
            "experiments.figure8_s": experiment_s("figure8"),
            "experiments.figure9_s": experiment_s("figure9"),
            # figure13 is the first experiment to need the production replay.
            "experiments.production_s": experiment_s("figure13"),
            "experiments.rest_s": sum(
                experiment_s(name) for name in names if name not in named
            ),
            "scenarios.expand_s": spans_by_name["setup.expand"]["total_s"]
            / FIGURE_SETUP_REPEATS,
            "scenarios.cells_per_s_serial": _share(len(units), serial_s),
            "scenarios.cells_per_s_parallel2": _share(len(units), parallel_s),
            "scenarios.parallel2_efficiency": _share(serial_s, 2 * parallel_s),
        },
    }


WORKLOADS = {
    "fleet_hits": fleet_hits,
    "chaos_rw": chaos_rw,
    "figure_suite": figure_suite,
    "bytes_rw": bytes_rw,
}


# ---------------------------------------------------------------------- entry
def run_rep(args: argparse.Namespace) -> dict:
    spans = Spans()
    scale = SCALES["quick" if args.quick else "full"]
    extra = {}
    if args.workload == "fleet_hits":
        extra = {
            "clients": scale["fleet_clients"] // 4 if args.quarter else None,
            "sim_tracer": args.sim_tracer,
        }
    root = spans.begin("rep")
    result = WORKLOADS[args.workload](args.seed, scale, spans, args.traced, **extra)
    spans.end(root)
    result.setdefault("setup_s", spans.duration("setup"))
    result["wall_s"] = spans.duration("run")
    result["reduce_s"] = spans.duration("reduce")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.traced:
        by_name = spans.by_name()
        layer = result["layer"]
        for span_name in ("erasure.encode", "erasure.decode"):
            layer[f"{span_name}_self_s"] = by_name.get(span_name, {}).get("self_s", 0.0)
        layer["erasure.decode_calls"] = by_name.get("erasure.decode", {}).get("calls", 0)
        layer["network.transfer_self_s"] = sum(
            by_name.get(name, {}).get("self_s", 0.0)
            for name in ("network.transfer", "network.cancel")
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        trace = {
            "schema": "bench.trace/1",
            "workload": args.workload,
            "seed": args.seed,
            "scale": "quick" if args.quick else "full",
            "clock": "host seconds since the first span",
            "by_name": by_name,
            "layer": result["layer"],
            "spans": spans.to_json(),
        }
        (RESULTS_DIR / f"trace_{args.workload}.json").write_text(
            json.dumps(trace) + "\n", encoding="utf-8"
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one rep of one workload")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quarter", action="store_true",
                        help="fleet_hits only: a quarter of the fleet, for the scaling ratio")
    parser.add_argument("--sim-tracer", action="store_true",
                        help="fleet_hits only: attach repro.obs.SpanTracer")
    args = parser.parse_args(argv)
    with contextlib.redirect_stdout(sys.stderr):
        result = run_rep(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One fixed-size loop per layer over that layer's public API.

Run as its own process by ``bench/run.py`` once per traced invocation.
Every loop is repeated :data:`REPEATS` times and the median rate kept;
``--quick`` shrinks the loops for the contract test.  The output is one
JSON object ``{metric name: rate}`` on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time

from repro.cache.clock_lru import ClockLRU
from repro.cache.config import InfiniCacheConfig
from repro.cache.consistent_hash import ConsistentHashRing
from repro.cache.deployment import InfiniCacheDeployment
from repro.erasure.codec import ErasureCodec
from repro.experiments.perf import micro_event_queue, micro_flow_churn
from repro.faas.billing import BillingModel
from repro.faas.platform import FaaSPlatform
from repro.sim.loop import EventLoop
from repro.utils.rng import SeededRNG
from repro.utils.units import MB, MIB
from repro.workload.docker_registry import DockerRegistryTraceGenerator, RegistryTraceConfig
from repro.workload.popularity import StaticZipf

REPEATS = 3


def _timed(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def _rate(units: float, function) -> float:
    """Median over :data:`REPEATS` runs of ``units`` per host second."""
    return statistics.median(units / _timed(function) for _ in range(REPEATS))


def sim_micros(scale: float) -> dict[str, float]:
    events = int(50_000 * scale)
    processes, yields = int(2_000 * scale), 25

    def spawn_and_yield() -> None:
        loop = EventLoop()

        def process():
            for _ in range(yields):
                yield 0.001

        for index in range(processes):
            loop.spawn(process(), label="bench.process")
        loop.run_all()

    return {
        "sim.queue_micro_ops_per_s": _rate(events, lambda: micro_event_queue(events=events)),
        "sim.process_micro_steps_per_s": _rate(processes * yields, spawn_and_yield),
    }


def network_micros(scale: float) -> dict[str, float]:
    # The arbiter a user of InfiniCacheConfig() gets; the dense geometry is
    # the only place the vectorized default is known to win.
    arbiter = InfiniCacheConfig().flow_arbiter
    sparse, dense = int(2_000 * scale), int(1_000 * scale)
    return {
        "network.churn_sparse_per_s": _rate(
            sparse, lambda: micro_flow_churn(flows=sparse, hosts=32, proxies=8, arbiter=arbiter)
        ),
        "network.churn_dense_per_s": _rate(
            dense, lambda: micro_flow_churn(flows=dense, hosts=2, proxies=1, arbiter=arbiter)
        ),
    }


def cache_micros(scale: float, seed: int) -> dict[str, float]:
    deployment = InfiniCacheDeployment(InfiniCacheConfig(
        num_proxies=1, lambdas_per_proxy=40, data_shards=10, parity_shards=2,
        backup_enabled=False, seed=seed,
    ))
    client = deployment.new_client("bench-micro")
    keys = [f"micro-{index}" for index in range(200)]
    for key in keys:
        client.put_sized(key, 2 * MB)
    gets = int(2_000 * scale)

    def sync_gets() -> None:
        for index in range(gets):
            if not client.get(keys[index % len(keys)]).hit:
                raise RuntimeError("micro get missed on a fault-free deployment")

    ring: ConsistentHashRing[int] = ConsistentHashRing()
    ring.add_many([(f"proxy-{index}", index) for index in range(64)])
    lookups = int(100_000 * scale)
    lookup_keys = [f"key-{index}" for index in range(lookups)]
    entries = int(50_000 * scale)

    def clock_lru() -> None:
        lru: ClockLRU[int] = ClockLRU()
        for index in range(entries):
            lru.insert(lookup_keys[index], index)
        for index in range(entries):
            lru.touch(lookup_keys[index])
        for _ in range(entries):
            lru.evict()

    proxy = deployment.proxies[0]
    placements = int(20_000 * scale)
    return {
        "cache.sync_get_per_s": _rate(gets, sync_gets),
        "cache.ring_lookups_per_s": _rate(
            lookups, lambda: [ring.lookup(key) for key in lookup_keys]
        ),
        "cache.clock_lru_ops_per_s": _rate(3 * entries, clock_lru),
        "cache.placement_per_s": _rate(
            placements, lambda: [proxy.choose_placement(12) for _ in range(placements)]
        ),
    }


def erasure_micros(scale: float, seed: int) -> dict[str, float]:
    codec = ErasureCodec(10, 2)
    size = int(4 * MB * scale)
    payload = random.Random(seed).randbytes(size)
    chunks = codec.encode("micro", payload)
    survivors = chunks[2:]  # two data shards missing
    calls = 4

    def decode() -> None:
        for _ in range(calls):
            if codec.decode(survivors) != payload:
                raise RuntimeError("micro decode returned different bytes")

    megabytes = calls * size / 1e6
    return {
        "erasure.encode_MBps": _rate(
            megabytes, lambda: [codec.encode("micro", payload) for _ in range(calls)]
        ),
        "erasure.decode_MBps": _rate(megabytes, decode),
        "erasure.rebuild_MBps": _rate(
            megabytes, lambda: [codec.rebuild_missing(survivors) for _ in range(calls)]
        ),
    }


def faas_micros(scale: float) -> dict[str, float]:
    platform = FaaSPlatform(EventLoop())
    platform.register_function("bench-micro-fn", 1536 * MIB)
    cycles, charges = int(20_000 * scale), int(100_000 * scale)

    def invoke_cycles() -> None:
        for _ in range(cycles):
            result = platform.invoke("bench-micro-fn")
            platform.complete_invocation(result.instance, 0.05)

    def charge() -> None:
        billing = BillingModel()
        for _ in range(charges):
            billing.charge_invocation(1536 * MIB, 0.123)

    return {
        "faas.invoke_cycle_per_s": _rate(cycles, invoke_cycles),
        "faas.billing_charges_per_s": _rate(charges, charge),
    }


def workload_micros(scale: float, seed: int) -> dict[str, float]:
    config = RegistryTraceConfig(
        duration_hours=6.0 * scale, catalogue_size=1_200,
        base_requests_per_hour=1_200.0, seed=seed,
    )
    records = len(DockerRegistryTraceGenerator(config).generate().records)
    draws = int(100_000 * scale)
    sampler = StaticZipf(0.9).sampler(10_000, SeededRNG(seed))
    return {
        "workload.trace_synth_records_per_s": _rate(
            records, lambda: DockerRegistryTraceGenerator(config).generate()
        ),
        "workload.zipf_draws_per_s": _rate(
            draws, lambda: [sampler.draw(0.0) for _ in range(draws)]
        ),
    }


def run_all(seed: int, quick: bool) -> dict[str, float]:
    scale = 0.1 if quick else 1.0
    metrics: dict[str, float] = {}
    metrics.update(sim_micros(scale))
    metrics.update(network_micros(scale))
    metrics.update(cache_micros(scale, seed))
    metrics.update(erasure_micros(scale, seed))
    metrics.update(faas_micros(scale))
    metrics.update(workload_micros(scale, seed))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="per-layer micro-benchmarks")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_all(args.seed, args.quick)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

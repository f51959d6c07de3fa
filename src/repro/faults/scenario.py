"""Canonical chaos scenarios shared by the CLI, tests, and experiments.

One place defines the demo storm — a hardened deployment, a closed-loop
workload, and a :class:`~repro.faults.spec.FaultSchedule` walking through
every fault kind — so ``repro chaos``, the chaos-availability experiment,
and the regression tests all replay the *same* scenario and can compare
fingerprints across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import InfiniCacheConfig, ResilienceConfig
from repro.cache.deployment import InfiniCacheDeployment
from repro.faults.engine import ChaosEngine
from repro.faults.report import ResilienceReport, build_resilience_report
from repro.faults.spec import (
    FaultSchedule,
    InvocationFaults,
    LinkBlackhole,
    ProxyCrash,
    ReclamationStorm,
    StragglerInflation,
)
from repro.utils.units import MIB
from repro.workload.replay import ClientOp, ClosedLoopDriver, ConcurrentReplayReport


def demo_resilience() -> ResilienceConfig:
    """The hardening profile chaos scenarios run with: everything on."""
    return ResilienceConfig(chunk_attempts=3, chunk_timeout_s=1.0, circuit_breaker=True)


def demo_config(seed: int = 2020) -> InfiniCacheConfig:
    """A small hardened two-proxy deployment sized for a fast, fault-rich replay."""
    return InfiniCacheConfig(
        num_proxies=2,
        lambdas_per_proxy=16,
        lambda_memory_bytes=1536 * MIB,
        data_shards=4,
        parity_shards=2,
        backup_interval_s=60.0,
        resilience=demo_resilience(),
        seed=seed,
    )


def demo_schedule() -> FaultSchedule:
    """The demo storm: one window of every fault kind across a ~200 s run."""
    return FaultSchedule((
        ReclamationStorm(at_s=30.0, fraction=0.5, correlated=True),
        LinkBlackhole(at_s=60.0, duration_s=20.0, host_fraction=0.3),
        InvocationFaults(at_s=90.0, duration_s=20.0, failure_probability=0.3),
        StragglerInflation(at_s=120.0, duration_s=20.0, probability=0.6,
                           min_factor=4.0, max_factor=10.0),
        ProxyCrash(at_s=150.0, down_s=20.0, proxy_index=0),
        ReclamationStorm(at_s=180.0, fraction=0.3, correlated=False),
    ))


def demo_plans(
    clients: int = 6, keys: int = 12, rounds: int = 70,
    object_bytes: int = 2_000_000, think_s: float = 3.0,
) -> list[list[ClientOp]]:
    """Closed-loop plans: each client cycles over a shared key set with
    think time between requests, spanning the full fault schedule."""
    plans: list[list[ClientOp]] = []
    for client in range(clients):
        ops: list[ClientOp] = []
        for round_index in range(rounds):
            key = f"obj-{(client + round_index) % keys:03d}"
            ops.append(ClientOp("GET", key=key, size=object_bytes))
            ops.append(ClientOp("SLEEP", delay_s=think_s))
        plans.append(ops)
    return plans


@dataclass
class ChaosRunResult:
    """Everything one chaos-scenario replay produced."""

    replay: ConcurrentReplayReport
    resilience: ResilienceReport
    fingerprint: str


def run_chaos_scenario(
    seed: int = 2020,
    schedule: FaultSchedule | None = None,
    config: InfiniCacheConfig | None = None,
    clients: int = 6,
    rounds: int = 70,
) -> ChaosRunResult:
    """Replay the demo workload under a fault schedule and report resilience.

    Fully deterministic in ``(seed, schedule)``: running it twice yields the
    same replay fingerprint byte for byte, which is what ``repro chaos``
    asserts.  Passing an empty schedule gives the fault-free control run for
    availability comparisons.
    """
    config = config or demo_config(seed)
    schedule = schedule if schedule is not None else demo_schedule()
    deployment = InfiniCacheDeployment(config)
    engine = ChaosEngine(deployment, schedule)
    engine.install()
    driver = ClosedLoopDriver(deployment, warm_pool=True)
    replay = driver.run(demo_plans(clients=clients, rounds=rounds))
    resilience = build_resilience_report(replay, engine.windows)
    return ChaosRunResult(
        replay=replay,
        resilience=resilience,
        fingerprint=replay.fingerprint(),
    )

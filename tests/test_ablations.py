"""Ablations of three design choices the paper calls out.

* **Backup interval T_bak** (Section 4.2: "a trade-off between availability,
  runtime overhead, and cost effectiveness"): sweep the interval, including
  "disabled", under a bursty reclamation regime and report the hourly backup
  cost and the fraction of objects that survive.
* **Anticipatory billed-duration control** (Section 3.3) against a naive
  runtime that stays resident for a fixed multi-cycle window after every
  request "just in case".
* **First-d chunk streaming** (Section 3.2): with stragglers present,
  completing a GET as soon as the fastest ``d`` chunks arrive should cut tail
  latency compared to waiting for all ``d+p`` chunks.

Each rendered table is pinned by ``tests/golden/report_scale.json``.
"""

import hashlib

from repro.cache.billed_duration import BilledDurationController
from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.faas.billing import BILLING_CYCLE_SECONDS, BillingModel
from repro.faas.reclamation import ZipfBurstReclamationPolicy
from repro.utils.report import format_table
from repro.utils.rng import SeededRNG
from repro.utils.stats import summarize
from repro.utils.units import GIB, MB, MIB, MINUTE


def _digest(table: str) -> str:
    return hashlib.sha256(table.encode("utf-8")).hexdigest()


def _run_interval(backup_interval_s: float | None, hours: float = 3.0, objects: int = 30):
    config = InfiniCacheConfig(
        lambdas_per_proxy=30,
        lambda_memory_bytes=1536 * MIB,
        data_shards=10,
        parity_shards=2,
        backup_enabled=backup_interval_s is not None,
        backup_interval_s=backup_interval_s or 300.0,
        straggler=StragglerModel(probability=0.0),
        seed=2024,
    )
    policy = ZipfBurstReclamationPolicy(
        SeededRNG(99), burst_probability=0.2, max_burst=8, sibling_correlation=0.6
    )
    deployment = InfiniCacheDeployment(config, reclamation_policy=policy)
    deployment.start()
    client = deployment.new_client()
    for index in range(objects):
        client.put_sized(f"ablation/{index}", 20 * MB)

    survived = 0
    probes = 0
    for checkpoint in range(1, int(hours * 4) + 1):
        deployment.run_until(checkpoint * 15 * MINUTE)
        for index in range(objects):
            probes += 1
            result = client.get(f"ablation/{index}")
            if result.hit:
                survived += 1
            else:
                client.put_sized(f"ablation/{index}", 20 * MB)
    deployment.stop()
    breakdown = deployment.cost_breakdown()
    return {
        "availability": survived / probes,
        "backup_cost_per_hour": breakdown.get("backup", 0.0) / hours,
        "total_cost_per_hour": breakdown.get("total", 0.0) / hours,
    }


def test_ablation_backup_interval(check_golden):
    def sweep():
        return {
            "disabled": _run_interval(None),
            "T_bak=10min": _run_interval(10 * MINUTE),
            "T_bak=5min": _run_interval(5 * MINUTE),
            "T_bak=2min": _run_interval(2 * MINUTE),
        }

    results = sweep()

    rows = [
        [label, f"{stats['availability']:.2%}", stats["backup_cost_per_hour"],
         stats["total_cost_per_hour"]]
        for label, stats in results.items()
    ]
    table = format_table(
        ["backup interval", "availability", "backup $/h", "total $/h"],
        rows,
        title="Ablation — backup interval: availability vs cost",
    )
    check_golden("report_scale", _digest(table), entry="ablation_backup")

    # Backup costs money: any enabled interval costs more than disabled, and
    # shorter intervals cost more than longer ones.
    assert results["disabled"]["backup_cost_per_hour"] == 0.0
    assert results["T_bak=2min"]["backup_cost_per_hour"] > results["T_bak=10min"]["backup_cost_per_hour"]
    # Backup buys availability: enabling it beats disabling it under churn.
    assert results["T_bak=5min"]["availability"] > results["disabled"]["availability"]


def _simulate_policies(record_charges, requests: int = 2000, mean_gap_s: float = 2.0):
    """Drive both policies with the same Poisson request stream."""
    rng = SeededRNG(404)
    arrival = 0.0
    arrivals = []
    for _ in range(requests):
        arrival += rng.exponential(mean_gap_s)
        arrivals.append(arrival)
    service_time = 0.02  # 20 ms per chunk request

    # InfiniCache's anticipatory controller.
    anticipatory = BilledDurationController()
    charges = record_charges(anticipatory)
    for timestamp in arrivals:
        anticipatory.expire_if_due(timestamp)
        anticipatory.record_request(timestamp, service_time)
    anticipatory.flush()

    # Naive policy: every request keeps the function alive for a fixed
    # 10-cycle (1 s) window; overlapping windows merge.
    naive_billed = 0.0
    window_end = None
    window_start = None
    hold = 10 * BILLING_CYCLE_SECONDS
    for timestamp in arrivals:
        if window_end is None or timestamp > window_end:
            if window_end is not None:
                naive_billed += window_end - window_start
            window_start = timestamp
        window_end = timestamp + hold
    if window_end is not None:
        naive_billed += window_end - window_start

    memory = int(1.5 * GIB)
    anticipatory_bill = BillingModel()
    for charge in charges:
        anticipatory_bill.charge_invocation(memory, charge.duration_s)
    naive_bill = BillingModel()
    naive_bill.charge_invocation(memory, naive_billed)

    return {
        "anticipatory": {
            "billed_seconds": sum(charge.billed_duration_s for charge in charges),
            "cost": anticipatory_bill.total_cost,
            "sessions": len(charges),
        },
        "naive-1s-hold": {
            "billed_seconds": naive_billed,
            "cost": naive_bill.total_cost,
            "sessions": 1,
        },
    }


def test_ablation_billing(check_golden, record_charges):
    results = _simulate_policies(record_charges)

    rows = [
        [name, stats["billed_seconds"], stats["cost"]]
        for name, stats in results.items()
    ]
    table = format_table(
        ["policy", "billed seconds", "duration cost ($)"],
        rows,
        title="Ablation — anticipatory billed-duration control vs naive 1 s hold",
    )
    check_golden("report_scale", _digest(table), entry="ablation_billing")

    # The anticipatory policy bills a small fraction of the naive policy's
    # duration for the same request stream.
    assert results["anticipatory"]["billed_seconds"] < 0.5 * results["naive-1s-hold"]["billed_seconds"]
    assert results["anticipatory"]["cost"] < results["naive-1s-hold"]["cost"]


def _measure(requests: int = 60) -> dict[str, dict[str, float]]:
    config = InfiniCacheConfig(
        lambdas_per_proxy=24,
        lambda_memory_bytes=1024 * MIB,
        data_shards=10,
        parity_shards=2,
        backup_enabled=False,
        straggler=StragglerModel(probability=0.15, min_factor=2.0, max_factor=8.0),
        seed=77,
    )
    deployment = InfiniCacheDeployment(config)
    deployment.start()
    client = deployment.new_client()
    proxy = deployment.proxies[0]
    client.put_sized("ablation/object", 100 * MB)

    first_d: list[float] = []
    wait_all: list[float] = []
    for _ in range(requests):
        deployment.run_until(deployment.simulator.now + 1.0)
        outcome = proxy.get("ablation/object", deployment.simulator.now)
        assert outcome.found and outcome.recoverable
        available_times = sorted(f.time_s for f in outcome.fetches if not f.lost)
        first_d.append(available_times[config.data_shards - 1])
        wait_all.append(available_times[-1])
    deployment.stop()
    return {"first-d": summarize(first_d), "wait-for-all": summarize(wait_all)}


def test_ablation_first_d(check_golden):
    results = _measure()

    rows = [
        [policy, stats["p50"] * 1000, stats["p90"] * 1000, stats["p99"] * 1000]
        for policy, stats in results.items()
    ]
    table = format_table(
        ["policy", "p50 (ms)", "p90 (ms)", "p99 (ms)"],
        rows,
        title="Ablation — first-d streaming vs waiting for all chunks (100 MB, RS(10+2))",
    )
    check_golden("report_scale", _digest(table), entry="ablation_first_d")

    # First-d must never be slower, and with stragglers it must cut the tail.
    assert results["first-d"]["p50"] <= results["wait-for-all"]["p50"] + 1e-9
    assert results["first-d"]["p99"] < results["wait-for-all"]["p99"]
    assert results["first-d"]["p90"] < results["wait-for-all"]["p90"]

"""Chaos sweep — measured availability under faults vs. hardening level.

The analytic availability experiment (:mod:`repro.experiments.availability`,
Section 4.3) models object *survival* under reclamation distributions.  This
experiment measures availability empirically: the canonical fault storm
(:func:`repro.faults.scenario.demo_schedule` — correlated reclamation
storms, a link blackhole, invocation faults, straggler inflation, a proxy
crash) is replayed against the same closed-loop workload at increasing
levels of request-path hardening, and the resilience report's per-window
availability, degraded-hit counts, and faulted-vs-clean SLO deltas are
compared level by level.

A fault-free control run (empty schedule, full hardening) anchors the
sweep: its availability is 1.0 by construction, and its fingerprint must
match across process runs like every other figure's.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.cache.config import ResilienceConfig
from repro.experiments.report import format_table
from repro.faults.report import ResilienceReport
from repro.faults.scenario import (
    demo_config,
    demo_resilience,
    demo_schedule,
    run_chaos_scenario,
)
from repro.faults.spec import FaultSchedule


def hardening_levels() -> dict[str, ResilienceConfig]:
    """Hardening levels swept, weakest first.

    Every level degrades rather than fails (no level can crash the request
    path — an unreachable quorum falls back to the backing store); what
    varies is how hard the proxy tries before giving a chunk up.
    """
    return {
        "fallback only": ResilienceConfig(),
        "retry x3": ResilienceConfig(chunk_attempts=3),
        "retry + hedge": ResilienceConfig(chunk_attempts=3, chunk_timeout_s=1.0),
        "full hardening": demo_resilience(),
    }


@dataclass
class ChaosAvailabilityResult:
    """One resilience report per hardening level, plus the fault-free control."""

    seed: int
    clients: int
    rounds: int
    #: level label -> resilience report (insertion order = sweep order).
    reports: dict[str, ResilienceReport] = field(default_factory=dict)
    #: level label -> replay fingerprint (determinism artifact).
    fingerprints: dict[str, str] = field(default_factory=dict)


def run(
    seed: int = 2020, clients: int = 5, rounds: int = 50
) -> ChaosAvailabilityResult:
    """Replay the storm once per hardening level and collect the reports."""
    result = ChaosAvailabilityResult(seed=seed, clients=clients, rounds=rounds)
    control = run_chaos_scenario(
        seed=seed,
        schedule=FaultSchedule(()),
        config=demo_config(seed),
        clients=clients,
        rounds=rounds,
    )
    result.reports["control (no faults)"] = control.resilience
    result.fingerprints["control (no faults)"] = control.fingerprint
    for label, resilience in hardening_levels().items():
        config = dataclasses.replace(demo_config(seed), resilience=resilience)
        outcome = run_chaos_scenario(
            seed=seed,
            schedule=demo_schedule(),
            config=config,
            clients=clients,
            rounds=rounds,
        )
        result.reports[label] = outcome.resilience
        result.fingerprints[label] = outcome.fingerprint
    return result


def format_report(result: ChaosAvailabilityResult) -> str:
    """Render the hardening sweep."""
    rows = []
    for label, report in result.reports.items():
        counters = report.counters
        rows.append([
            label,
            report.requests,
            f"{report.worst_availability():.3f}",
            report.degraded_hits,
            report.resets,
            f"{counters.get('proxy.chunk_retries', 0):g}",
            f"{counters.get('proxy.chunk_hedges', 0):g}",
            f"{report.slo_delta('p50') * 1000:+.1f}",
            f"{report.slo_delta('p99') * 1000:+.1f}",
        ])
    table = format_table(
        ["hardening", "requests", "worst avail", "degraded", "resets",
         "retries", "hedges", "dp50 ms", "dp99 ms"],
        rows,
        title=(
            f"Chaos sweep — storm availability by hardening level "
            f"(seed {result.seed}, {result.clients} clients x {result.rounds} rounds)"
        ),
    )
    lines = [table, ""]
    full = result.reports.get("full hardening")
    if full is not None:
        lines.append("full-hardening fault windows:")
        lines.extend(full.format_lines())
    return "\n".join(lines)

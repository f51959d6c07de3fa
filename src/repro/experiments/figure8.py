"""Figure 8 — number of functions reclaimed over a 24-hour window.

The paper deploys 300-400 functions, re-invokes each every N minutes, and
counts how many are reclaimed over time for six sampled days.  Two regimes
appear: spiky mass reclamation roughly every 6 hours (the 9-minute warm-up
trace) and continuous low-rate reclamation (the 1-minute traces).

The reproduction runs the simulated platform under each regime's reclamation
policy with the corresponding warm-up interval and reports reclaim counts per
hour, which is the same curve the figure plots (binned).  Each warm-up round
is one :meth:`~repro.faas.platform.FaaSPlatform.warm_up` call over the whole
fleet.

Known off-by-one (kept until the figure 8/9 goldens are re-pinned in one
go): sweeps fire at t = 60 s, 120 s, ..., ``hours * HOUR``, and the hourly
bins are ``[start, stop)``.  So hour 0 holds 59 sweeps, and the last sweep,
at exactly ``hours * HOUR``, is counted in ``reclaims_per_sweep`` but in no
hour: ``total_reclaims`` misses its reclaims.  At quick scale the
"9 min (08/21/19)" total reads 1 227 while 1 243 instances were reclaimed
(16 at the 24 h spike centre), and "1 min (11/06/19)" reads 538 against
539.  ``tests/test_experiments.py::TestFigures8And9::
test_hourly_total_equals_reclaims_swept`` is a strict xfail until then.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.faas.platform import FaaSPlatform
from repro.faas.reclamation import (
    PeriodicSpikePolicy,
    PoissonReclamationPolicy,
    ReclamationPolicy,
    ZipfBurstReclamationPolicy,
)
from repro.sim import EventLoop
from repro.utils.fanout import fan_out
from repro.utils.report import format_table
from repro.utils.rng import SeededRNG
from repro.utils.units import HOUR, MINUTE, MIB


@dataclass(frozen=True)
class WarmupStrategy:
    """One curve of Figure 8: a warm-up interval plus a reclamation regime."""

    label: str
    warmup_interval_s: float
    policy_name: str  # "spike", "poisson", or "zipf"

    def build_policy(self, rng: SeededRNG) -> ReclamationPolicy:
        """Instantiate the reclamation policy for this strategy."""
        if self.policy_name == "spike":
            return PeriodicSpikePolicy(rng)
        if self.policy_name == "poisson":
            return PoissonReclamationPolicy(rng, mean_reclaims_per_sweep=0.6)
        if self.policy_name == "zipf":
            return ZipfBurstReclamationPolicy(rng)
        raise ValueError(f"unknown policy name {self.policy_name!r}")


#: The six sampled days of the paper, mapped onto the two policy families.
DEFAULT_STRATEGIES: tuple[WarmupStrategy, ...] = (
    WarmupStrategy("9 min (08/21/19)", 9 * MINUTE, "spike"),
    WarmupStrategy("1 min (09/15/19)", 1 * MINUTE, "zipf"),
    WarmupStrategy("1 min (10/20/19)", 1 * MINUTE, "poisson"),
    WarmupStrategy("1 min (11/06/19)", 1 * MINUTE, "zipf"),
    WarmupStrategy("1 min (12/26/19)", 1 * MINUTE, "poisson"),
    WarmupStrategy("1 min (01/09/20)", 1 * MINUTE, "poisson"),
)


@dataclass
class Figure8Result:
    """Hourly reclaim counts per warm-up strategy."""

    hours: int
    fleet_size: int
    #: strategy label -> reclaim count per hour (len == hours)
    reclaims_per_hour: dict[str, list[int]] = field(default_factory=dict)
    total_reclaims: dict[str, int] = field(default_factory=dict)
    #: strategy label -> per-sweep (per-minute) reclaim counts, for Figure 9.
    reclaims_per_sweep: dict[str, list[int]] = field(default_factory=dict)


def _run_strategy(
    unit: tuple[WarmupStrategy, int, int, int],
) -> tuple[list[int], list[int]]:
    """Simulate one ``(strategy, fleet_size, hours, seed)`` fleet and return
    its per-hour and per-sweep reclaims (one :func:`fan_out` unit)."""
    strategy, fleet_size, hours, seed = unit
    simulator = EventLoop()
    rng = SeededRNG(seed)
    platform = FaaSPlatform(
        simulator=simulator,
        reclamation_policy=strategy.build_policy(rng.child("policy")),
    )
    for index in range(fleet_size):
        platform.register_function(f"probe-{index:04d}", 256 * MIB)

    names = platform.registered_functions()

    def warm_all() -> None:
        platform.warm_up(names)
        simulator.schedule(strategy.warmup_interval_s, warm_all, label="fig8.warmup")

    warm_all()
    platform.start_reclamation_sweeps()
    simulator.run_until(hours * HOUR)

    events = platform.metrics.series("faas.reclaim_events")
    per_hour = [int(count) for count in events.bucket(HOUR, end_time=hours * HOUR, aggregate="count")]
    sweeps = platform.metrics.series("faas.reclaims_per_sweep")
    per_sweep = [int(value) for value in sweeps.values]
    return per_hour, per_sweep


def run(
    fleet_size: int = 100,
    hours: int = 24,
    strategies: tuple[WarmupStrategy, ...] = DEFAULT_STRATEGIES,
    seed: int = 808,
) -> Figure8Result:
    """Run every warm-up strategy and collect reclaim timelines.

    The paper's fleet is 300-400 functions; the default here is 100 to keep
    the benchmark fast — pass ``fleet_size=400`` for the full-scale run.
    The strategies are independent (strategy ``i`` is seeded ``seed + i``)
    and run side by side on every usable core.  Memoised per parameter set
    within a process: Figure 9 re-bins the same (read-only) result.
    """
    return _run_cached(fleet_size, hours, strategies, seed)


@lru_cache(maxsize=4)
def _run_cached(
    fleet_size: int, hours: int, strategies: tuple[WarmupStrategy, ...], seed: int
) -> Figure8Result:
    result = Figure8Result(hours=hours, fleet_size=fleet_size)
    runs = fan_out(_run_strategy, [
        (strategy, fleet_size, hours, seed + index)
        for index, strategy in enumerate(strategies)
    ])
    for strategy, (per_hour, per_sweep) in zip(strategies, runs):
        result.reclaims_per_hour[strategy.label] = per_hour
        result.total_reclaims[strategy.label] = sum(per_hour)
        result.reclaims_per_sweep[strategy.label] = per_sweep
    return result


def format_report(result: Figure8Result) -> str:
    """Render the Figure 8 reproduction (totals and peak hours)."""
    rows = []
    for label, per_hour in result.reclaims_per_hour.items():
        peak_hour = max(range(len(per_hour)), key=lambda h: per_hour[h]) if per_hour else 0
        rows.append(
            [label, result.total_reclaims[label], max(per_hour) if per_hour else 0, peak_hour]
        )
    return format_table(
        ["strategy", "total reclaims", "peak reclaims/hour", "peak hour"],
        rows,
        title=(
            f"Figure 8 — functions reclaimed over {result.hours} h "
            f"(fleet of {result.fleet_size})"
        ),
    )

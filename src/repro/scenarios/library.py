"""The built-in scenario library: named grids beyond the paper's figures.

Each entry is a fully-declared :class:`~repro.scenarios.spec.ScenarioGrid`;
``repro scenarios list`` prints this registry and ``repro scenarios run
<name>`` executes one.  The library deliberately stresses regimes the
paper's experiments do not: popularity churn, MMPP/diurnal burstiness,
flash crowds over unseen objects, scan-resistance, multi-tenant
interference, and fault windows under the hardened request path.

Cells are sized to finish in seconds — grids exist to map trends across a
cartesian product, not to produce publication-length runs; scale a grid up
by editing its base spec (``docs/scenarios.md`` walks through it).
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.faults.scenario import demo_resilience
from repro.faults.spec import FaultSchedule, InvocationFaults, ReclamationStorm
from repro.scenarios.spec import (
    Axis,
    FixedObjectSize,
    ScenarioGrid,
    ScenarioSpec,
    TenantShare,
)
from repro.utils.units import KB, MB
from repro.workload.arrivals import (
    ClosedLoopArrivals,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.workload.distributions import ObjectSizeDistribution
from repro.workload.popularity import FlashCrowd, ScanMix, StaticZipf, ZipfChurn

__all__ = ["SCENARIOS", "get_grid", "register_grid"]

#: Name → grid registry backing the ``repro scenarios`` CLI.
SCENARIOS: dict[str, ScenarioGrid] = {}


def register_grid(grid: ScenarioGrid) -> ScenarioGrid:
    if grid.name in SCENARIOS:
        raise ConfigurationError(f"scenario grid {grid.name!r} already registered")
    SCENARIOS[grid.name] = grid
    return grid


def get_grid(name: str) -> ScenarioGrid:
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    return SCENARIOS[name]


# A small mixture distribution for scenario cells: same two-regime shape as
# the Figure-1 model but capped well below 4 GB so a cell replays in seconds.
_SMALL_MIX = ObjectSizeDistribution(
    small_min_bytes=64 * KB,
    small_max_bytes=1 * MB,
    large_min_bytes=1 * MB,
    large_max_bytes=8 * MB,
    large_fraction=0.22,
)


register_grid(ScenarioGrid(
    name="smoke",
    description=(
        "Tiny 2x2 sanity grid (arrival mode x popularity); the differential "
        "serial-vs-parallel suite and the CI smoke job run exactly this."
    ),
    base=ScenarioSpec(
        arrival=PoissonArrivals(rate_rps=1.5, duration_s=40.0),
        popularity=StaticZipf(exponent=0.9),
        object_size=FixedObjectSize(1 * MB),
        tenants=(TenantShare(tenant_id="default", catalogue_size=32),),
    ),
    axes=(
        Axis("arrival", (
            ("poisson", PoissonArrivals(rate_rps=1.5, duration_s=40.0)),
            ("closed", ClosedLoopArrivals(clients=4, requests_per_client=12)),
        )),
        Axis("popularity", (
            ("zipf", StaticZipf(exponent=0.9)),
            ("scan", ScanMix(exponent=0.9, scan_fraction=0.3)),
        )),
    ),
    replications=2,
))


register_grid(ScenarioGrid(
    name="popularity_churn",
    description=(
        "How fast rank churn erodes the hit ratio: static Zipf vs. partial "
        "reshuffles every 30 s / 10 s, at two request rates."
    ),
    base=ScenarioSpec(
        arrival=PoissonArrivals(rate_rps=2.0, duration_s=60.0),
        object_size=FixedObjectSize(1 * MB),
        tenants=(TenantShare(tenant_id="default", catalogue_size=48),),
    ),
    axes=(
        Axis("popularity", (
            ("static", StaticZipf(exponent=0.9)),
            ("churn-30s", ZipfChurn(exponent=0.9, churn_interval_s=30.0,
                                    rotate_fraction=0.25)),
            ("churn-10s", ZipfChurn(exponent=0.9, churn_interval_s=10.0,
                                    rotate_fraction=0.5)),
        )),
        Axis("rate", (
            ("2rps", PoissonArrivals(rate_rps=2.0, duration_s=60.0)),
            ("6rps", PoissonArrivals(rate_rps=6.0, duration_s=60.0)),
        ), spec_field="arrival"),
    ),
    replications=2,
))


register_grid(ScenarioGrid(
    name="bursty_arrivals",
    description=(
        "Arrival-process shapes beyond homogeneous Poisson: 2-state MMPP "
        "bursts and a compressed diurnal cycle, against static vs. churning "
        "popularity."
    ),
    base=ScenarioSpec(
        object_size=FixedObjectSize(1 * MB),
        tenants=(TenantShare(tenant_id="default", catalogue_size=48),),
    ),
    axes=(
        Axis("arrival", (
            ("steady", PoissonArrivals(rate_rps=2.0, duration_s=60.0)),
            ("mmpp", MMPPArrivals(quiet_rate_rps=0.8, burst_rate_rps=8.0,
                                  quiet_dwell_s=20.0, burst_dwell_s=5.0,
                                  duration_s=60.0)),
            ("diurnal", DiurnalArrivals(base_rate_rps=2.0, duration_s=120.0,
                                        start_hour=8.0, peak_hour=14.0,
                                        amplitude=0.6, seconds_per_hour=10.0)),
        )),
        Axis("popularity", (
            ("static", StaticZipf(exponent=0.9)),
            ("churn", ZipfChurn(exponent=0.9, churn_interval_s=20.0,
                                rotate_fraction=0.25)),
        )),
    ),
    replications=2,
))


register_grid(ScenarioGrid(
    name="flash_crowd",
    description=(
        "A thundering herd over previously-unseen objects mid-run: how the "
        "severity of the flash window moves tail latency and the RESET rate."
    ),
    base=ScenarioSpec(
        arrival=PoissonArrivals(rate_rps=3.0, duration_s=60.0),
        object_size=FixedObjectSize(2 * MB),
        tenants=(TenantShare(tenant_id="default", catalogue_size=48),),
    ),
    axes=(
        Axis("popularity", (
            ("baseline", StaticZipf(exponent=0.9)),
            ("mild", FlashCrowd(exponent=0.9, at_s=20.0, duration_s=15.0,
                                flash_fraction=0.4, flash_objects=3)),
            ("severe", FlashCrowd(exponent=0.9, at_s=20.0, duration_s=15.0,
                                  flash_fraction=0.8, flash_objects=2)),
        )),
    ),
    replications=2,
))


register_grid(ScenarioGrid(
    name="scan_resistance",
    description=(
        "Scan-resistance adversary: a sequential one-touch scan interleaved "
        "with Zipf traffic at increasing scan share."
    ),
    base=ScenarioSpec(
        arrival=PoissonArrivals(rate_rps=3.0, duration_s=60.0),
        object_size=FixedObjectSize(1 * MB),
        tenants=(TenantShare(tenant_id="default", catalogue_size=64),),
    ),
    axes=(
        Axis("popularity", (
            ("no-scan", StaticZipf(exponent=1.0)),
            ("scan-20", ScanMix(exponent=1.0, scan_fraction=0.2)),
            ("scan-50", ScanMix(exponent=1.0, scan_fraction=0.5)),
        )),
    ),
    replications=2,
))


register_grid(ScenarioGrid(
    name="fault_windows",
    description=(
        "Fault schedules under the hardened request path: a correlated "
        "reclamation storm and an invocation-fault window, with the "
        "resilience collector reporting retries/hedges/degraded hits."
    ),
    base=ScenarioSpec(
        arrival=PoissonArrivals(rate_rps=2.0, duration_s=60.0),
        object_size=FixedObjectSize(1 * MB),
        tenants=(TenantShare(tenant_id="default", catalogue_size=32),),
        resilience=demo_resilience(),
    ),
    axes=(
        Axis("faults", (
            ("none", None),
            ("storm", FaultSchedule((
                ReclamationStorm(at_s=20.0, fraction=0.5, correlated=True),
            ))),
            ("invoke-faults", FaultSchedule((
                InvocationFaults(at_s=15.0, duration_s=20.0,
                                 failure_probability=0.3),
            ))),
        )),
    ),
    replications=2,
    collectors=("requests", "latency", "cost", "throughput", "resilience"),
))


# The acceptance-grade interference grid: 3 tenant mixes x 2 arrival shapes
# x 2 popularity models x 2 size models = 24 cells, 2 replications each.
_FAIR_MIX = (
    TenantShare(tenant_id="alpha", weight=1.0, catalogue_size=32),
    TenantShare(tenant_id="beta", weight=1.0, catalogue_size=32),
)
_HEAVY_MIX = (
    TenantShare(tenant_id="alpha", weight=3.0, catalogue_size=32),
    TenantShare(tenant_id="beta", weight=1.0, catalogue_size=32),
)
_WIDE_MIX = (
    TenantShare(tenant_id="alpha", weight=1.0, catalogue_size=16),
    TenantShare(tenant_id="beta", weight=1.0, catalogue_size=64),
)
register_grid(ScenarioGrid(
    name="tenant_interference",
    description=(
        "Multi-tenant interference: tenant mixes x arrival burstiness x "
        "popularity churn x size model (24 cells)."
    ),
    base=ScenarioSpec(
        object_size=FixedObjectSize(1 * MB),
        tenants=_FAIR_MIX,
    ),
    axes=(
        Axis("tenants", (
            ("fair", _FAIR_MIX),
            ("heavy-alpha", _HEAVY_MIX),
            ("wide-beta", _WIDE_MIX),
        )),
        Axis("arrival", (
            ("steady", PoissonArrivals(rate_rps=2.0, duration_s=40.0)),
            ("bursty", MMPPArrivals(quiet_rate_rps=0.8, burst_rate_rps=8.0,
                                    quiet_dwell_s=15.0, burst_dwell_s=4.0,
                                    duration_s=40.0)),
        )),
        Axis("popularity", (
            ("static", StaticZipf(exponent=0.9)),
            ("churn", ZipfChurn(exponent=0.9, churn_interval_s=15.0,
                                rotate_fraction=0.25)),
        )),
        Axis("sizes", (
            ("fixed-1mb", FixedObjectSize(1 * MB)),
            ("mixture", _SMALL_MIX),
        ), spec_field="object_size"),
    ),
    replications=2,
))

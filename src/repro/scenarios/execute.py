"""Execute one scenario cell: spec + seed → a replay report.

The executor is deliberately **pre-drawing**: every stochastic decision —
arrival times, tenant assignment, object ranks, object sizes — is drawn
from the cell's seeded RNG *before* the replay starts, in arrival order,
so the workload is a pure function of ``(spec, seed)`` and cannot be
perturbed by how in-flight requests interleave on the event loop.  That is
the property that makes per-cell fingerprints byte-identical between
serial and multi-process grid runs.

RNG stream layout (all children of ``SeededRNG(seed).child("scenario")``):

* ``("arrivals",)`` — the arrival process;
* ``("tenant-pick",)`` — the per-request tenant draw (weighted);
* ``(tenant_id, "popularity")`` — the tenant's popularity sampler
  (churn epochs consume a nested ``child("churn")``);
* ``(tenant_id, "sizes")`` — one size per catalogue object, drawn up
  front (an object's size is a property of the object, not the request).

Every workload cell replays against :data:`CELL_DEPLOYMENT`, seeded from
``seed`` via ``InfiniCacheConfig.seed`` exactly like every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cache.config import InfiniCacheConfig
from repro.cache.deployment import InfiniCacheDeployment
from repro.faults.engine import ChaosEngine
from repro.scenarios.spec import ScenarioSpec
from repro.utils.rng import SeededRNG
from repro.utils.units import MIB
from repro.workload.arrivals import ClosedLoopArrivals
from repro.workload.replay import ClosedLoopDriver, ConcurrentReplayReport, OpenLoopDriver

__all__ = ["CELL_DEPLOYMENT", "FLOW_TRACE_LIMIT", "ScenarioOutcome", "execute_cell"]

#: Retired transfers a scenario cell's deployment (and the ``cluster_scale``
#: experiment's) keeps: the collectors read aggregate flow statistics, which
#: are kept independently of the retained trace.
FLOW_TRACE_LIMIT = 512

#: The deployment of every workload cell: one proxy over eight 512 MiB
#: Lambdas, RS(4+2), no backup.  A cell sets only its resilience profile and
#: its seed.
CELL_DEPLOYMENT = InfiniCacheConfig(
    num_proxies=1,
    lambdas_per_proxy=8,
    lambda_memory_bytes=512 * MIB,
    data_shards=4,
    parity_shards=2,
    backup_enabled=False,
    flow_trace_limit=FLOW_TRACE_LIMIT,
)


@dataclass
class ScenarioOutcome:
    """What one cell execution produced, as the collectors consume it."""

    report: ConcurrentReplayReport
    #: Requests the pre-drawn schedule offered (the report counts those
    #: that completed).
    offered_requests: int


def _build_deployment(spec: ScenarioSpec, seed: int) -> InfiniCacheDeployment:
    config = replace(CELL_DEPLOYMENT, resilience=spec.resilience, seed=seed)
    deployment = InfiniCacheDeployment(config)
    if spec.faults is not None and len(spec.faults):
        ChaosEngine(deployment, spec.faults).install()
    return deployment


@dataclass(frozen=True)
class _Request:
    """One pre-drawn request of the schedule."""

    at_s: float
    tenant_id: str
    key: str
    size: int


def _draw_schedule(spec: ScenarioSpec, rng: SeededRNG,
                   times: list[float]) -> tuple[list[_Request], dict[str, int]]:
    """Pre-draw tenant, object, and size for every arrival, in time order.

    Returns the request list and the full catalogue (key → size) so the
    backing store can be pre-populated — every object is assumed to exist
    there, as in all the paper's replays.
    """
    tenants = spec.tenants
    weights = [tenant.weight for tenant in tenants]
    total_weight = sum(weights)
    pick_rng = rng.child("tenant-pick")
    samplers = {}
    sizes: dict[str, list[int]] = {}
    catalogue: dict[str, int] = {}
    for tenant in tenants:
        span = tenant.catalogue_size + spec.popularity.extra_objects
        samplers[tenant.tenant_id] = spec.popularity.sampler(
            tenant.catalogue_size, rng.child(tenant.tenant_id, "popularity")
        )
        size_rng = rng.child(tenant.tenant_id, "sizes")
        sizes[tenant.tenant_id] = [
            spec.object_size.sample(size_rng) for _ in range(span)
        ]
        for rank in range(span):
            catalogue[f"{tenant.tenant_id}/obj-{rank:06d}"] = (
                sizes[tenant.tenant_id][rank]
            )

    requests: list[_Request] = []
    for at_s in times:
        u = pick_rng.random() * total_weight if len(tenants) > 1 else 0.0
        cursor = 0.0
        tenant = tenants[-1]
        for candidate, weight in zip(tenants, weights):
            cursor += weight
            if u < cursor:
                tenant = candidate
                break
        rank = samplers[tenant.tenant_id].draw(at_s)
        key = f"{tenant.tenant_id}/obj-{rank:06d}"
        requests.append(_Request(at_s, tenant.tenant_id, key, catalogue[key]))
    return requests, catalogue


def execute_cell(spec: ScenarioSpec, seed: int) -> ScenarioOutcome:
    """Run one cell to completion and return its outcome (picklable inputs)."""
    deployment = _build_deployment(spec, seed)
    rng = SeededRNG(seed).child("scenario")

    if isinstance(spec.arrival, ClosedLoopArrivals):
        # Closed loop: plans are pre-drawn per client in issue order; the
        # popularity clock is frozen at 0 (spec validation rejects
        # time-dependent popularity under closed-loop arrivals).
        arrival = spec.arrival
        times = [0.0] * arrival.total_requests
        requests, _catalogue = _draw_schedule(spec, rng, times)
        plans = [
            [(request.key, request.size)
             for request in requests[index::arrival.clients]]
            for index in range(arrival.clients)
        ]
        report = ClosedLoopDriver(deployment).run(plans)
        report.system = "scenario"
    else:
        times = spec.arrival.times(rng.child("arrivals"))
        requests, catalogue = _draw_schedule(spec, rng, times)
        driver = OpenLoopDriver(deployment)
        for key, size in catalogue.items():
            driver.backing_store.put(key, size)
        report = ConcurrentReplayReport(
            system="scenario", mode="open-loop", clients=len(spec.tenants),
        )
        clients = {
            tenant.tenant_id: deployment.new_client(f"scenario-{tenant.tenant_id}")
            for tenant in spec.tenants
        }
        arrivals = [
            (
                request.at_s,
                f"scenario.{request.tenant_id}",
                lambda r=request: driver.request_process(
                    clients[r.tenant_id], r.tenant_id, r.key, r.size, report
                ),
            )
            for request in requests
        ]
        driver.run_schedule(arrivals, report)

    return ScenarioOutcome(report=report, offered_requests=len(requests))

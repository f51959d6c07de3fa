"""Figure 12 — aggregate throughput as the number of clients scales.

The paper deploys 5 proxies, each managing 50 Lambda nodes of 1024 MB, and
scales the number of concurrent clients from 1 to 10; every client talks to
all proxies through consistent hashing.  Throughput (GB/s) grows roughly
linearly with the client count because each added client brings its own
request stream and the Lambda pool has spare parallel bandwidth.

The reproduction drives each client count with the **closed-loop
event-driven driver** (:class:`repro.workload.replay.ClosedLoopDriver`):
every client is a coroutine on the shared event loop issuing its next GET
the moment the previous one completes, so the clients' chunk transfers
genuinely overlap and share bandwidth through the flow-level network model.
Aggregate throughput is the object bytes delivered per second of simulated
wall-clock time, and keeps rising with the client count until the proxy
uplinks saturate — which a one-request-at-a-time replay cannot reproduce
at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.experiments.harness import ExperimentHarness
from repro.experiments.report import format_table
from repro.utils.fanout import fan_out
from repro.utils.units import GB, MB, MIB
from repro.workload.replay import ClosedLoopDriver, ConcurrentReplayReport, seed_fleet

#: The paper's deployment: 5 proxies, each managing 50 Lambdas of 1024 MB.
NUM_PROXIES = 5
LAMBDAS_PER_PROXY = 50

#: Every client owns this many objects of this size.
OBJECTS_PER_CLIENT = 4
OBJECT_SIZE = 100 * MB

#: Stragglers are on, as in the paper: the first-d abandonment hides them.
STRAGGLER_PROBABILITY = 0.02


@dataclass
class Figure12Result:
    """Throughput per client count."""

    requests_per_client: int
    #: client count -> aggregate throughput (bytes/second)
    throughput_bps: dict[int, float] = field(default_factory=dict)
    #: client count -> the driver's full report (request + flow intervals).
    reports: dict[int, ConcurrentReplayReport] = field(default_factory=dict)
    #: per-client-count driver fingerprints (golden differential suite)
    fingerprints: dict[str, str] = field(default_factory=dict)

    def rows(self) -> list[list[object]]:
        """Table rows: clients, throughput GB/s, speedup over 1 client."""
        baseline = self.throughput_bps.get(1)
        rows = []
        for clients in sorted(self.throughput_bps):
            throughput = self.throughput_bps[clients]
            speedup = throughput / baseline if baseline else float("nan")
            rows.append([clients, throughput / GB, speedup])
        return rows


def _measure_clients(
    unit: tuple[InfiniCacheConfig, int, int],
) -> ConcurrentReplayReport:
    """Seed and replay one ``(config, clients, requests per client)`` point
    (a :func:`~repro.utils.fanout.fan_out` unit), returning its full report:
    :func:`format_report` reads its flow intervals."""
    config, clients, requests_per_client = unit
    deployment = InfiniCacheDeployment(config)
    # Each client owns its own objects so requests spread over the proxies.
    plans = seed_fleet(
        deployment, f"fig12/{clients}", clients,
        OBJECTS_PER_CLIENT, OBJECT_SIZE, requests_per_client,
    )
    return ClosedLoopDriver(deployment).run(plans)


def run(
    client_counts: tuple[int, ...] = (1, 2, 4, 6, 8, 10),
    requests_per_client: int = 20,
    seed: int = 1212,
) -> Figure12Result:
    """Measure aggregate closed-loop throughput for each client count.

    Per client count a fresh deployment is seeded with every client's
    objects (sized PUTs through the facade; the clock does not move), then
    the closed-loop driver runs the GET phase with truly concurrent clients.

    The client counts are independent replays and run side by side on every
    usable core, the largest (the longest) handed out first; each is
    recorded here, in the declared order, so the fingerprints and the
    ``--metrics`` export do not depend on where a count ran.
    """
    harness = ExperimentHarness("figure12", seed)
    result = Figure12Result(requests_per_client=requests_per_client)
    longest_first = sorted(client_counts, reverse=True)
    units = [
        (
            InfiniCacheConfig(
                num_proxies=NUM_PROXIES,
                lambdas_per_proxy=LAMBDAS_PER_PROXY,
                lambda_memory_bytes=1024 * MIB,
                data_shards=10,
                parity_shards=2,
                backup_enabled=False,
                straggler=StragglerModel(probability=STRAGGLER_PROBABILITY),
                seed=harness.seed_for("clients", clients),
            ),
            clients, requests_per_client,
        )
        for clients in longest_first
    ]
    reports = dict(zip(longest_first, fan_out(_measure_clients, units)))
    for clients in client_counts:
        report = harness.record(f"clients.{clients}", reports[clients])
        result.reports[clients] = report
        result.throughput_bps[clients] = report.aggregate_throughput_bps
    result.fingerprints = harness.fingerprints
    return result


def format_report(result: Figure12Result) -> str:
    """Render the Figure 12 reproduction as a table."""
    table = format_table(
        ["clients", "throughput (GB/s)", "speedup vs 1 client"],
        result.rows(),
        title="Figure 12 — throughput scalability with client count",
    )
    lines = [table]
    if result.reports:
        overlap = {
            clients: report.max_concurrent_flows()
            for clients, report in sorted(result.reports.items())
        }
        lines.append("")
        lines.append(
            "peak concurrent chunk flows: "
            + ", ".join(f"{c} clients={n}" for c, n in overlap.items())
        )
    return "\n".join(lines)

"""Figure 11 — microbenchmark GET latency.

Six sub-figures sweep the Lambda memory configuration (128-3008 MB); within
each, the object size (10-100 MB) and the erasure code ((10+0), (10+1),
(10+2), (10+4), (4+2), (5+1)) are varied.  Sub-figure (f) additionally
compares against 1-node and 10-node ElastiCache deployments.

Every cell is measured with the **closed-loop event driver**: one scripted
client issues a GET per one-second round (maintenance timers tick in
between), the request's chunk fetches race first-d-of-n on the event loop,
and the cell's latency distribution is read from the hit samples.  The
ElastiCache baselines replay an equivalent GET-per-second trace through
the open-loop baseline driver.  The shapes the reproduction must preserve
(Section 5.1):

* (10+1) is the fastest code — maximum first-d parallelism with minimum
  decode overhead;
* (10+0) is *not* faster than (10+1) despite skipping decoding, because it
  has no redundancy to hide stragglers;
* bigger Lambdas are faster up to a plateau around 1024 MB;
* InfiniCache beats 1-node ElastiCache for every size and is competitive
  with the 10-node cluster for large objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.elasticache import ElastiCacheCluster
from repro.cache.config import InfiniCacheConfig
from repro.cache.deployment import InfiniCacheDeployment
from repro.experiments.harness import ExperimentHarness
from repro.utils.fanout import fan_out
from repro.utils.report import format_table
from repro.utils.stats import summarize
from repro.utils.units import MB, MIB
from repro.workload.replay import (
    ClientOp,
    ClosedLoopDriver,
    ConcurrentReplayReport,
    ElastiCacheTarget,
    OpenLoopBaselineDriver,
)
from repro.workload.trace import Trace, TraceRecord

#: Lambda memory configurations of the six sub-figures (MiB).
FIGURE11_LAMBDA_MEMORY_MIB = (128, 256, 512, 1024, 2048, 3008)

#: Object sizes swept by Figure 11 (bytes).
FIGURE11_OBJECT_SIZES = (10 * MB, 20 * MB, 40 * MB, 60 * MB, 80 * MB, 100 * MB)

#: Erasure codes swept by Figure 11, as (data, parity) pairs.
FIGURE11_RS_CODES = ((10, 0), (10, 1), (10, 2), (10, 4), (4, 2), (5, 1))


@dataclass
class LatencySample:
    """Latency distribution for one (memory, code, object size) cell."""

    lambda_memory_mib: int
    rs_code: tuple[int, int]
    object_size: int
    latencies_s: list[float] = field(default_factory=list)

    def summary(self) -> dict[str, float]:
        """Percentile summary of this cell's latencies."""
        return summarize(self.latencies_s)


@dataclass
class Figure11Result:
    """All measured cells plus the ElastiCache comparison series."""

    cells: list[LatencySample] = field(default_factory=list)
    #: (deployment label, object size) -> median latency seconds
    elasticache: dict[tuple[str, int], float] = field(default_factory=dict)
    #: per-cell driver fingerprints (golden differential suite)
    fingerprints: dict[str, str] = field(default_factory=dict)

    def cell(self, memory_mib: int, code: tuple[int, int], size: int) -> LatencySample | None:
        """Find one measured cell."""
        for sample in self.cells:
            if (sample.lambda_memory_mib, sample.rs_code, sample.object_size) == (
                memory_mib, code, size,
            ):
                return sample
        return None

    def median(self, memory_mib: int, code: tuple[int, int], size: int) -> float:
        """Median latency of one cell (seconds)."""
        sample = self.cell(memory_mib, code, size)
        if sample is None or not sample.latencies_s:
            return float("nan")
        return sample.summary()["p50"]


def _measure_infinicache(
    unit: tuple[int, int, tuple[int, int], int, int],
) -> ConcurrentReplayReport:
    """Replay one ``(seed, memory, code, object size, requests)`` cell (a
    :func:`~repro.utils.fanout.fan_out` unit), returning its report with the
    digest fixed and the flow intervals released: no figure reads them."""
    seed, memory_mib, code, object_size, requests = unit
    data_shards, parity_shards = code
    config = InfiniCacheConfig(
        lambdas_per_proxy=max(20, (data_shards + parity_shards) * 2),
        lambda_memory_bytes=memory_mib * MIB,
        data_shards=data_shards,
        parity_shards=parity_shards,
        backup_enabled=False,
        seed=seed,
    )
    deployment = InfiniCacheDeployment(config)
    key = f"fig11/{memory_mib}/{data_shards}+{parity_shards}/{object_size}"
    # One scripted closed-loop client: seed the object, then a GET per
    # one-second round; a miss (a reclaimed chunk should not happen in these
    # backup-free short runs) re-inserts through the driver's RESET path so
    # the sweep continues.
    plan: list[ClientOp] = [ClientOp("PUT", key=key, size=object_size)]
    for _round in range(requests):
        plan.append(ClientOp("SLEEP", delay_s=1.0))
        plan.append(ClientOp("GET", key=key, size=object_size))
    report = ClosedLoopDriver(deployment).run([plan])
    report.release_flow_intervals()
    return report


def _measure_elasticache(
    harness: ExperimentHarness, node_count: int, object_size: int, requests: int
) -> float:
    instance = "cache.r5.8xlarge" if node_count == 1 else "cache.r5.xlarge"
    cluster = ElastiCacheCluster(instance_type_name=instance, node_count=node_count)
    key = f"fig11/ec/{object_size}"
    trace = Trace(name=f"fig11-ec-{node_count}-{object_size}")
    trace.append(TraceRecord(timestamp=0.0, operation="PUT", key=key, size=object_size))
    for index in range(requests):
        trace.append(
            TraceRecord(timestamp=1.0 + index, operation="GET", key=key, size=object_size)
        )
    driver = OpenLoopBaselineDriver(ElastiCacheTarget(cluster))
    report = harness.record(f"elasticache.{node_count}.{object_size}", driver.run(trace))
    latencies = [s.latency_s for s in report.hit_samples()]
    return summarize(latencies)["p50"] if latencies else float("nan")


def run(
    lambda_memories_mib: tuple[int, ...] = FIGURE11_LAMBDA_MEMORY_MIB,
    rs_codes: tuple[tuple[int, int], ...] = FIGURE11_RS_CODES,
    object_sizes: tuple[int, ...] = FIGURE11_OBJECT_SIZES,
    requests_per_cell: int = 15,
    seed: int = 1111,
) -> Figure11Result:
    """Measure every (memory, code, size) cell plus the ElastiCache baselines.

    The cells are independent replays and run side by side on every usable
    core; each is recorded here, in sweep order, so the fingerprints and the
    ``--metrics`` export do not depend on where a cell ran.
    """
    harness = ExperimentHarness("figure11", seed)
    result = Figure11Result()
    cells = [
        (memory_mib, code, object_size)
        for memory_mib in lambda_memories_mib
        for code in rs_codes
        for object_size in object_sizes
    ]
    reports = fan_out(_measure_infinicache, [
        (harness.seed_for(*cell), *cell, requests_per_cell) for cell in cells
    ])
    for (memory_mib, code, object_size), report in zip(cells, reports):
        harness.record(f"cell.{memory_mib}.{code[0]}+{code[1]}.{object_size}", report)
        result.cells.append(LatencySample(
            lambda_memory_mib=memory_mib,
            rs_code=code,
            object_size=object_size,
            latencies_s=[sample.latency_s for sample in report.hit_samples()],
        ))
    for object_size in object_sizes:
        result.elasticache[("ElastiCache(1-node)", object_size)] = _measure_elasticache(
            harness, 1, object_size, requests_per_cell
        )
        result.elasticache[("ElastiCache(10-node)", object_size)] = _measure_elasticache(
            harness, 10, object_size, requests_per_cell
        )
    result.fingerprints = harness.fingerprints
    return result


def format_report(result: Figure11Result) -> str:
    """Render the Figure 11 reproduction: one table per Lambda memory size."""
    sections = []
    memories = sorted({cell.lambda_memory_mib for cell in result.cells})
    sizes = sorted({cell.object_size for cell in result.cells})
    codes = sorted({cell.rs_code for cell in result.cells}, key=lambda c: (c[0], c[1]))
    for memory in memories:
        rows = []
        for code in codes:
            row: list[object] = [f"({code[0]}+{code[1]})"]
            for size in sizes:
                row.append(result.median(memory, code, size) * 1000)
            rows.append(row)
        headers = ["RS code"] + [f"{size // MB}MB (ms)" for size in sizes]
        sections.append(
            format_table(headers, rows, title=f"Figure 11 — {memory} MB Lambda, median GET latency")
        )
    if result.elasticache:
        rows = []
        for label in ("ElastiCache(1-node)", "ElastiCache(10-node)"):
            row: list[object] = [label]
            for size in sizes:
                row.append(result.elasticache.get((label, size), float("nan")) * 1000)
            rows.append(row)
        headers = ["deployment"] + [f"{size // MB}MB (ms)" for size in sizes]
        sections.append(format_table(headers, rows, title="Figure 11(f) — ElastiCache baselines"))
    return "\n\n".join(sections)

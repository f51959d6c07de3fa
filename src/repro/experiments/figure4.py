"""Figure 4 — GET latency as a function of the number of VM hosts touched.

The paper's study: 100 MB objects coded RS(10+1) onto 256 MB Lambdas drawn
from pools of 20-200 nodes.  Small pools pack many functions per ~3 GB host,
so one request's 11 chunks share few host NICs and contend; large pools
spread the chunks over more hosts and latency drops.

The reproduction sweeps the pool size with the **closed-loop event driver**:
one scripted client per pool re-places the object and GETs it once per
round (``INVALIDATE``/``PUT``/``GET`` :class:`~repro.workload.replay.ClientOp`
entries separated by 1-second ``SLEEP`` rounds, during which warm-ups keep
ticking), with the driver's warm-up phase deploying the full pool first so
the chunk-to-host spread is re-sampled each round exactly as the paper
re-selects random nodes.  Every GET's chunk fetches race on the event loop
through the flow-level network model, so the latency a request pays for
sharing few host NICs is the genuine contention of its own concurrent
chunk transfers.  Each hit sample carries ``hosts_touched`` — the figure's
x-axis — and the per-pool driver reports are fingerprinted for the golden
differential suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.experiments.harness import ExperimentHarness
from repro.utils.report import format_table
from repro.utils.stats import summarize
from repro.utils.units import MB, MIB
from repro.workload.replay import ClientOp, ClosedLoopDriver

#: The paper's object: 100 MB, coded RS(10+1).
OBJECT_SIZE = 100 * MB

#: The paper's function memory: 256 MB, so small pools pack many functions
#: per host.
LAMBDA_MEMORY_BYTES = 256 * MIB


@dataclass
class Figure4Result:
    """Latency samples grouped by the number of VM hosts a request touched."""

    pool_sizes: list[int]
    #: host count -> list of client-perceived latencies (seconds)
    latency_by_hosts: dict[int, list[float]] = field(default_factory=dict)
    #: per-pool driver fingerprints (golden differential suite)
    fingerprints: dict[str, str] = field(default_factory=dict)

    def rows(self) -> list[list[object]]:
        """Summary rows (hosts touched, samples, median, p90, max)."""
        rows = []
        for hosts in sorted(self.latency_by_hosts):
            summary = summarize(self.latency_by_hosts[hosts])
            rows.append(
                [hosts, summary["count"], summary["p50"] * 1000,
                 summary["p90"] * 1000, summary["max"] * 1000]
            )
        return rows


def run(
    pool_sizes: tuple[int, ...] = (20, 50, 100, 150, 200),
    requests_per_pool: int = 30,
    seed: int = 400,
) -> Figure4Result:
    """Sweep the pool size and collect latency grouped by hosts touched."""
    harness = ExperimentHarness("figure4", seed)
    result = Figure4Result(pool_sizes=list(pool_sizes))
    for pool_size in pool_sizes:
        config = InfiniCacheConfig(
            lambdas_per_proxy=pool_size,
            lambda_memory_bytes=LAMBDA_MEMORY_BYTES,
            data_shards=10,
            parity_shards=1,
            backup_enabled=False,
            straggler=StragglerModel(probability=0.0),
            seed=harness.seed_for("pool", pool_size),
        )
        deployment = InfiniCacheDeployment(config)
        key = f"fig4/{pool_size}"
        # One scripted closed-loop client: per round, advance a second (so
        # warm-ups interleave), re-place the object to re-sample its
        # chunk-to-host spread, then measure the GET.
        plan: list[ClientOp] = []
        for _round in range(requests_per_pool):
            plan.append(ClientOp("SLEEP", delay_s=1.0))
            plan.append(ClientOp("INVALIDATE", key=key, size=OBJECT_SIZE))
            plan.append(ClientOp("PUT", key=key, size=OBJECT_SIZE))
            plan.append(ClientOp("GET", key=key, size=OBJECT_SIZE))
        driver = ClosedLoopDriver(deployment, warm_pool=True)
        report = harness.record(f"pool.{pool_size}", driver.run([plan]))
        for sample in report.hit_samples():
            result.latency_by_hosts.setdefault(sample.hosts_touched, []).append(
                sample.latency_s
            )
    result.fingerprints = harness.fingerprints
    return result


def format_report(result: Figure4Result) -> str:
    """Render the Figure 4 reproduction as a table."""
    return format_table(
        ["hosts touched", "samples", "p50 (ms)", "p90 (ms)", "max (ms)"],
        result.rows(),
        title="Figure 4 — latency vs number of VM hosts touched per request",
    )

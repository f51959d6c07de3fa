"""The resilience report: what a chaos run did to the request path.

Built from two inputs after a replay: the
:class:`~repro.workload.replay.ConcurrentReplayReport` (per-request samples,
degraded-hit accounting, harvested resilience counters) and the list of
:class:`FaultWindow` records the chaos engine stamped while injecting.

Per fault window the report answers the questions an operator would ask of a
real incident: what fraction of in-flight requests the cache still served
(availability), how many were degraded to the backing store, and how long
after the fault cleared the first fully-healthy request completed (recovery
time).  Across the whole run it compares latency percentiles inside and
outside fault windows — the SLO deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.stats import summarize
from repro.workload.replay import ConcurrentReplayReport, RequestSample


@dataclass(frozen=True)
class FaultWindow:
    """One injected fault's active interval on the virtual clock.

    Point faults (reclamation storms) have ``started_at == ended_at``; their
    blast radius is still measurable through the requests in flight at that
    instant and the recovery time after it.
    """

    kind: str
    #: Index of the spec in its :class:`~repro.faults.spec.FaultSchedule`.
    index: int
    started_at: float
    ended_at: float
    details: dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.ended_at - self.started_at

    def covers(self, sample: RequestSample) -> bool:
        """Whether the request was in flight at any instant of the window."""
        return (
            sample.started_at <= self.ended_at
            and sample.finished_at >= self.started_at
        )


@dataclass
class WindowStats:
    """Availability accounting for one fault window."""

    window: FaultWindow
    requests: int = 0
    healthy_hits: int = 0
    degraded_hits: int = 0
    resets: int = 0
    misses: int = 0
    #: Seconds after the window cleared until the first fully-healthy request
    #: (cache hit, neither degraded nor RESET) completed; ``None`` when the
    #: run ended before one did.
    recovery_s: float | None = None

    @property
    def availability(self) -> float:
        """Fraction of in-window requests served from the cache itself."""
        return self.healthy_hits / self.requests if self.requests else 1.0


@dataclass
class ResilienceReport:
    """Fault-window availability, degradation counts, and SLO deltas."""

    windows: list[WindowStats] = field(default_factory=list)
    requests: int = 0
    degraded_hits: int = 0
    resets: int = 0
    #: Harvested deployment counters (retries, hedges, breaker trips, ...).
    counters: dict[str, float] = field(default_factory=dict)
    #: Latency percentiles of requests overlapping any fault window.
    faulted_latency: dict[str, float] = field(default_factory=dict)
    #: Latency percentiles of requests entirely outside fault windows.
    clean_latency: dict[str, float] = field(default_factory=dict)

    def slo_delta(self, percentile: str = "p99") -> float:
        """How much a percentile degraded inside fault windows (seconds).

        Zero when either population is empty — a fault-free run has no
        faulted samples and therefore no delta.
        """
        if not self.faulted_latency or not self.clean_latency:
            return 0.0
        return self.faulted_latency[percentile] - self.clean_latency[percentile]

    def worst_availability(self) -> float:
        """The lowest per-window availability (1.0 with no windows)."""
        return min((stats.availability for stats in self.windows), default=1.0)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form for experiment artifacts and the CLI."""
        return {
            "requests": self.requests,
            "degraded_hits": self.degraded_hits,
            "resets": self.resets,
            "counters": dict(self.counters),
            "faulted_latency": dict(self.faulted_latency),
            "clean_latency": dict(self.clean_latency),
            "windows": [
                {
                    "kind": stats.window.kind,
                    "index": stats.window.index,
                    "started_at": stats.window.started_at,
                    "ended_at": stats.window.ended_at,
                    "requests": stats.requests,
                    "availability": stats.availability,
                    "degraded_hits": stats.degraded_hits,
                    "resets": stats.resets,
                    "recovery_s": stats.recovery_s,
                    "details": dict(stats.window.details),
                }
                for stats in self.windows
            ],
        }

    def format_lines(self) -> list[str]:
        """Human-readable summary lines (the ``repro chaos`` output)."""
        lines = [
            f"requests={self.requests} degraded_hits={self.degraded_hits} "
            f"resets={self.resets}",
        ]
        for name in sorted(self.counters):
            value = self.counters[name]
            if value:
                lines.append(f"  counter {name} = {value:g}")
        for stats in self.windows:
            window = stats.window
            recovery = (
                f"{stats.recovery_s:.3f}s" if stats.recovery_s is not None else "n/a"
            )
            lines.append(
                f"  fault {window.kind}[{window.index}] "
                f"@{window.started_at:.1f}s..{window.ended_at:.1f}s: "
                f"availability={stats.availability:.3f} "
                f"({stats.healthy_hits}/{stats.requests} healthy, "
                f"{stats.degraded_hits} degraded, {stats.resets} resets), "
                f"recovery={recovery}"
            )
        p99 = self.slo_delta("p99")
        p50 = self.slo_delta("p50")
        lines.append(
            f"  SLO delta (faulted - clean): p50 {p50 * 1000:+.1f} ms, "
            f"p99 {p99 * 1000:+.1f} ms"
        )
        return lines


def build_resilience_report(
    replay: ConcurrentReplayReport, windows: list[FaultWindow]
) -> ResilienceReport:
    """Fold a replay's samples and the engine's fault windows into a report."""
    report = ResilienceReport(
        requests=replay.requests,
        degraded_hits=replay.degraded_hits,
        resets=replay.resets,
        counters=dict(replay.resilience),
    )
    faulted: list[float] = []
    clean: list[float] = []
    ordered = sorted(replay.samples, key=lambda s: s.finished_at)
    for window in windows:
        stats = WindowStats(window=window)
        for sample in ordered:
            if window.covers(sample):
                stats.requests += 1
                if sample.degraded:
                    stats.degraded_hits += 1
                elif sample.hit:
                    stats.healthy_hits += 1
                elif sample.reset:
                    stats.resets += 1
                else:
                    stats.misses += 1
        for sample in ordered:
            if sample.started_at < window.ended_at:
                continue
            if sample.hit and not sample.degraded and not sample.reset:
                stats.recovery_s = sample.finished_at - window.ended_at
                break
        report.windows.append(stats)
    for sample in replay.samples:
        if any(window.covers(sample) for window in windows):
            faulted.append(sample.latency_s)
        else:
            clean.append(sample.latency_s)
    if faulted:
        report.faulted_latency = summarize(faulted)
    if clean:
        report.clean_latency = summarize(clean)
    return report

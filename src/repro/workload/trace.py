"""Trace records and trace containers.

A trace is an ordered sequence of :class:`TraceRecord` — (timestamp, op,
key, size) — the same shape as the parsed IBM Docker-registry trace the
paper replays.  Traces can be filtered (e.g. "objects larger than 10 MB",
the paper's *large object only* setting) and summarised (working-set size,
request rate) for Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.exceptions import WorkloadError
from repro.utils.units import HOUR, MB


@dataclass(frozen=True)
class TraceRecord:
    """One request in a workload trace."""

    timestamp: float
    operation: str
    key: str
    size: int

    def __post_init__(self):
        if self.timestamp < 0:
            raise WorkloadError(f"timestamp must be non-negative, got {self.timestamp}")
        if self.operation not in ("GET", "PUT"):
            raise WorkloadError(f"operation must be GET or PUT, got {self.operation!r}")
        if not self.key:
            raise WorkloadError("record key must be non-empty")
        if self.size <= 0:
            raise WorkloadError(f"record size must be positive, got {self.size}")


@dataclass
class Trace:
    """An ordered sequence of trace records with convenience analytics."""

    records: list[TraceRecord] = field(default_factory=list)
    name: str = "trace"

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def append(self, record: TraceRecord) -> None:
        """Append one record (timestamps must be non-decreasing)."""
        if self.records and record.timestamp < self.records[-1].timestamp:
            raise WorkloadError(
                "trace records must be appended in timestamp order "
                f"({record.timestamp} < {self.records[-1].timestamp})"
            )
        self.records.append(record)

    # ------------------------------------------------------------------ filtering
    def filter(self, predicate: Callable[[TraceRecord], bool], name: str | None = None) -> "Trace":
        """A new trace containing only records matching the predicate."""
        return Trace(
            records=[record for record in self.records if predicate(record)],
            name=name or f"{self.name}-filtered",
        )

    def large_objects_only(self, threshold_bytes: int = 10 * MB) -> "Trace":
        """The paper's *large object only* setting: objects above 10 MB."""
        return self.filter(lambda r: r.size > threshold_bytes, name=f"{self.name}-large")

    # ------------------------------------------------------------------ analytics
    def duration_s(self) -> float:
        """Time span covered by the trace."""
        if not self.records:
            return 0.0
        return self.records[-1].timestamp - self.records[0].timestamp

    def unique_objects(self) -> dict[str, int]:
        """Mapping of key to (last seen) object size."""
        sizes: dict[str, int] = {}
        for record in self.records:
            sizes[record.key] = record.size
        return sizes

    def working_set_bytes(self) -> int:
        """Working-set size: total bytes across unique objects (Table 1's WSS)."""
        return sum(self.unique_objects().values())

    def request_count(self) -> int:
        """Total number of requests."""
        return len(self.records)

    def gets_per_hour(self) -> float:
        """Average GET throughput (Table 1's Thpt column)."""
        duration = self.duration_s()
        gets = sum(1 for record in self.records if record.operation == "GET")
        if duration <= 0:
            return float(gets)
        return gets / (duration / HOUR)

    def object_sizes(self) -> list[int]:
        """Sizes of unique objects (Figure 1(a)/(b) inputs)."""
        return list(self.unique_objects().values())

    def access_counts(self, min_size_bytes: int = 0) -> list[int]:
        """Per-object access counts, optionally only for objects above a size."""
        counts: dict[str, int] = {}
        sizes = self.unique_objects()
        for record in self.records:
            if sizes[record.key] >= min_size_bytes:
                counts[record.key] = counts.get(record.key, 0) + 1
        return list(counts.values())

    def reuse_intervals_s(self, min_size_bytes: int = 0) -> list[float]:
        """Time between successive accesses to the same object (Figure 1(d))."""
        last_seen: dict[str, float] = {}
        sizes = self.unique_objects()
        intervals: list[float] = []
        for record in self.records:
            if sizes[record.key] < min_size_bytes:
                continue
            previous = last_seen.get(record.key)
            if previous is not None:
                intervals.append(record.timestamp - previous)
            last_seen[record.key] = record.timestamp
        return intervals

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord], name: str = "trace") -> "Trace":
        """Build a trace from an iterable of records (must be time-ordered)."""
        trace = cls(name=name)
        for record in records:
            trace.append(record)
        return trace

"""Trace records and trace containers.

A trace is an ordered sequence of :class:`TraceRecord` — (timestamp, op,
key, size) — the same shape as the parsed IBM Docker-registry trace the
paper replays.  Traces can be filtered (e.g. "objects larger than 10 MB",
the paper's *large object only* setting) and summarised (working-set size,
request rate) for Table 1.
"""

from __future__ import annotations

import math
from array import array
from numbers import Integral
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.exceptions import WorkloadError
from repro.utils.columns import TEXT, ColumnStore
from repro.utils.units import HOUR, MB

#: The operations a trace record may carry, in their stored order.
OPERATIONS = ("GET", "PUT")


def _check_record(timestamp: float, operation: str, key: str, size: int) -> None:
    """Reject a record the replay could not schedule or serve.

    ``math.isfinite`` first: a NaN passes every ``<`` and ``<=`` test, and a
    NaN or infinite timestamp would fail mid-run in the event queue.  A
    size is a positive whole number of bytes (a NaN or infinite one is not).
    """
    if not (math.isfinite(timestamp) and timestamp >= 0):
        raise WorkloadError(f"timestamp must be finite and non-negative, got {timestamp}")
    if operation not in OPERATIONS:
        raise WorkloadError(f"operation must be GET or PUT, got {operation!r}")
    if not key:
        raise WorkloadError("record key must be non-empty")
    if not (isinstance(size, Integral) and size > 0):
        raise WorkloadError(f"record size must be a positive integer, got {size!r}")


class _TraceRow(NamedTuple):
    timestamp: float
    operation: str
    key: str
    size: int


class TraceRecord(_TraceRow):
    """One request in a workload trace, checked when it is declared."""

    __slots__ = ()

    def __new__(cls, timestamp: float, operation: str, key: str, size: int) -> "TraceRecord":
        _check_record(timestamp, operation, key, size)
        return super().__new__(cls, timestamp, operation, key, size)


class TraceRecords(ColumnStore[TraceRecord]):
    """A trace's records, in timestamp order, one column per field:
    ``array('d')`` timestamps, the operation as its index in
    :data:`OPERATIONS` in a ``bytearray``, a list of the shared key strings
    and ``array('q')`` sizes — about 25 bytes per record.
    """

    __slots__ = TraceRecord._fields
    ROW = TraceRecord
    KINDS = ("d", OPERATIONS, TEXT, "q")
    timestamp: array[float]
    operation: bytearray
    key: list[str]
    size: array[int]

    def append(self, timestamp: float, operation: str, key: str, size: int) -> None:
        """Append one record, checked like a :class:`TraceRecord` and no
        earlier than the last one."""
        _check_record(timestamp, operation, key, size)
        if self.timestamp and timestamp < self.timestamp[-1]:
            raise WorkloadError(
                "trace records must be appended in timestamp order "
                f"({timestamp} < {self.timestamp[-1]})"
            )
        self.timestamp.append(timestamp)
        self.operation.append(operation == "PUT")
        self.key.append(key)
        self.size.append(size)


class Trace:
    """An ordered sequence of trace records with convenience analytics."""

    __slots__ = ("records", "name")

    def __init__(self, records: Iterable[TraceRecord] = (), name: str = "trace") -> None:
        """A trace named ``name`` holding ``records`` (time-ordered)."""
        self.records = TraceRecords()
        self.name = name
        for record in records:
            self.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def append(self, record: TraceRecord) -> None:
        """Append one record (timestamps must be non-decreasing)."""
        self.records.append(*record)

    # ------------------------------------------------------------------ filtering
    def filter(self, predicate: Callable[[TraceRecord], bool], name: str | None = None) -> "Trace":
        """A new trace containing only records matching the predicate."""
        return Trace(
            (record for record in self.records if predicate(record)),
            name=name or f"{self.name}-filtered",
        )

    def large_objects_only(self, threshold_bytes: int = 10 * MB) -> "Trace":
        """The paper's *large object only* setting: objects above 10 MB."""
        return self.filter(lambda r: r.size > threshold_bytes, name=f"{self.name}-large")

    # ------------------------------------------------------------------ analytics
    def duration_s(self) -> float:
        """Time span covered by the trace."""
        timestamps = self.records.timestamp
        if not timestamps:
            return 0.0
        return timestamps[-1] - timestamps[0]

    def unique_objects(self) -> dict[str, int]:
        """Mapping of key to (last seen) object size."""
        return dict(zip(self.records.key, self.records.size))

    def working_set_bytes(self) -> int:
        """Working-set size: total bytes across unique objects (Table 1's WSS)."""
        return sum(self.unique_objects().values())

    def request_count(self) -> int:
        """Total number of requests."""
        return len(self.records)

    def gets_per_hour(self) -> float:
        """Average GET throughput (Table 1's Thpt column)."""
        duration = self.duration_s()
        gets = self.records.operation.count(OPERATIONS.index("GET"))
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
        for key in self.records.key:
            if sizes[key] >= min_size_bytes:
                counts[key] = counts.get(key, 0) + 1
        return list(counts.values())

    def reuse_intervals_s(self, min_size_bytes: int = 0) -> list[float]:
        """Time between successive accesses to the same object (Figure 1(d))."""
        last_seen: dict[str, float] = {}
        sizes = self.unique_objects()
        intervals: list[float] = []
        for timestamp, key in zip(self.records.timestamp, self.records.key):
            if sizes[key] < min_size_bytes:
                continue
            previous = last_seen.get(key)
            if previous is not None:
                intervals.append(timestamp - previous)
            last_seen[key] = timestamp
        return intervals

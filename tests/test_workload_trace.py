"""Tests for trace records, containers, and analytics."""

import pytest

from repro.exceptions import WorkloadError
from repro.utils.units import HOUR, MB
from repro.workload.trace import Trace, TraceRecord


def record(timestamp: float, key: str = "k", size: int = MB, op: str = "GET") -> TraceRecord:
    return TraceRecord(timestamp=timestamp, operation=op, key=key, size=size)


class TestTraceRecord:
    def test_valid_record(self):
        rec = record(1.0)
        assert rec.operation == "GET"

    def test_invalid_fields(self):
        with pytest.raises(WorkloadError):
            TraceRecord(timestamp=-1, operation="GET", key="k", size=1)
        with pytest.raises(WorkloadError):
            TraceRecord(timestamp=0, operation="DELETE", key="k", size=1)
        with pytest.raises(WorkloadError):
            TraceRecord(timestamp=0, operation="GET", key="", size=1)
        with pytest.raises(WorkloadError):
            TraceRecord(timestamp=0, operation="GET", key="k", size=0)


class TestTraceConstruction:
    def test_append_enforces_time_order(self):
        trace = Trace()
        trace.append(record(1.0))
        with pytest.raises(WorkloadError):
            trace.append(record(0.5))

    def test_from_records(self):
        trace = Trace.from_records([record(0.0), record(1.0)], name="t")
        assert len(trace) == 2
        assert trace.name == "t"

    def test_iteration(self):
        trace = Trace.from_records([record(0.0, "a"), record(1.0, "b")])
        assert [rec.key for rec in trace] == ["a", "b"]


class TestFiltering:
    def test_large_objects_only(self):
        trace = Trace.from_records(
            [record(0.0, "small", 1 * MB), record(1.0, "large", 50 * MB)]
        )
        filtered = trace.large_objects_only()
        assert [rec.key for rec in filtered] == ["large"]

    def test_filter_preserves_original(self):
        trace = Trace.from_records([record(0.0), record(1.0)])
        trace.filter(lambda r: False)
        assert len(trace) == 2


class TestAnalytics:
    def build(self) -> Trace:
        return Trace.from_records(
            [
                record(0.0, "a", 20 * MB),
                record(10.0, "b", 1 * MB),
                record(HOUR, "a", 20 * MB),
                record(HOUR + 10, "a", 20 * MB),
                record(2 * HOUR, "b", 1 * MB),
            ]
        )

    def test_unique_objects_and_wss(self):
        trace = self.build()
        assert trace.unique_objects() == {"a": 20 * MB, "b": 1 * MB}
        assert trace.working_set_bytes() == 21 * MB

    def test_duration_and_rate(self):
        trace = self.build()
        assert trace.duration_s() == 2 * HOUR
        assert trace.gets_per_hour() == pytest.approx(5 / 2)

    def test_access_counts_with_threshold(self):
        trace = self.build()
        assert sorted(trace.access_counts()) == [2, 3]
        assert trace.access_counts(min_size_bytes=10 * MB) == [3]

    def test_reuse_intervals(self):
        trace = self.build()
        intervals = trace.reuse_intervals_s(min_size_bytes=10 * MB)
        assert intervals == [HOUR, 10.0]

    def test_empty_trace_analytics(self):
        trace = Trace()
        assert trace.duration_s() == 0.0
        assert trace.working_set_bytes() == 0
        assert trace.gets_per_hour() == 0.0

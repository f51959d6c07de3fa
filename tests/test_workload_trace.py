"""Tests for trace records, containers, and analytics."""

import math

import pytest

from repro.exceptions import WorkloadError
from repro.utils.units import HOUR, MB
from repro.workload.trace import Trace, TraceRecord, TraceRecords


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


class TestNonFiniteInput:
    """A NaN passes every ``<`` and ``<=`` check, and the replay would only
    fail mid-run in the event queue: non-finite input fails at declaration."""

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_record_rejects_a_non_finite_timestamp(self, timestamp):
        with pytest.raises(WorkloadError):
            TraceRecord(timestamp=timestamp, operation="GET", key="k", size=1)

    @pytest.mark.parametrize("size", [math.nan, math.inf])
    def test_record_rejects_a_non_finite_size(self, size):
        with pytest.raises(WorkloadError):
            TraceRecord(timestamp=0.0, operation="GET", key="k", size=size)

    def test_a_nan_cannot_let_an_earlier_record_in(self):
        """``[1.0, nan, 0.5]``: the NaN and the 0.5 are both refused."""
        trace = Trace([record(1.0)])
        with pytest.raises(WorkloadError):
            trace.append(record(math.nan))
        with pytest.raises(WorkloadError):
            trace.append(record(0.5))
        assert [rec.timestamp for rec in trace] == [1.0]

    @pytest.mark.parametrize("fields", [
        (math.nan, "GET", "k", 1),
        (math.inf, "GET", "k", 1),
        (0.5, "GET", "k", 1),
        (2.0, "GET", "k", math.nan),
        (2.0, "GET", "k", 1.5),
        (2.0, "DELETE", "k", 1),
        (2.0, "GET", "", 1),
    ])
    def test_the_column_append_checks_every_field(self, fields):
        """The registry generator appends fields straight into the columns."""
        records = TraceRecords()
        records.append(1.0, "GET", "k", 1)
        with pytest.raises(WorkloadError):
            records.append(*fields)
        assert list(records) == [record(1.0, size=1)]


class TestTraceConstruction:
    def test_append_enforces_time_order(self):
        trace = Trace()
        trace.append(record(1.0))
        with pytest.raises(WorkloadError):
            trace.append(record(0.5))

    def test_from_records(self):
        trace = Trace([record(0.0), record(1.0)], name="t")
        assert len(trace) == 2
        assert trace.name == "t"

    def test_iteration(self):
        trace = Trace([record(0.0, "a"), record(1.0, "b")])
        assert [rec.key for rec in trace] == ["a", "b"]


class TestFiltering:
    def test_large_objects_only(self):
        trace = Trace(
            [record(0.0, "small", 1 * MB), record(1.0, "large", 50 * MB)]
        )
        filtered = trace.large_objects_only()
        assert [rec.key for rec in filtered] == ["large"]

    def test_filter_preserves_original(self):
        trace = Trace([record(0.0), record(1.0)])
        trace.filter(lambda r: False)
        assert len(trace) == 2


class TestAnalytics:
    def build(self) -> Trace:
        return Trace(
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

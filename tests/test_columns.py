"""The column stores against the list of records each one replaced.

A flow trace, a replay's request samples and a trace's records are each a
:class:`~repro.utils.columns.ColumnStore`: one typed column per field,
records built on demand.  Every store must read exactly like the list of
named tuples it replaced, whatever was appended: by index (positive and
negative), by slice (an owned store of its own class), by iteration, under
``==`` and after a pickle round trip (how ``fan_out`` ships it back from a
worker).
"""
from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flows import FlowInterval, FlowTrace
from repro.utils.stats import cdf_points
from repro.workload.replay import RequestSample, RequestSamples
from repro.workload.trace import TraceRecord, TraceRecords

_text = st.text(max_size=6)
_finite = st.floats(-1e12, 1e12, allow_nan=False)
_int64 = st.integers(-(2**63), 2**63 - 1)

_flow_rows = st.lists(st.builds(
    FlowInterval, flow_id=_int64, label=_text, host_id=_text, proxy_id=_text,
    size_bytes=_int64, started_at=_finite, ended_at=_finite,
    completed=st.booleans(), bytes_moved=_finite,
), max_size=12)

_sample_rows = st.lists(st.builds(
    RequestSample, client_id=_text, key=_text, size=_int64, started_at=_finite,
    finished_at=_finite, hit=st.booleans(), reset=st.booleans(),
    recovery=st.booleans(), hosts_touched=st.integers(-(2**31), 2**31 - 1),
    degraded=st.booleans(),
), max_size=12)

#: Trace records must be valid and appended in timestamp order.
_trace_rows = st.lists(
    st.tuples(
        st.floats(0, 1e9, allow_nan=False),
        st.sampled_from(["GET", "PUT"]),
        st.text(min_size=1, max_size=6),
        st.integers(1, 2**63 - 1),
    ),
    max_size=12,
).map(lambda rows: [TraceRecord(*row) for row in sorted(rows, key=lambda row: row[0])])

#: store class -> (how a row is appended, rows to append)
STORES = {
    FlowTrace: (FlowTrace._append, _flow_rows),
    RequestSamples: (RequestSamples.append, _sample_rows),
    TraceRecords: (TraceRecords.append, _trace_rows),
}


def _filled(store_class, rows):
    append = STORES[store_class][0]
    store = store_class()
    for row in rows:
        append(store, *row)
    return store


def _same_rows(store, rows) -> None:
    """``store`` reads like ``rows``, record type and field types included."""
    read = list(store)
    assert read == rows
    for got, want in zip(read, rows):
        assert type(got) is type(want)
        assert [type(value) for value in got] == [type(value) for value in want]


@pytest.mark.parametrize("store_class", STORES, ids=lambda cls: cls.__name__)
class TestStoresReadLikeTheirRecordLists:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_index_slice_iteration_equality_and_pickle(self, store_class, data):
        rows = data.draw(STORES[store_class][1])
        store = _filled(store_class, rows)

        assert len(store) == len(rows) and bool(store) == bool(rows)
        _same_rows(store, rows)
        for index in range(-len(rows), len(rows)):
            assert store[index] == rows[index]
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                store[index]  # noqa: B018

        start = data.draw(st.integers(-14, 14) | st.none())
        stop = data.draw(st.integers(-14, 14) | st.none())
        step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
        window = store[start:stop:step]
        assert type(window) is store_class
        _same_rows(window, rows[start:stop:step])
        if rows:  # a slice is an owned copy: appending to it leaves the store alone
            STORES[store_class][0](window, *rows[-1])
            assert len(store) == len(rows)

        assert store == _filled(store_class, rows)
        assert store != rows  # a store equals stores, not lists
        if rows:
            assert store != _filled(store_class, rows[:-1])

        restored = pickle.loads(pickle.dumps(store))
        assert type(restored) is store_class and restored == store
        _same_rows(restored, rows)

    def test_has_no_instance_dict(self, store_class):
        store = store_class()
        assert not hasattr(store, "__dict__")
        with pytest.raises(AttributeError):
            store.extra = []  # type: ignore[attr-defined]

    def test_stores_of_different_rows_are_unequal(self, store_class):
        others = [cls() for cls in STORES if cls is not store_class]
        assert all(store_class() != other for other in others)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-1e12, 1e12, allow_nan=False) | st.integers(0, 10**6),
                       max_size=40))
def test_cdf_points_equal_the_tuple_list(values):
    """The CDF columns hold exactly the ``(float(v), (i + 1) / n)`` pairs the
    list of tuples held."""
    ordered = np.sort(np.asarray(values, dtype=float))
    expected = [(float(value), (index + 1) / len(ordered)) for index, value in enumerate(ordered)]
    points = cdf_points(values)
    assert list(points) == expected
    assert list(pickle.loads(pickle.dumps(points))) == expected

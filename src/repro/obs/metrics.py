"""Metric recording primitives shared by the cache, platform, and experiments.

Three small primitives cover everything the paper's figures need:

* :class:`Counter` — monotonically increasing event counts (invocations,
  cache hits, RESETs).
* :class:`Gauge` — a value that moves up and down (bytes cached, pool
  memory in use).
* :class:`TimeSeries` — timestamped samples, used to draw timelines such as
  Figure 13's hourly cost breakdown and Figure 14's fault-tolerance activity.

A :class:`MetricRegistry` groups them under string names so experiments can
introspect whatever the components recorded without threading dozens of
return values around.  Metrics may carry **labels** (Prometheus-style
key/value dimensions): ``registry.counter("hits", {"tenant": "a"})`` and
``registry.counter("hits", {"tenant": "b"})`` are distinct instruments that
share a family name, and :meth:`MetricRegistry.to_prometheus` renders the
whole registry in the text exposition format.

All recording paths reject NaN and infinities: a single poisoned sample
would silently corrupt every aggregate downstream, so it fails loudly at
the point of entry instead.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.utils.stats import summarize


def _check_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def render_labels(labels: Optional[Mapping[str, object]]) -> str:
    """Canonical ``{k="v",...}`` rendering (sorted keys; empty when unlabelled)."""
    if not labels:
        return ""
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return "{" + inner + "}"


@dataclass
class Counter:
    """A monotonically increasing counter."""

    name: str
    value: float = 0.0
    labels: Optional[dict[str, str]] = None

    def increment(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be finite and non-negative) to the counter."""
        amount = float(amount)
        if not 0.0 <= amount < math.inf:
            _check_finite(amount, f"counter {self.name!r} increment")
            raise ValueError(f"counter {self.name!r} cannot be incremented by {amount}")
        self.value += amount

    def reset(self) -> None:
        """Reset the counter to zero (used between experiment phases)."""
        self.value = 0.0


@dataclass
class Gauge:
    """A value that can move in both directions (e.g. bytes currently cached)."""

    name: str
    value: float = 0.0
    labels: Optional[dict[str, str]] = None

    def set(self, value: float) -> None:
        """Replace the gauge value (must be finite)."""
        self.value = _check_finite(value, f"gauge {self.name!r} value")

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (may be negative, must be finite)."""
        self.value += _check_finite(delta, f"gauge {self.name!r} delta")


@dataclass
class TimeSeries:
    """Timestamped samples, kept in insertion order.

    The simulation appends samples with non-decreasing timestamps, which lets
    ``window`` and ``bucket`` use binary search.
    """

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    labels: Optional[dict[str, str]] = None

    def record(self, time: float, value: float) -> None:
        """Append one sample at virtual ``time`` (both must be finite)."""
        time = _check_finite(time, f"time series {self.name!r} timestamp")
        value = _check_finite(value, f"time series {self.name!r} value")
        if self.times and time < self.times[-1] - 1e-9:
            raise ValueError(
                f"time series {self.name!r} received out-of-order sample at {time} "
                f"(last was {self.times[-1]})"
            )
        self.times.append(float(time))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def window(self, start: float, end: float) -> list[tuple[float, float]]:
        """Return samples with ``start <= time < end``."""
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        return list(zip(self.times[lo:hi], self.values[lo:hi]))

    def sum_in_window(self, start: float, end: float) -> float:
        """Sum the sample values with ``start <= time < end``."""
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        return float(sum(self.values[lo:hi]))

    def count_in_window(self, start: float, end: float) -> int:
        """Count samples with ``start <= time < end``."""
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        return hi - lo

    def bucket(self, bucket_seconds: float, end_time: float | None = None,
               aggregate: str = "sum") -> list[float]:
        """Aggregate samples into fixed-width time buckets.

        Args:
            bucket_seconds: width of each bucket in virtual seconds.
            end_time: horizon; defaults to the last sample's timestamp.
            aggregate: ``"sum"`` or ``"count"``.

        Returns:
            One aggregated value per bucket, covering ``[0, end_time)``.
        """
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        if aggregate not in ("sum", "count"):
            raise ValueError(f"unknown aggregate {aggregate!r}")
        if end_time is None:
            end_time = self.times[-1] if self.times else 0.0
        n_buckets = int(end_time // bucket_seconds) + (1 if end_time % bucket_seconds else 0)
        n_buckets = max(n_buckets, 0)
        results = []
        for i in range(n_buckets):
            start = i * bucket_seconds
            stop = start + bucket_seconds
            if aggregate == "sum":
                results.append(self.sum_in_window(start, stop))
            elif aggregate == "count":
                results.append(float(self.count_in_window(start, stop)))
            else:
                raise ValueError(f"unknown aggregate {aggregate!r}")
        return results

    def summary(self) -> dict[str, float]:
        """Summarise the sample values (count/mean/percentiles)."""
        return summarize(self.values)


class MetricRegistry:
    """A named collection of counters, gauges, and time series.

    Instruments are keyed by name plus an optional label set; an unlabelled
    instrument keeps its bare name as the key, so pre-label callers (and the
    snapshots they assert on) are unaffected.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._series: dict[str, TimeSeries] = {}

    @staticmethod
    def _key(name: str, labels: Optional[Mapping[str, object]]) -> str:
        return name + render_labels(labels)

    @staticmethod
    def _label_dict(labels: Optional[Mapping[str, object]]) -> Optional[dict[str, str]]:
        if not labels:
            return None
        return {str(key): str(value) for key, value in labels.items()}

    def counter(self, name: str, labels: Optional[Mapping[str, object]] = None) -> Counter:
        """Get or create the counter with this name (and label set)."""
        key = self._key(name, labels) if labels else name
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, labels=self._label_dict(labels))
        return instrument

    def gauge(self, name: str, labels: Optional[Mapping[str, object]] = None) -> Gauge:
        """Get or create the gauge with this name (and label set)."""
        key = self._key(name, labels) if labels else name
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, labels=self._label_dict(labels))
        return instrument

    def series(self, name: str, labels: Optional[Mapping[str, object]] = None) -> TimeSeries:
        """Get or create the time series with this name (and label set)."""
        key = self._key(name, labels) if labels else name
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = TimeSeries(name, labels=self._label_dict(labels))
        return instrument

    def counters(self) -> dict[str, float]:
        """Snapshot of all counter values."""
        return {name: counter.value for name, counter in sorted(self._counters.items())}

    def gauges(self) -> dict[str, float]:
        """Snapshot of all gauge values."""
        return {name: gauge.value for name, gauge in sorted(self._gauges.items())}

    def series_names(self) -> list[str]:
        """Names of all registered time series."""
        return sorted(self._series)

    def has_series(self, name: str) -> bool:
        """Whether a time series with this name has been created."""
        return name in self._series

    def snapshot(self) -> dict[str, dict]:
        """A JSON-friendly snapshot of everything recorded so far.

        Labelled instruments appear under their rendered key, e.g.
        ``hits{tenant="a"}``, alongside the unlabelled ones.
        """
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "series": {name: len(series) for name, series in sorted(self._series.items())},
        }

    # ------------------------------------------------------------------ exposition
    @staticmethod
    def _prom_name(name: str) -> str:
        """A Prometheus-legal metric name (dots and dashes become underscores)."""
        sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
        if not sanitized or sanitized[0].isdigit():
            sanitized = "_" + sanitized
        return sanitized

    def to_prometheus(self) -> str:
        """Render every instrument in the Prometheus text exposition format.

        Counters and gauges export their value directly; each time series
        exports ``<name>_count``/``<name>_sum``/``<name>_last`` gauges, which
        is what a scrape of a run-in-progress would meaningfully show.
        """
        lines: list[str] = []
        typed: set[str] = set()

        def emit(kind: str, name: str, labels: Optional[Mapping[str, object]],
                 value: float) -> None:
            prom = self._prom_name(name)
            if prom not in typed:
                typed.add(prom)
                lines.append(f"# TYPE {prom} {kind}")
            lines.append(f"{prom}{render_labels(labels)} {value!r}")

        for counter in sorted(self._counters.values(), key=lambda c: self._key(c.name, c.labels)):
            emit("counter", counter.name, counter.labels, counter.value)
        for gauge in sorted(self._gauges.values(), key=lambda g: self._key(g.name, g.labels)):
            emit("gauge", gauge.name, gauge.labels, gauge.value)
        for series in sorted(self._series.values(), key=lambda s: self._key(s.name, s.labels)):
            emit("gauge", series.name + "_count", series.labels, float(len(series)))
            emit("gauge", series.name + "_sum", series.labels, float(sum(series.values)))
            if series.values:
                emit("gauge", series.name + "_last", series.labels, series.values[-1])
        return "\n".join(lines) + ("\n" if lines else "")

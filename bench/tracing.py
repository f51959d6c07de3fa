"""Host-clock spans recorded from outside the program.

Everything the benchmark times goes through one :class:`Spans` recorder:
phase spans (``setup.build``, ``run.drive``, ...) are always on and give
``setup_s``/``wall_s``; a traced rep additionally calls :func:`install`,
which wraps a fixed list of synchronous public entry points of ``repro``
so each call becomes a span under whatever span was open when it ran.
The workloads are single-threaded, so the open span *is* the caller and a
stack gives the parent; a layer's self time is its spans' duration minus
the part their children cover.  Spans stay in memory until the rep ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Spans:
    """In-memory span list: ``[name, start, end, parent index, operation id]``."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._stack: list[int] = []
        #: Operation the spans opened from now on belong to (the object
        #: index in ``bytes_rw``, the rep everywhere else).
        self.op: str = "rep"

    def begin(self, name: str) -> int:
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close span ``index``, the innermost open one; returns its
        duration in host seconds."""
        now = time.perf_counter()
        self._stack.pop()
        self.rows[index][2] = now
        return now - self.rows[index][1]

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def duration(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(row[2] - row[1] for row in self.rows if row[0] == name)

    def _self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        self_s = [end - start for _name, start, end, _parent, _op in self.rows]
        for _name, start, end, parent, _op in self.rows:
            if parent >= 0:
                self_s[parent] -= end - start
        return self_s

    def by_name(self) -> dict[str, dict[str, float]]:
        """``name -> {calls, total_s, self_s}``; self times of a whole tree
        sum to the duration of its roots."""
        table: dict[str, dict[str, float]] = {}
        for (name, start, end, _parent, _op), self_s in zip(self.rows, self._self_times()):
            entry = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
        return table

    def self_seconds(self, prefix: str, within: str) -> float:
        """Self time of the spans named ``prefix*`` that started while the
        (single) span called ``within`` was open."""
        window = next(row for row in self.rows if row[0] == within)
        return sum(
            self_s
            for row, self_s in zip(self.rows, self._self_times())
            if row[0].startswith(prefix) and window[1] <= row[1] <= window[2]
        )

    def to_json(self) -> list[dict[str, object]]:
        origin = self.rows[0][1] if self.rows else 0.0
        return [
            {"id": index, "name": name, "start_s": start - origin,
             "end_s": end - origin, "parent": parent, "op": op}
            for index, (name, start, end, parent, op) in enumerate(self.rows)
        ]


def _wrapped(spans: Spans, name: str, function):
    begin, end = spans.begin, spans.end

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            end(index)

    return wrapper


def install(spans: Spans, targets: list[tuple[type, str, str]]):
    """Wrap ``cls.method`` for every ``(cls, method, span name)``.

    Returns the function that restores the classes exactly as they were
    (an attribute a subclass only inherited is deleted again, not copied).
    """
    undo = []
    for cls, method, name in targets:
        owned = method in cls.__dict__
        undo.append((cls, method, owned, cls.__dict__.get(method)))
        setattr(cls, method, _wrapped(spans, name, getattr(cls, method)))

    def restore() -> None:
        for cls, method, owned, original in reversed(undo):
            if owned:
                setattr(cls, method, original)
            else:
                delattr(cls, method)

    return restore

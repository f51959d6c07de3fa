"""Append-only row stores kept as one typed column per field.

A replay records one row per retired transfer
(:class:`~repro.network.flows.FlowTrace`), per request
(:class:`~repro.workload.replay.RequestSamples`) and per trace record
(:class:`~repro.workload.trace.TraceRecords`), and Figure 1 one row per CDF
point (:class:`~repro.utils.stats.CdfSeries`).  A named tuple or a
dataclass per row costs 150 to 260 bytes; a column per field costs what the
field needs: 8 bytes in an ``array('q')`` or ``array('d')``, one byte for a
flag or a small enumeration, one pointer for a string the row shares with
whatever produced it.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from typing import Any, Callable, ClassVar, Generic, Optional, TypeVar, Union, overload

Row = TypeVar("Row")
Store = TypeVar("Store", bound="ColumnStore[Any]")

#: Column kind of a flag: a ``bytearray`` of 0/1, read back as ``bool``.
FLAG = "?"
#: Column kind of a string field: a ``list`` of the row's own ``str`` objects.
TEXT = "s"

#: One column kind: an ``array`` typecode, :data:`FLAG`, :data:`TEXT`, or a
#: tuple of values stored as their index in a ``bytearray``.
Kind = Union[str, tuple[Any, ...]]


def _empty_column(kind: Kind) -> Any:
    if kind == FLAG or isinstance(kind, tuple):
        return bytearray()
    if kind == TEXT:
        return []
    return array(kind)


def _decoder(kind: Kind) -> Optional[Callable[[int], Any]]:
    if kind == FLAG:
        return bool
    if isinstance(kind, tuple):
        return kind.__getitem__
    return None


class ColumnStore(Sequence[Row], Generic[Row]):
    """Rows of the named tuple ``ROW``, in stored order, one column per field.

    A subclass sets ``ROW``, declares ``__slots__ = ROW._fields`` (each
    attribute holds its field's column) and gives each field's column kind
    in ``KINDS``.  A store filled row by row writes its own ``append``: one
    explicit column append per field, which costs no more than the tuple
    it replaces (a loop over the columns costs several times that; a store
    built whole passes its columns to the constructor).  Readers that
    scan every row read the columns; indexing and iteration build ``ROW``
    records on demand.  A slice is an owned copy of the same class, a store
    equals only a store of its own class with equal columns, and a store
    pickles as its columns.
    """

    __slots__ = ()
    ROW: ClassVar[Any]
    KINDS: ClassVar[tuple[Kind, ...]]
    _DECODERS: ClassVar[tuple[Optional[Callable[[int], Any]], ...]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._DECODERS = tuple(_decoder(kind) for kind in cls.KINDS)

    def __init__(self, *columns: Any) -> None:
        for name, column in zip(self.ROW._fields, columns or map(_empty_column, self.KINDS)):
            setattr(self, name, column)

    def _columns(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.ROW._fields)

    def __len__(self) -> int:
        return len(getattr(self, self.ROW._fields[0]))

    @overload
    def __getitem__(self, index: int) -> Row: ...

    @overload
    def __getitem__(self: Store, index: slice) -> Store: ...

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return type(self)(*(column[index] for column in self._columns()))
        return self.ROW._make([
            column[index] if decode is None else decode(column[index])
            for column, decode in zip(self._columns(), self._DECODERS)
        ])

    def __iter__(self) -> Iterator[Row]:
        return map(self.ROW._make, zip(*(
            column if decode is None else map(decode, column)
            for column, decode in zip(self._columns(), self._DECODERS)
        )))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._columns() == other._columns()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self) -> tuple[Any, ...]:
        return type(self), self._columns()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"

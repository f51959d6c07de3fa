"""CLOCK-based LRU approximation.

The paper uses CLOCK twice (its footnote 6 points this out explicitly):

* at each **proxy**, to pick eviction victims at *object* granularity when the
  Lambda pool runs out of memory;
* inside each **Lambda runtime**, to order chunk keys from MRU to LRU for the
  backup protocol's metadata transfer.

CLOCK approximates LRU with O(1) accesses: entries sit on a circular list
with a reference bit; a hit sets the bit; the eviction hand sweeps the
circle, clearing bits and evicting the first entry found with a cleared bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Iterator, Optional, TypeVar

from repro.exceptions import CacheError

V = TypeVar("V")


@dataclass(slots=True)
class _ClockEntry(Generic[V]):
    key: str
    value: V
    referenced: bool = True


class ClockLRU(Generic[V]):
    """A CLOCK replacement structure mapping string keys to values."""

    def __init__(self):
        self._entries: dict[str, _ClockEntry[V]] = {}
        self._ring: list[str] = []
        #: Removed keys whose stale ring slot the hand has not compacted yet.
        #: Re-inserting such a key must revive its slot rather than append a
        #: duplicate.  Every other ring key is live, so only removals cost an
        #: entry here, not every stored key; a dict, because an empty one is
        #: 64 bytes and an empty set 216, on every node of a fleet.
        self._stale: dict[str, None] = {}
        self._hand = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def insert(self, key: str, value: V) -> None:
        """Insert a new entry (or overwrite an existing one, marking it referenced)."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.value = value
            entry.referenced = True
            return
        self._entries[key] = _ClockEntry(key=key, value=value)
        if key in self._stale:
            del self._stale[key]
        else:
            self._ring.append(key)

    def touch(self, key: str) -> None:
        """Record an access: set the entry's reference bit.

        Raises:
            CacheError: if the key is not present (callers must check first;
                silently ignoring a touch would hide accounting bugs).
        """
        entry = self._entries.get(key)
        if entry is None:
            raise CacheError(f"cannot touch unknown key {key!r}")
        entry.referenced = True

    def get(self, key: str) -> Optional[V]:
        """Return the value for a key (touching it), or None when absent."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        entry.referenced = True
        return entry.value

    def remove(self, key: str) -> Optional[V]:
        """Remove a key if present, returning its value (ring is lazily compacted)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        # The ring keeps the stale key; sweeps skip keys no longer in the map.
        self._stale[key] = None
        return entry.value

    def evict(self) -> Optional[tuple[str, V]]:
        """Pick and remove the next victim per the CLOCK policy.

        Returns:
            ``(key, value)`` of the evicted entry, or ``None`` when empty.
        """
        if not self._entries:
            return None
        # Two full sweeps are always enough: the first clears reference bits.
        max_steps = 2 * len(self._ring) + 1
        steps = 0
        while steps <= max_steps:
            if not self._ring:
                return None
            if self._hand >= len(self._ring):
                self._hand = 0
            key = self._ring[self._hand]
            entry = self._entries.get(key)
            if entry is None:
                # Stale slot left behind by remove(); compact it.
                self._ring.pop(self._hand)
                del self._stale[key]
                continue
            if entry.referenced:
                entry.referenced = False
                self._hand += 1
                steps += 1
                continue
            self._ring.pop(self._hand)
            del self._entries[key]
            return key, entry.value
        raise CacheError("CLOCK sweep failed to find a victim (internal invariant violated)")

    def keys_mru_to_lru(self) -> list[str]:
        """Keys ordered approximately from most to least recently used.

        Referenced entries come first (most recently touched since the last
        sweep), then unreferenced ones; within each class the ring order is
        preserved.  The Lambda runtime sends backup metadata in this order so
        the hottest chunks are replicated first.
        """
        referenced, unreferenced = [], []
        for key in self._ring:
            entry = self._entries.get(key)
            if entry is None:
                continue
            (referenced if entry.referenced else unreferenced).append(key)
        return referenced + unreferenced

    def items(self) -> Iterator[tuple[str, V]]:
        """Iterate over (key, value) pairs in insertion-ring order."""
        for key in self._ring:
            entry = self._entries.get(key)
            if entry is not None:
                yield key, entry.value

"""Consistent-hash ring used by the client library to pick a proxy.

The paper's client library load-balances requests across a distributed set of
proxies with consistent hashing (the "CH ring" in Figure 3) so that every
client maps a given key to the same proxy and adding or removing a proxy
moves only a small fraction of keys.

The implementation is the standard virtual-node ring over a stable 64-bit
hash (blake2b, so results do not depend on ``PYTHONHASHSEED``), held as two
columns: an ``array('Q')`` of sorted hash points and a tuple of the member
id owning each point.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_right
from typing import Generic, TypeVar

from repro.exceptions import ConfigurationError

T = TypeVar("T")


def stable_hash(value: str) -> int:
    """A process-independent 64-bit hash of a string."""
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


#: Virtual-node hash points per ``(member_id, virtual_nodes)``.  Every client
#: ring hashes the same proxies to the same points, so at fleet scale (one
#: ring per closed-loop client) the cache turns ring construction from
#: millions of blake2b calls into array reuse.  Bounded by an occasional
#: wholesale clear — it is a pure cache, correctness never depends on it.
_POINT_CACHE: dict[tuple[str, int], "array[int]"] = {}
_POINT_CACHE_MAX = 65536

#: Fully-sorted rings per ``(virtual_nodes, member ids)``.  Every closed-loop
#: client builds the same ring over the same proxies; sharing the cached
#: sorted columns is O(1) against an O(n log n) sort per client (the ring is
#: copy-on-write — see :meth:`ConsistentHashRing.clone`).
_RING_CACHE: dict[tuple[int, tuple[str, ...]], "_Columns"] = {}
_RING_CACHE_MAX = 256


#: A ring's sorted hash points and, index for index, the id owning each.
_Columns = tuple["array[int]", tuple[str, ...]]
_EMPTY: _Columns = (array("Q"), ())


def _columns(pairs: list[tuple[int, str]]) -> _Columns:
    """Split ``(point, member id)`` pairs, sorted as tuples, into columns."""
    pairs.sort()
    return array("Q", [point for point, _ in pairs]), tuple([mid for _, mid in pairs])


def _virtual_points(member_id: str, virtual_nodes: int) -> "array[int]":
    key = (member_id, virtual_nodes)
    points = _POINT_CACHE.get(key)
    if points is None:
        if len(_POINT_CACHE) >= _POINT_CACHE_MAX:
            _POINT_CACHE.clear()
        points = array(
            "Q", [stable_hash(f"{member_id}::{replica}") for replica in range(virtual_nodes)]
        )
        _POINT_CACHE[key] = points
    return points


class ConsistentHashRing(Generic[T]):
    """Maps string keys onto a set of member objects via consistent hashing.

    The ring is one pair of columns, sorted as ``(hash point, member id)``
    pairs: an ``array('Q')`` of points (8 bytes each) and a tuple of the
    owning ids (one shared string per member).  The pair is never mutated,
    only replaced, so rings are copy-on-write: :meth:`clone` shares it in
    O(1) and any later membership change on either ring builds itself a
    fresh pair without disturbing the other.  The member table is
    shared the same way, and copied by the first ``add_many`` / ``remove``
    on a ring that shares it.  A fleet of closed-loop clients over the same
    proxy set therefore shares one ring and one member table instead of
    copying thousands of points and hundreds of entries per client — the
    per-client ring copy was the superlinear term at 1024-client scale.
    """

    def __init__(self, virtual_nodes: int = 128):
        if virtual_nodes < 1:
            raise ConfigurationError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.virtual_nodes = virtual_nodes
        self._ring: _Columns = _EMPTY
        self._members: dict[str, T] = {}
        #: Whether another ring may hold this ``_members`` dict (after a
        #: :meth:`clone`): the next mutation copies it first.
        self._members_shared = False

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._members

    def members(self) -> list[T]:
        """All members currently on the ring (ring order not implied)."""
        return [self._members[member_id] for member_id in sorted(self._members)]

    def member_ids(self) -> list[str]:
        """Identifiers of all members currently on the ring, sorted."""
        return sorted(self._members)

    def add(self, member_id: str, member: T) -> None:
        """Add a member under a unique identifier."""
        if member_id in self._members:
            raise ConfigurationError(f"member {member_id!r} is already on the ring")
        self.add_many([(member_id, member)])

    def add_many(self, members: list[tuple[str, T]]) -> None:
        """Add several members with a single ring rebuild.

        Equivalent to calling :meth:`add` per member (the ring is a sorted
        multiset, insertion order is immaterial) but sorts once, which is
        what makes constructing thousands of per-client rings over a large
        proxy fleet affordable.
        """
        batch_ids = set()
        for member_id, _member in members:
            if member_id in self._members or member_id in batch_ids:
                raise ConfigurationError(f"member {member_id!r} is already on the ring")
            batch_ids.add(member_id)
        self._own_members()
        building_fresh = not self._ring[1]
        cache_key = (
            (self.virtual_nodes, tuple(member_id for member_id, _member in members))
            if building_fresh
            else None
        )
        cached = _RING_CACHE.get(cache_key) if cache_key is not None else None
        added_points: list[tuple[int, str]] = []
        for member_id, member in members:
            self._members[member_id] = member
            if cached is None:
                points = _virtual_points(member_id, self.virtual_nodes)
                added_points.extend(zip(points, (member_id,) * len(points)))
        if cached is not None:
            # Copy-on-write: share the cached columns outright.
            self._ring = cached
            return
        self._ring = _columns(list(zip(*self._ring)) + added_points)
        if cache_key is not None:
            if len(_RING_CACHE) >= _RING_CACHE_MAX:
                _RING_CACHE.clear()
            _RING_CACHE[cache_key] = self._ring

    def remove(self, member_id: str) -> None:
        """Remove a member and all of its virtual nodes."""
        if member_id not in self._members:
            raise ConfigurationError(f"member {member_id!r} is not on the ring")
        self._own_members()
        del self._members[member_id]
        self._ring = _columns(
            [(point, mid) for point, mid in zip(*self._ring) if mid != member_id]
        )

    def _own_members(self) -> None:
        """Copy the member table before mutating it, if a clone shares it."""
        if self._members_shared:
            self._members = dict(self._members)
            self._members_shared = False

    def clone(self) -> "ConsistentHashRing[T]":
        """An observably identical ring sharing this ring's sorted points
        and member table.

        O(1): the never-mutated column pair and the member dict are shared.
        Subsequent ``add``/``remove`` on either ring rebuilds that ring's
        own columns and copies its own member table first (copy-on-write), so
        the two rings never influence each other — the property the COW ring
        differential test pins against a deep-copied ring.
        """
        twin: ConsistentHashRing[T] = ConsistentHashRing(self.virtual_nodes)
        twin._ring = self._ring
        twin._members = self._members
        twin._members_shared = self._members_shared = True
        return twin

    def lookup(self, key: str) -> T:
        """Return the member responsible for ``key``.

        Raises:
            ConfigurationError: if the ring is empty.
        """
        return self._members[self.lookup_id(key)]

    def lookup_id(self, key: str) -> str:
        """Return the identifier of the member responsible for ``key``."""
        points, ids = self._ring
        if not ids:
            raise ConfigurationError("cannot look up a key on an empty ring")
        # A key hashing exactly onto a point belongs to the next point.
        index = bisect_right(points, stable_hash(key))
        return ids[index] if index < len(ids) else ids[0]

    def distribution(self, keys: list[str]) -> dict[str, int]:
        """Count how many of the given keys map to each member (for tests)."""
        counts = {member_id: 0 for member_id in self._members}
        for key in keys:
            counts[self.lookup_id(key)] += 1
        return counts

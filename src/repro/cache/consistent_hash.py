"""Consistent-hash ring used by the client library to pick a proxy.

The paper's client library load-balances requests across a distributed set of
proxies with consistent hashing (the "CH ring" in Figure 3) so that every
client maps a given key to the same proxy and adding or removing a proxy
moves only a small fraction of keys.

The implementation is the standard virtual-node ring over a stable 64-bit
hash (blake2b, so results do not depend on ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import bisect
import hashlib
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
#: millions of blake2b calls into tuple reuse.  Bounded by an occasional
#: wholesale clear — it is a pure cache, correctness never depends on it.
_POINT_CACHE: dict[tuple[str, int], tuple[int, ...]] = {}
_POINT_CACHE_MAX = 65536

#: Fully-sorted rings per ``(virtual_nodes, member ids)``.  Every closed-loop
#: client builds the same ring over the same proxies; sharing the cached
#: sorted tuple is O(1) against an O(n log n) sort per client (the ring is
#: copy-on-write — see :meth:`ConsistentHashRing.clone`).
_RING_CACHE: dict[tuple[int, tuple[str, ...]], tuple[tuple[int, str], ...]] = {}
_RING_CACHE_MAX = 256


def _virtual_points(member_id: str, virtual_nodes: int) -> tuple[int, ...]:
    key = (member_id, virtual_nodes)
    points = _POINT_CACHE.get(key)
    if points is None:
        if len(_POINT_CACHE) >= _POINT_CACHE_MAX:
            _POINT_CACHE.clear()
        points = tuple(
            stable_hash(f"{member_id}::{replica}") for replica in range(virtual_nodes)
        )
        _POINT_CACHE[key] = points
    return points


class ConsistentHashRing(Generic[T]):
    """Maps string keys onto a set of member objects via consistent hashing.

    The sorted ring of ``(hash point, member id)`` pairs is held as an
    **immutable tuple**, so rings are copy-on-write: :meth:`clone` shares
    the tuple in O(1) and any later membership change on either ring builds
    itself a fresh tuple without disturbing the other.  The member table is
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
        self._ring: tuple[tuple[int, str], ...] = ()
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
        building_fresh = not self._ring
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
            # Copy-on-write: share the cached tuple outright.
            self._ring = cached
            return
        self._ring = tuple(sorted(self._ring + tuple(added_points)))
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
        self._ring = tuple(
            (point, mid) for point, mid in self._ring if mid != member_id
        )

    def _own_members(self) -> None:
        """Copy the member table before mutating it, if a clone shares it."""
        if self._members_shared:
            self._members = dict(self._members)
            self._members_shared = False

    def clone(self) -> "ConsistentHashRing[T]":
        """An observably identical ring sharing this ring's sorted points
        and member table.

        O(1): the immutable point tuple and the member dict are shared.
        Subsequent ``add``/``remove`` on either ring rebuilds that ring's
        own tuple and copies its own member table first (copy-on-write), so
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
        if not self._ring:
            raise ConfigurationError("cannot look up a key on an empty ring")
        point = stable_hash(key)
        index = bisect.bisect_right(self._ring, (point, chr(0x10FFFF)))
        if index == len(self._ring):
            index = 0
        member_id = self._ring[index][1]
        return self._members[member_id]

    def lookup_id(self, key: str) -> str:
        """Return the identifier of the member responsible for ``key``."""
        if not self._ring:
            raise ConfigurationError("cannot look up a key on an empty ring")
        point = stable_hash(key)
        index = bisect.bisect_right(self._ring, (point, chr(0x10FFFF)))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def distribution(self, keys: list[str]) -> dict[str, int]:
        """Count how many of the given keys map to each member (for tests)."""
        counts = {member_id: 0 for member_id in self._members}
        for key in keys:
            counts[self.lookup_id(key)] += 1
        return counts

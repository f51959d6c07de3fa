"""VM hosts and the greedy bin-packing placement of functions onto them.

The paper observed (citing the "Peeking behind the curtains" study) that AWS
packs Lambda functions onto the smallest possible number of ~3 GB VM hosts
using a greedy heuristic.  That placement policy is what creates the network
contention measured in Figure 4 and motivates the recommendation to use
>= 1.5 GB functions so each one gets a host to itself.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.faas.limits import HOST_MEMORY_BYTES, HOST_NIC_BANDWIDTH


@dataclass
class VMHost:
    """One Lambda-hosting virtual machine."""

    host_id: str
    memory_bytes: int
    nic_bandwidth_bps: float
    resident_functions: set[str] = field(default_factory=set)
    memory_in_use: int = 0

    def can_fit(self, memory_bytes: int) -> bool:
        """Whether a function of this size fits in the remaining memory."""
        return self.memory_in_use + memory_bytes <= self.memory_bytes

    def place(self, function_name: str, memory_bytes: int) -> None:
        """Place a function instance on this host."""
        if not self.can_fit(memory_bytes):
            raise ConfigurationError(
                f"host {self.host_id} cannot fit {memory_bytes} more bytes "
                f"({self.memory_in_use}/{self.memory_bytes} in use)"
            )
        if function_name in self.resident_functions:
            raise ConfigurationError(
                f"function {function_name!r} is already resident on host {self.host_id}"
            )
        self.resident_functions.add(function_name)
        self.memory_in_use += memory_bytes

    def evict(self, function_name: str, memory_bytes: int) -> None:
        """Remove a function instance from this host (reclaim or shutdown)."""
        if function_name not in self.resident_functions:
            raise ConfigurationError(
                f"function {function_name!r} is not resident on host {self.host_id}"
            )
        self.resident_functions.remove(function_name)
        self.memory_in_use -= memory_bytes
        if self.memory_in_use < 0:
            raise ConfigurationError(f"host {self.host_id} memory accounting went negative")

    @property
    def occupancy(self) -> int:
        """Number of functions currently resident on this host."""
        return len(self.resident_functions)


class HostManager:
    """Creates hosts on demand and places functions with a greedy heuristic.

    The greedy rule mirrors what the paper infers about AWS: a new function
    instance goes onto the existing host with the *most* functions already on
    it that still has room (tightest packing), and a new host is provisioned
    only when nothing fits.
    """

    def __init__(self) -> None:
        self.hosts: dict[str, VMHost] = {}
        self._next_host_index = 0
        self._placement: dict[str, tuple[str, int]] = {}
        self._host_index: dict[str, int] = {}
        #: Lazy max-heap of ``(-memory_in_use, -index, host_id)`` for hosts
        #: with free memory.  Entries go stale when a host's occupancy
        #: changes (a fresh entry is pushed alongside) and are skipped on
        #: pop, so placement is O(log hosts) instead of a full fleet scan —
        #: the scan was a superlinear term at thousand-client fleet sizes.
        self._open: list[tuple[int, int, str]] = []
        #: Heap entries for hosts whose leftover memory was too small for a
        #: placement, parked out of the heap until a request small enough to
        #: possibly fit one arrives (tracked via the free-byte high-water
        #: mark).  Without parking, every placement in a
        #: one-function-per-host fleet re-pops and re-pushes the entire
        #: too-full fleet — an O(hosts log hosts) term per cold start that
        #: dominated macro-benchmark seeding.
        self._parked: dict[str, tuple[int, int, str]] = {}
        self._parked_max_free = -1

    def _note_open(self, host: VMHost) -> None:
        if host.memory_in_use < host.memory_bytes:
            heapq.heappush(
                self._open,
                (-host.memory_in_use, -self._host_index[host.host_id], host.host_id),
            )

    def _new_host(self) -> VMHost:
        host = VMHost(
            host_id=f"vm-{self._next_host_index:05d}",
            memory_bytes=HOST_MEMORY_BYTES,
            nic_bandwidth_bps=HOST_NIC_BANDWIDTH,
        )
        self._host_index[host.host_id] = self._next_host_index
        self._next_host_index += 1
        self.hosts[host.host_id] = host
        return host

    def place_function(self, function_name: str, memory_bytes: int) -> VMHost:
        """Place a new function instance and return its host."""
        if function_name in self._placement:
            raise ConfigurationError(f"function {function_name!r} is already placed")
        # Greedy bin-packing: the fullest host that still fits, host-id as
        # the tie break — identical to scanning every host with
        # ``max(key=(memory_in_use, host_id))``, but served from the lazy
        # heap.  Live-but-too-small entries are parked rather than pushed
        # back, and return to the heap only when a request small enough to
        # possibly fit one arrives (stale parked entries — the host's
        # occupancy changed since, which always pushes a fresh entry — are
        # skipped on pop like any other stale entry).
        if 0 <= self._parked_max_free >= memory_bytes:
            for parked in self._parked.values():
                heapq.heappush(self._open, parked)
            self._parked.clear()
            self._parked_max_free = -1
        host: Optional[VMHost] = None
        while self._open:
            entry = heapq.heappop(self._open)
            candidate = self.hosts[entry[2]]
            if candidate.memory_in_use != -entry[0]:
                continue  # stale: occupancy changed since the entry was pushed
            if candidate.can_fit(memory_bytes):
                host = candidate
                break
            self._parked[entry[2]] = entry
            free = candidate.memory_bytes - candidate.memory_in_use
            if free > self._parked_max_free:
                self._parked_max_free = free
        if host is None:
            host = self._new_host()
        host.place(function_name, memory_bytes)
        self._note_open(host)
        self._placement[function_name] = (host.host_id, memory_bytes)
        return host

    def remove_function(self, function_name: str) -> None:
        """Remove a function instance from its host (after reclamation)."""
        placement = self._placement.pop(function_name, None)
        if placement is None:
            return
        host_id, memory_bytes = placement
        host = self.hosts[host_id]
        host.evict(function_name, memory_bytes)
        self._note_open(host)

    def residents_by_host(self) -> dict[str, list[str]]:
        """Instance ids currently placed on each host, deterministically ordered.

        Hosts appear in host-id order and each host's residents in placement-id
        order, so callers that sample from this map (the chaos engine's
        correlated reclamation storms hit whole hosts at a time) never observe
        set/dict hash order.
        """
        by_host: dict[str, list[str]] = {}
        for function_name, (host_id, _memory) in sorted(self._placement.items()):
            by_host.setdefault(host_id, []).append(function_name)
        return dict(sorted(by_host.items()))

    def host_of(self, function_name: str) -> Optional[VMHost]:
        """The host a function instance currently lives on, if any."""
        placement = self._placement.get(function_name)
        if placement is None:
            return None
        return self.hosts[placement[0]]

"""Function instances: the provider-side view of one warm Lambda container.

A *function* (identified by name) can have one or more *instances* at a time:
normally a single warm instance, but concurrent invocations force the
platform to auto-scale by creating peer replicas — the mechanism the backup
protocol (Section 4.2) deliberately exploits.

Each instance owns an opaque in-memory state dictionary.  The cache's Lambda
runtime stores its chunk table there; from the platform's point of view the
state is simply lost when the instance is reclaimed, which is exactly the
failure mode InfiniCache has to survive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.faas.limits import bandwidth_for_memory


class FunctionState(enum.Enum):
    """Lifecycle states of a function instance."""

    #: Warm and idle: cached by the provider, state retained, not running.
    IDLE = "idle"
    #: Currently executing an invocation.
    RUNNING = "running"
    #: Reclaimed by the provider: state lost, instance unusable.
    RECLAIMED = "reclaimed"


# A module-level alias: ``is_alive`` is read several times per chunk request
# and member lookup on the enum class costs ~75 ns on CPython 3.11.
_RECLAIMED = FunctionState.RECLAIMED


@dataclass
class FunctionInstance:
    """One warm (or reclaimed) container of a named function."""

    function_name: str
    instance_id: str
    memory_bytes: int
    created_at: float
    state: FunctionState = FunctionState.IDLE
    last_invoked_at: float = 0.0
    invocation_count: int = 0
    reclaimed_at: float | None = None
    #: Opaque application state (the cache runtime's chunk store lives here).
    runtime_state: dict[str, Any] = field(default_factory=dict)
    host_id: str = ""

    @property
    def bandwidth_bps(self) -> float:
        """Network bandwidth cap of this instance."""
        return bandwidth_for_memory(self.memory_bytes)

    @property
    def is_alive(self) -> bool:
        """Whether the instance still holds its state."""
        return self.state is not _RECLAIMED

    def mark_invoked(self, now: float) -> None:
        """Record an invocation for idle-time tracking."""
        self.last_invoked_at = now
        self.invocation_count += 1

    def idle_seconds(self, now: float) -> float:
        """Seconds since the last invocation (or creation, if never invoked)."""
        reference = self.last_invoked_at if self.invocation_count else self.created_at
        return max(0.0, now - reference)

    def reclaim(self, now: float) -> None:
        """Reclaim the instance: its state is irrevocably lost."""
        self.state = FunctionState.RECLAIMED
        self.reclaimed_at = now
        self.runtime_state = {}

    def __repr__(self) -> str:
        return (
            f"FunctionInstance({self.function_name}/{self.instance_id}, "
            f"state={self.state.value}, invocations={self.invocation_count})"
        )

"""Cache-level chunk and object descriptors.

The erasure package produces chunks carrying real payload bytes; at the scale
of the production-trace replay (a terabyte-class working set) holding real
bytes is neither possible nor useful, so the cache layer works with
:class:`CacheChunk`, which always knows its size and *optionally* carries the
payload.  Functional tests and the examples use real payloads end to end;
the trace replayer uses size-only chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.erasure.codec import Chunk as ErasureChunk
from repro.erasure.codec import StripeMetadata
from repro.erasure.galois import Vector
from repro.exceptions import ConfigurationError


@dataclass(frozen=True, slots=True)
class ObjectDescriptor:
    """Stripe-level metadata the proxy keeps for each cached object."""

    key: str
    object_size: int
    data_shards: int
    parity_shards: int
    chunk_size: int

    def __post_init__(self):
        if self.object_size <= 0:
            raise ConfigurationError(f"object size must be positive, got {self.object_size}")
        if self.data_shards < 1 or self.parity_shards < 0:
            raise ConfigurationError("invalid erasure configuration in object descriptor")
        if self.chunk_size <= 0:
            raise ConfigurationError(f"chunk size must be positive, got {self.chunk_size}")

    @property
    def total_chunks(self) -> int:
        """Number of chunks in the stripe (d + p)."""
        return self.data_shards + self.parity_shards

    @property
    def stored_bytes(self) -> int:
        """Bytes the stripe occupies in the cache (chunk size times chunk count)."""
        return self.chunk_size * self.total_chunks

    def stripe_metadata(self) -> StripeMetadata:
        """The codec-level view of this stripe, for decoding its chunks."""
        return StripeMetadata(
            key=self.key,
            object_size=self.object_size,
            data_shards=self.data_shards,
            parity_shards=self.parity_shards,
            chunk_size=self.chunk_size,
        )


@dataclass(frozen=True, slots=True)
class CacheChunk:
    """One chunk as stored on a Lambda cache node.

    ``payload`` is ``None`` for a size-only chunk.  Otherwise it is the
    erasure chunk's payload as the codec made it and never changes:
    ``bytes``, or a read-only ``memoryview`` slice of the ``bytes`` object
    the client put.  A stored view keeps that whole object alive until the
    chunk is evicted, overwritten or lost.
    """

    key: str
    index: int
    size: int
    payload: Optional[Vector] = field(default=None, repr=False)

    def __post_init__(self):
        if self.size <= 0:
            raise ConfigurationError(f"chunk size must be positive, got {self.size}")
        if self.payload is not None and len(self.payload) != self.size:
            raise ConfigurationError(
                f"chunk payload length {len(self.payload)} does not match size {self.size}"
            )

    @property
    def chunk_id(self) -> str:
        """Globally unique identifier (``key#index``), as in the paper."""
        return f"{self.key}#{self.index}"

    @classmethod
    def from_erasure_chunk(cls, chunk: ErasureChunk) -> "CacheChunk":
        """Wrap a real erasure-coded chunk for storage in the cache."""
        return cls(key=chunk.key, index=chunk.index, size=chunk.size, payload=chunk.payload)

    @classmethod
    def sized(cls, key: str, index: int, size: int) -> "CacheChunk":
        """Create a size-only chunk (payload omitted) for large-scale replays."""
        return cls(key=key, index=index, size=size, payload=None)


def descriptor_for(
    key: str, object_size: int, data_shards: int, parity_shards: int
) -> ObjectDescriptor:
    """Build an :class:`ObjectDescriptor` with the standard ceiling-divided chunk size."""
    chunk_size = -(-object_size // data_shards)
    return ObjectDescriptor(
        key=key,
        object_size=object_size,
        data_shards=data_shards,
        parity_shards=parity_shards,
        chunk_size=chunk_size,
    )

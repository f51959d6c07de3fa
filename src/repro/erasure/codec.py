"""Object-level erasure codec: bytes <-> named, placeable chunks.

The client library hands this codec a whole object (arbitrary length bytes)
and gets back ``d + p`` chunks, each carrying the identifier scheme from the
paper (``IDobj_chunk`` = object key + chunk sequence number).  The codec
handles padding (objects rarely divide evenly into ``d`` shards), records the
original length in the stripe metadata, and reconstructs the object from any
``d`` chunks — which is exactly what the first-d optimisation needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.erasure.galois import Vector
from repro.erasure.reed_solomon import ReedSolomon
from repro.exceptions import DecodingError, EncodingError


@dataclass(frozen=True)
class StripeMetadata:
    """Everything needed to reassemble an object from its chunks."""

    key: str
    object_size: int
    data_shards: int
    parity_shards: int
    chunk_size: int

    @property
    def total_shards(self) -> int:
        """Total number of chunks in the stripe."""
        return self.data_shards + self.parity_shards


@dataclass(frozen=True)
class Chunk:
    """One erasure-coded chunk of an object.

    ``chunk_id`` follows the paper's naming: the object key concatenated with
    the chunk's sequence number, so chunks of the same object are
    distinguishable anywhere in the system.

    ``payload`` never changes: it is ``bytes``, or a read-only ``memoryview``
    slice of the ``bytes`` object that was encoded (a full data chunk, see
    :meth:`ErasureCodec.encode`).  Such a view keeps that whole object alive
    for as long as the chunk is held.
    """

    key: str
    index: int
    payload: Vector
    metadata: StripeMetadata

    @property
    def chunk_id(self) -> str:
        """Globally unique identifier for this chunk (``key#index``)."""
        return f"{self.key}#{self.index}"

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.payload)


class ErasureCodec:
    """Encode objects into chunks and decode chunks back into objects."""

    def __init__(self, data_shards: int, parity_shards: int):
        # Codecs with the same geometry share one ReedSolomon instance —
        # one encoding matrix and one decode-matrix LRU across every client,
        # proxy, and repair path (there is one codec per client at fleet
        # scale, so per-instance matrices would be pure duplication).
        self.rs = ReedSolomon.shared(data_shards, parity_shards)
        self.data_shards = data_shards
        self.parity_shards = parity_shards

    def __repr__(self) -> str:
        return f"ErasureCodec(RS({self.data_shards}+{self.parity_shards}))"

    @property
    def total_shards(self) -> int:
        """Number of chunks produced per object."""
        return self.rs.total_shards

    def chunk_size_for(self, object_size: int) -> int:
        """Size in bytes of each chunk for an object of ``object_size`` bytes."""
        if object_size <= 0:
            raise EncodingError(f"object size must be positive, got {object_size}")
        return -(-object_size // self.data_shards)  # ceiling division

    # --- encode -------------------------------------------------------------------
    def encode(self, key: str, payload: Union[bytes, bytearray, memoryview]) -> list[Chunk]:
        """Split and encode ``payload`` into ``d + p`` chunks.

        Any contiguous bytes-like object is accepted, and no chunk can change
        after the call.  A ``bytes`` payload is split without copying, as the
        paper's ``Split`` does: each full data chunk is a read-only
        ``memoryview`` slice of it (so a stored chunk keeps the whole object
        alive).  Any other input is first copied once into a private
        ``bytes``, so no chunk aliases a mutable buffer.  Parity chunks and
        the zero-padded tail shards are ``bytes``; every shard has the same
        length, and the true length is carried in the metadata and
        re-applied on decode.
        """
        if not key:
            raise EncodingError("object key must be non-empty")
        if type(payload) is not bytes:
            try:
                payload = memoryview(payload).cast("B").tobytes()
            except TypeError as error:
                raise EncodingError(
                    f"object {key!r} is not a contiguous bytes-like object: {error}"
                ) from error
        object_size = len(payload)
        if object_size == 0:
            raise EncodingError(f"cannot encode empty object {key!r}")
        chunk_size = self.chunk_size_for(object_size)
        view = memoryview(payload)
        full = object_size // chunk_size
        # Slicing a read-only memoryview copies nothing; only the shards that
        # run past the end (short or empty) are copied, to be zero-padded.
        data_shards: list[Vector] = [
            view[start : start + chunk_size]
            for start in range(0, chunk_size * full, chunk_size)
        ]
        data_shards += [
            payload[start : start + chunk_size].ljust(chunk_size, b"\x00")
            for start in range(chunk_size * full, chunk_size * self.data_shards, chunk_size)
        ]
        stripe = self.rs.encode(data_shards)
        metadata = StripeMetadata(
            key=key,
            object_size=object_size,
            data_shards=self.data_shards,
            parity_shards=self.parity_shards,
            chunk_size=chunk_size,
        )
        return [
            Chunk(key=key, index=i, payload=stripe[i], metadata=metadata)
            for i in range(self.total_shards)
        ]

    # --- decode -------------------------------------------------------------------
    def _shard_map(self, chunks: list[Chunk]) -> tuple[StripeMetadata, dict[int, Vector]]:
        """Check that ``chunks`` are one object's and index their payloads.

        Raises:
            DecodingError: if there are no chunks, they belong to different
                objects or disagree on the stripe metadata, the metadata does
                not describe a stripe of this codec that can hold the object,
                an index appears twice with different payloads, or a payload
                is not ``chunk_size`` long (equally truncated chunks would
                otherwise decode to a silently short object).
        """
        if not chunks:
            raise DecodingError("no chunks supplied")
        metadata = chunks[0].metadata
        key = chunks[0].key
        if (metadata.data_shards, metadata.parity_shards) != (
            self.data_shards, self.parity_shards
        ):
            raise DecodingError(
                f"object {key!r} is RS({metadata.data_shards}+{metadata.parity_shards}) "
                f"coded, this codec is {self!r}"
            )
        if metadata.chunk_size * metadata.data_shards < metadata.object_size:
            raise DecodingError(
                f"stripe metadata for object {key!r} cannot hold its "
                f"{metadata.object_size} bytes"
            )
        shard_map: dict[int, Vector] = {}
        for chunk in chunks:
            if chunk.key != key:
                raise DecodingError(
                    f"chunks from different objects supplied: {key!r} and {chunk.key!r}"
                )
            if chunk.metadata != metadata:
                raise DecodingError(f"inconsistent stripe metadata for object {key!r}")
            if len(chunk.payload) != metadata.chunk_size:
                raise DecodingError(
                    f"chunk {chunk.chunk_id!r} holds {len(chunk.payload)} bytes, "
                    f"expected {metadata.chunk_size}"
                )
            existing = shard_map.get(chunk.index)
            if existing is not None and existing != chunk.payload:
                raise DecodingError(
                    f"conflicting payloads for chunk {chunk.chunk_id!r}"
                )
            shard_map[chunk.index] = chunk.payload
        return metadata, shard_map

    def decode(self, chunks: list[Chunk]) -> bytes:
        """Reconstruct the original object from any ``d`` (or more) chunks.

        Raises:
            DecodingError: if the chunks fail :meth:`_shard_map`'s checks or
                fewer than ``d`` distinct chunks are supplied.
        """
        metadata, shard_map = self._shard_map(chunks)
        data_shards = self.rs.decode(shard_map)
        # Drop the padding before joining, so the object is copied once.
        whole, tail = divmod(metadata.object_size, metadata.chunk_size)
        pieces = data_shards[:whole]
        if tail:
            pieces.append(data_shards[whole][:tail])
        return b"".join(pieces)

    def rebuild_missing(self, chunks: list[Chunk]) -> list[Chunk]:
        """Regenerate the full stripe (used by the recovery / RESET path).

        Only the absent chunks are computed; the survivors' payloads are
        passed through.  Raises :class:`DecodingError` as :meth:`decode` does.
        """
        metadata, shard_map = self._shard_map(chunks)
        stripe = self.rs.reconstruct_all(shard_map)
        return [
            Chunk(key=metadata.key, index=i, payload=stripe[i], metadata=metadata)
            for i in range(len(stripe))
        ]

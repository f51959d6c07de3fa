"""Tests for cache-level chunk and object descriptors."""

import pytest

from repro.cache.chunk import CacheChunk, ObjectDescriptor, descriptor_for
from repro.erasure.codec import ErasureCodec
from repro.exceptions import ConfigurationError


class TestObjectDescriptor:
    def test_derived_quantities(self):
        descriptor = ObjectDescriptor(
            key="k", object_size=1000, data_shards=10, parity_shards=2, chunk_size=100
        )
        assert descriptor.total_chunks == 12
        assert descriptor.stored_bytes == 1200

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ObjectDescriptor(key="k", object_size=0, data_shards=10, parity_shards=2,
                             chunk_size=1)
        with pytest.raises(ConfigurationError):
            ObjectDescriptor(key="k", object_size=10, data_shards=0, parity_shards=2,
                             chunk_size=1)
        with pytest.raises(ConfigurationError):
            ObjectDescriptor(key="k", object_size=10, data_shards=1, parity_shards=0,
                             chunk_size=0)

    def test_stripe_metadata_decodes_the_stored_chunks(self):
        # The proxy keeps only the descriptor; its stripe metadata must be
        # what the codec stamped on the chunks, so the client can decode.
        payload = bytes(range(256)) * 4
        chunks = ErasureCodec(4, 2).encode("k", payload)
        descriptor = descriptor_for("k", len(payload), 4, 2)
        assert descriptor.stripe_metadata() == chunks[0].metadata
        assert ErasureCodec(4, 2).decode(chunks[2:]) == payload

    def test_descriptor_for_uses_ceiling_division(self):
        descriptor = descriptor_for("k", 1001, 10, 2)
        assert descriptor.chunk_size == 101
        assert descriptor.stored_bytes == 101 * 12


class TestCacheChunk:
    def test_sized_chunk(self):
        chunk = CacheChunk.sized("key", 3, 1024)
        assert chunk.chunk_id == "key#3"
        assert chunk.size == 1024
        assert chunk.payload is None

    def test_payload_chunk_size_must_match(self):
        with pytest.raises(ConfigurationError):
            CacheChunk(key="k", index=0, size=10, payload=b"short")

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheChunk.sized("k", 0, 0)

    def test_from_erasure_chunk(self):
        codec = ErasureCodec(4, 2)
        erasure_chunks = codec.encode("obj", bytes(range(100)) * 10)
        cache_chunk = CacheChunk.from_erasure_chunk(erasure_chunks[5])
        assert cache_chunk.key == "obj"
        assert cache_chunk.index == 5
        assert cache_chunk.size == erasure_chunks[5].size
        assert cache_chunk.payload == erasure_chunks[5].payload

    def test_chunk_id_matches_paper_naming(self):
        """IDobj_chunk is the object key concatenated with the sequence number."""
        chunk = CacheChunk.sized("photos/cat.jpg", 7, 100)
        assert chunk.chunk_id == "photos/cat.jpg#7"

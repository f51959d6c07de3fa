"""Tests for the object-level erasure codec."""

import dataclasses
import hashlib
import random
import tracemalloc

import pytest

from repro.erasure.codec import Chunk, ErasureCodec
from repro.exceptions import DecodingError, EncodingError


@pytest.fixture
def codec() -> ErasureCodec:
    return ErasureCodec(4, 2)


PINNED_STRIPE_SHA256 = "791ccc9e1eab2dd5960332c0e1c3a0fce8eec3831fad2b7c9e3b472ca3c44532"


def sample_object(size: int = 1000) -> bytes:
    return bytes(i % 251 for i in range(size))


def is_immutable(payload) -> bool:
    """``bytes``, or a read-only view over a ``bytes`` object."""
    return type(payload) is bytes or (
        type(payload) is memoryview and payload.readonly and type(payload.obj) is bytes
    )


class TestEncode:
    def test_chunk_count_and_ids(self, codec):
        chunks = codec.encode("key", sample_object())
        assert len(chunks) == 6
        assert [chunk.chunk_id for chunk in chunks] == [f"key#{i}" for i in range(6)]

    def test_chunk_sizes_equal(self, codec):
        chunks = codec.encode("key", sample_object(1001))
        sizes = {chunk.size for chunk in chunks}
        assert len(sizes) == 1
        assert sizes.pop() == codec.chunk_size_for(1001)

    def test_chunk_size_is_ceiling_division(self, codec):
        assert codec.chunk_size_for(1000) == 250
        assert codec.chunk_size_for(1001) == 251
        assert codec.chunk_size_for(1) == 1

    def test_parity_flag(self, codec):
        # Systematic code: the first d chunks are the object's bytes
        # verbatim, the last p are parity.
        payload = sample_object()
        chunks = codec.encode("key", payload)
        verbatim = [
            bytes(chunk.payload) == payload[250 * i:250 * (i + 1)] for i, chunk in enumerate(chunks)
        ]
        assert verbatim == [True] * 4 + [False] * 2

    def test_empty_key_rejected(self, codec):
        with pytest.raises(EncodingError):
            codec.encode("", sample_object())

    def test_empty_payload_rejected(self, codec):
        with pytest.raises(EncodingError):
            codec.encode("key", b"")

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_any_bytes_like_is_accepted_and_chunks_are_immutable(self, codec, wrap):
        payload = sample_object(1001)
        chunks = codec.encode("key", wrap(payload))
        assert chunks == codec.encode("key", payload)
        assert all(is_immutable(chunk.payload) for chunk in chunks)
        views = [chunk.payload for chunk in chunks if type(chunk.payload) is memoryview]
        assert len(views) == 3  # 1001 bytes = three full 251-byte shards + a tail
        for view in views:
            with pytest.raises(TypeError):
                view[0] = 0

    def test_encode_does_not_alias_a_mutable_payload(self, codec):
        for payload in (bytearray(sample_object()), memoryview(bytearray(sample_object()))):
            chunks = codec.encode("key", payload)
            payload[:] = bytes(len(payload))
            assert codec.decode(chunks) == sample_object()
            assert all(is_immutable(chunk.payload) for chunk in chunks)

    def test_full_data_chunks_of_bytes_are_views_of_the_payload(self, codec):
        payload = sample_object(1001)
        chunks = codec.encode("key", payload)
        for chunk in chunks[:3]:
            assert type(chunk.payload) is memoryview
            assert chunk.payload.readonly and chunk.payload.obj is payload
        assert chunks[0].payload == payload[:251]
        # The tail shard is short and zero-padded; parity is computed: both
        # are fresh bytes.
        assert all(type(chunk.payload) is bytes for chunk in chunks[3:])
        assert chunks[3].payload == payload[753:] + bytes(3)

    def test_encode_of_bytes_keeps_no_copy_of_the_data(self):
        """Only the two parity chunks are new memory: 0.2x the object, where
        a copy of every data shard would retain 1.2x."""
        payload = random.Random(4).randbytes(4_000_000)
        codec = ErasureCodec(10, 2)
        codec.encode("warm", payload[:1000])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            chunks = codec.encode("big", payload)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(chunks) == 12
        assert retained < 0.25 * len(payload)

    @pytest.mark.parametrize("payload", ["text", 7, memoryview(bytes(64))[::2]])
    def test_not_bytes_like_rejected(self, codec, payload):
        with pytest.raises(EncodingError):
            codec.encode("key", payload)

    def test_parity_bytes_match_the_pinned_stripe(self):
        """sha256 over the RS(10+2) stripe of a seeded 1 MB payload, computed
        before the translate-table kernel replaced the numpy gather and
        before data shards became zero-copy views: a change of kernel or of
        shard layout must not change a single stored byte."""
        payload = random.Random(2020).randbytes(1_000_000)
        chunks = ErasureCodec(10, 2).encode("pinned", payload)
        digest = hashlib.sha256(b"".join(chunk.payload for chunk in chunks)).hexdigest()
        assert digest == PINNED_STRIPE_SHA256

    def test_storage_overhead(self, codec):
        # Stored bytes over object bytes is (d + p) / d, e.g. 1.2 for RS(10+2).
        stored = sum(chunk.size for chunk in codec.encode("key", sample_object(1000)))
        assert stored / 1000 == pytest.approx(1.5)
        stored = sum(chunk.size for chunk in ErasureCodec(10, 2).encode("key", sample_object(1000)))
        assert stored / 1000 == pytest.approx(1.2)

    def test_invalid_chunk_size_query(self, codec):
        with pytest.raises(EncodingError):
            codec.chunk_size_for(0)


class TestDecode:
    def test_roundtrip_from_all_chunks(self, codec):
        payload = sample_object(997)
        chunks = codec.encode("key", payload)
        assert codec.decode(chunks) == payload

    def test_roundtrip_from_data_chunks_only(self, codec):
        payload = sample_object()
        chunks = codec.encode("key", payload)
        assert codec.decode(chunks[:4]) == payload

    def test_roundtrip_from_mixed_chunks(self, codec):
        payload = sample_object(1003)
        chunks = codec.encode("key", payload)
        subset = [chunks[0], chunks[2], chunks[4], chunks[5]]
        assert codec.decode(subset) == payload

    def test_roundtrip_small_object(self, codec):
        payload = b"tiny"
        chunks = codec.encode("key", payload)
        assert codec.decode(chunks[2:]) == payload

    def test_too_few_chunks(self, codec):
        chunks = codec.encode("key", sample_object())
        with pytest.raises(DecodingError):
            codec.decode(chunks[:3])

    def test_mixed_objects_rejected(self, codec):
        chunks_a = codec.encode("a", sample_object())
        chunks_b = codec.encode("b", sample_object())
        with pytest.raises(DecodingError):
            codec.decode([chunks_a[0], chunks_b[1], chunks_a[2], chunks_a[3]])

    def test_conflicting_duplicate_chunk_rejected(self, codec):
        chunks = codec.encode("key", sample_object())
        forged = Chunk(
            key="key", index=0, payload=bytes(len(chunks[0].payload)),
            metadata=chunks[0].metadata,
        )
        with pytest.raises(DecodingError):
            codec.decode([forged] + chunks)

    def test_equally_truncated_chunks_rejected(self, codec):
        """Four chunks cut to 100 bytes used to decode to a 400-byte object."""
        chunks = codec.encode("key", sample_object(1000))
        truncated = [dataclasses.replace(c, payload=c.payload[:100]) for c in chunks[:4]]
        with pytest.raises(DecodingError):
            codec.decode(truncated)

    def test_metadata_too_small_for_the_object_rejected(self, codec):
        chunks = codec.encode("key", sample_object(1000))
        lying = dataclasses.replace(chunks[0].metadata, object_size=1001)
        with pytest.raises(DecodingError):
            codec.decode([dataclasses.replace(c, metadata=lying) for c in chunks])

    def test_chunks_of_another_geometry_rejected(self, codec):
        with pytest.raises(DecodingError):
            codec.decode(ErasureCodec(5, 1).encode("key", sample_object(1000)))

    def test_no_chunks_rejected(self, codec):
        with pytest.raises(DecodingError):
            codec.decode([])


class TestFirstDSupport:
    def test_needs_decoding_false_when_data_chunks_present(self, codec):
        # With every data chunk present the object is their concatenation.
        payload = sample_object()
        chunks = codec.encode("key", payload)
        assert b"".join(bytes(chunk.payload) for chunk in chunks[:4])[:len(payload)] == payload
        assert codec.decode(chunks[:4]) == payload

    def test_needs_decoding_true_with_parity_substitute(self, codec):
        # A parity chunk standing in for a data chunk needs RS decoding.
        payload = sample_object()
        chunks = codec.encode("key", payload)
        subset = [chunks[0], chunks[1], chunks[2], chunks[5]]
        assert b"".join(bytes(chunk.payload) for chunk in subset)[:len(payload)] != payload
        assert codec.decode(subset) == payload

    def test_rebuild_missing_restores_full_stripe(self, codec):
        payload = sample_object(1024)
        chunks = codec.encode("key", payload)
        rebuilt = codec.rebuild_missing(chunks[1:5])
        assert len(rebuilt) == codec.total_shards
        assert [chunk.payload for chunk in rebuilt] == [chunk.payload for chunk in chunks]
        assert codec.decode(rebuilt) == payload

    def test_rebuild_missing_matches_the_pinned_stripe(self):
        payload = random.Random(2020).randbytes(1_000_000)
        codec = ErasureCodec(10, 2)
        chunks = codec.encode("pinned", payload)
        rebuilt = codec.rebuild_missing(chunks[2:])  # two data chunks lost
        assert rebuilt == chunks
        digest = hashlib.sha256(b"".join(chunk.payload for chunk in rebuilt)).hexdigest()
        assert digest == PINNED_STRIPE_SHA256
        assert all(rebuilt[i].payload is chunks[i].payload for i in range(2, 12))

    def test_rebuild_missing_validates_like_decode(self, codec):
        chunks = codec.encode("key", sample_object())
        other = codec.encode("other", sample_object())
        with pytest.raises(DecodingError):  # two objects
            codec.rebuild_missing(chunks[:3] + other[3:5])
        relabelled = [dataclasses.replace(c, key="key") for c in other[3:5]]
        with pytest.raises(DecodingError):  # same key, other stripe metadata
            codec.rebuild_missing(chunks[:3] + relabelled)
        conflicting = dataclasses.replace(chunks[0], payload=bytes(chunks[0].size))
        with pytest.raises(DecodingError):
            codec.rebuild_missing(chunks[:4] + [conflicting])
        truncated = [dataclasses.replace(c, payload=c.payload[:100]) for c in chunks[:4]]
        with pytest.raises(DecodingError):
            codec.rebuild_missing(truncated)

    def test_rebuild_missing_empty_rejected(self, codec):
        with pytest.raises(DecodingError):
            codec.rebuild_missing([])


class TestNoParityBaseline:
    """The paper's (10+0) baseline: plain striping, no redundancy."""

    def test_roundtrip(self):
        codec = ErasureCodec(10, 0)
        payload = sample_object(12345)
        chunks = codec.encode("key", payload)
        assert len(chunks) == 10
        assert codec.decode(chunks) == payload

    def test_any_loss_is_fatal(self):
        codec = ErasureCodec(10, 0)
        chunks = codec.encode("key", sample_object(5000))
        with pytest.raises(DecodingError):
            codec.decode(chunks[1:])


@pytest.mark.parametrize("size", [1, 3, 39, 40, 41, 1000, 65537])
def test_roundtrip_at_awkward_sizes(size):
    """Padding must be transparent for sizes that do not divide evenly."""
    codec = ErasureCodec(4, 2)
    payload = sample_object(size)
    chunks = codec.encode("obj", payload)
    assert codec.decode(chunks[2:]) == payload

"""Property-based tests (hypothesis) for the erasure-coding stack.

These exercise the core invariant the whole system rests on: any ``d`` of the
``d + p`` chunks reconstruct the original object exactly, for arbitrary
payloads and any valid code configuration.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.codec import ErasureCodec
from repro.erasure.galois import GF256
from repro.erasure.matrix import GFMatrix
from repro.erasure.reed_solomon import ReedSolomon
from repro.exceptions import ErasureCodingError

# Keep payloads modest so the suite stays fast; sizes are drawn to hit both
# the "smaller than d bytes" and the "does not divide evenly" edge cases.
payloads = st.binary(min_size=1, max_size=4096)
small_codes = st.tuples(st.integers(min_value=1, max_value=8),
                        st.integers(min_value=0, max_value=4))


class TestGaloisFieldProperties:
    @given(st.integers(0, 255), st.integers(0, 255))
    def test_addition_commutative(self, a, b):
        assert GF256.add(a, b) == GF256.add(b, a)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_multiplication_commutative(self, a, b):
        assert GF256.multiply(a, b) == GF256.multiply(b, a)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_multiplication_distributes_over_addition(self, a, b, c):
        left = GF256.multiply(a, GF256.add(b, c))
        right = GF256.add(GF256.multiply(a, b), GF256.multiply(a, c))
        assert left == right

    @given(st.integers(1, 255), st.integers(0, 255))
    def test_division_is_multiplication_inverse(self, a, b):
        assert GF256.divide(GF256.multiply(b, a), a) == b

    @given(st.integers(0, 255))
    def test_additive_identity_and_self_inverse(self, a):
        assert GF256.add(a, 0) == a
        assert GF256.add(a, a) == 0


def scalar_oracle(matrix: list[list[int]], rows: list[int], shards: list[bytes]) -> list[bytes]:
    """The reference the bulk kernel is compared against: one
    :meth:`GF256.multiply` per coefficient and byte, nothing shared with
    ``bytearray.translate`` or numpy."""
    outputs = []
    for row in rows:
        out = [0] * len(shards[0])
        for coefficient, shard in zip(matrix[row], shards):
            for position, byte in enumerate(shard):
                out[position] ^= GF256.multiply(coefficient, byte)
        outputs.append(bytes(out))
    return outputs


@st.composite
def matrix_rows_and_shards(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    # 0 and 1 take the kernel's skip and pass-through branches; draw them often.
    coefficient = st.one_of(st.sampled_from([0, 1]), st.integers(0, 255))
    matrix = draw(st.lists(st.lists(coefficient, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    selected = draw(st.lists(st.integers(0, rows - 1), max_size=rows + 2))
    length = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 63, 65]), st.integers(1, 200)))
    shards = draw(st.lists(st.binary(min_size=length, max_size=length),
                           min_size=cols, max_size=cols))
    return matrix, selected, shards


class TestKernelAgainstScalarOracle:
    @settings(max_examples=150, deadline=None)
    @given(matrix_rows_and_shards())
    def test_multiply_shards_matches_the_per_byte_oracle(self, case):
        matrix, selected, shards = case
        gf_matrix = GFMatrix(np.array(matrix, dtype=np.uint8))
        assert gf_matrix.multiply_shards(shards, selected) == scalar_oracle(
            matrix, selected, shards
        )
        assert gf_matrix.multiply_shards(shards) == scalar_oracle(
            matrix, list(range(len(matrix))), shards
        )

    @settings(max_examples=100, deadline=None)
    @given(matrix_rows_and_shards(), st.integers(0, 9))
    def test_read_only_views_give_the_same_bytes(self, case, offset):
        """The zero-copy data shards are read-only views into a larger
        object: the kernel must read them exactly as it reads ``bytes``."""
        matrix, selected, shards = case
        backing = bytes(offset) + b"".join(shards) + bytes(offset)
        whole = memoryview(backing)
        length = len(shards[0])
        views = [
            whole[offset + i * length : offset + (i + 1) * length]
            for i in range(len(shards))
        ]
        assert all(view.readonly and view == shard for view, shard in zip(views, shards))
        gf_matrix = GFMatrix(np.array(matrix, dtype=np.uint8))
        expected = scalar_oracle(matrix, selected, shards)
        assert gf_matrix.multiply_shards(views, selected) == expected
        assert gf_matrix.multiply_shards(shards, selected) == expected
        for row in selected:
            on_views = GF256.combine(matrix[row], views)
            assert type(on_views) is bytes
            assert on_views == GF256.combine(matrix[row], shards)
        # A view shorter than the rest is refused, as a short ``bytes`` is.
        if len(shards) > 1:
            with pytest.raises(ErasureCodingError):
                GF256.combine([1] * len(shards), views[:-1] + [views[-1][:-1]])

    @settings(max_examples=25, deadline=None)
    @given(data=st.integers(1, 6), parity=st.integers(1, 3),
           payload=st.binary(min_size=1, max_size=96))
    def test_parity_matches_the_per_byte_oracle(self, data, parity, payload):
        chunks = ErasureCodec(data, parity).encode("obj", payload)
        matrix = GFMatrix.systematic_encoding_matrix(data, parity).data.tolist()
        stripe = scalar_oracle(
            matrix, list(range(data + parity)), [c.payload for c in chunks[:data]]
        )
        assert [c.payload for c in chunks] == stripe


class TestEveryErasurePattern:
    """Exhaustive over what hypothesis would only sample: every way of losing
    up to ``p`` chunks, at object sizes that do not divide by ``d``."""

    @staticmethod
    def check(data: int, parity: int, size: int, patterns) -> None:
        codec = ErasureCodec(data, parity)
        payload = random.Random(size).randbytes(size)
        chunks = codec.encode("obj", payload)
        # Every full data shard is a zero-copy view, so survivors mix views
        # with bytes in every pattern below.
        full = size // chunks[0].size
        assert [type(chunk.payload) is memoryview for chunk in chunks] == (
            [True] * full + [False] * (data + parity - full)
        )
        for lost in patterns:
            survivors = [chunk for chunk in chunks if chunk.index not in lost]
            decoded = codec.decode(survivors)
            assert type(decoded) is bytes and decoded == payload, (data, parity, size, lost)
            rebuilt = codec.rebuild_missing(survivors)
            assert rebuilt == chunks, (data, parity, size, lost)
            assert all(rebuilt[i].payload is chunks[i].payload for i in range(len(chunks))
                       if i not in lost)

    def test_small_codes_exhaustively(self):
        for data, parity in [(1, 1), (2, 2), (3, 3), (4, 2), (5, 1), (10, 2)]:
            total = data + parity
            patterns = [
                set(lost)
                for count in range(parity + 1)
                for lost in itertools.combinations(range(total), count)
            ]
            for size in (1, max(1, data - 1), data + 1, 10 * data + 3, 1021):
                self.check(data, parity, size, patterns)

    def test_rs_20_4_sampled(self):
        """C(24, ≤4) is 12 951 patterns; take every single loss, then a seeded
        sample of the rest (the paper's "aggressive" code)."""
        rng = random.Random(2020)
        patterns = [{index} for index in range(24)]
        patterns += [set(rng.sample(range(24), rng.randint(2, 4))) for _ in range(60)]
        for size in (19, 1021, 40_003):
            self.check(20, 4, size, patterns)


def copying_reference(codec: ErasureCodec, payload: bytes) -> list[bytes]:
    """The stripe as the codec used to build it: every data shard copied out
    of the object and zero-padded, then the parity computed from the copies."""
    view = memoryview(payload).cast("B")
    size = codec.chunk_size_for(len(payload))
    shards = [
        bytes(view[start : start + size]).ljust(size, b"\x00")
        for start in range(0, size * codec.data_shards, size)
    ]
    return ReedSolomon(codec.data_shards, codec.parity_shards).encode(shards)


class TestZeroCopyEncodeMatchesTheCopyingOne:
    """For every code from RS(1+1) to RS(20+4), at object sizes that fill the
    shards exactly, overshoot or undershoot by a byte, or leave some shards
    pure padding (1 … d-1 bytes), zero-copy encoding stores the same bytes."""

    def test_every_code_and_awkward_size(self):
        rng = random.Random(29)
        for data in range(1, 21):
            sizes = {k * data + delta for k in (1, 37) for delta in (-1, 0, 1)}
            sizes |= set(range(1, data))
            for parity in range(1, 5):
                codec = ErasureCodec(data, parity)
                for size in sorted(size for size in sizes if size > 0):
                    payload = rng.randbytes(size)
                    chunks = codec.encode("obj", payload)
                    assert [chunk.payload for chunk in chunks] == copying_reference(
                        codec, payload
                    ), (data, parity, size)
                    assert codec.decode(chunks) == payload

    @settings(max_examples=60, deadline=None)
    @given(payload=payloads, code=small_codes)
    def test_bytes_like_inputs_store_the_same_stripe(self, payload, code):
        codec = ErasureCodec(*code)
        expected = copying_reference(codec, payload)
        for wrapped in (payload, bytearray(payload), memoryview(payload)):
            assert [c.payload for c in codec.encode("obj", wrapped)] == expected


class TestReedSolomonProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.integers(min_value=2, max_value=10),
        parity=st.integers(min_value=1, max_value=4),
        payload=st.binary(min_size=8, max_size=512),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_any_d_of_n_chunks_reconstruct(self, data, parity, payload, seed):
        """The MDS property under a randomly chosen survivor set."""
        import random

        shard_len = max(1, -(-len(payload) // data))
        padded = payload + b"\x00" * (shard_len * data - len(payload))
        shards = [padded[i * shard_len:(i + 1) * shard_len] for i in range(data)]
        rs = ReedSolomon(data, parity)
        stripe = rs.encode(shards)
        survivors = random.Random(seed).sample(range(data + parity), data)
        decoded = rs.decode({i: stripe[i] for i in survivors})
        assert decoded == shards

    @settings(max_examples=40, deadline=None)
    @given(data=st.integers(2, 10), parity=st.integers(1, 4),
           payload=st.binary(min_size=8, max_size=512))
    def test_encode_verify_roundtrip(self, data, parity, payload):
        shard_len = max(1, -(-len(payload) // data))
        padded = payload + b"\x00" * (shard_len * data - len(payload))
        shards = [padded[i * shard_len:(i + 1) * shard_len] for i in range(data)]
        rs = ReedSolomon(data, parity)
        assert rs.verify(rs.encode(shards)) is True


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(payload=payloads, code=small_codes)
    def test_roundtrip_with_all_chunks(self, payload, code):
        data, parity = code
        codec = ErasureCodec(data, parity)
        chunks = codec.encode("obj", payload)
        assert codec.decode(chunks) == payload

    @settings(max_examples=60, deadline=None)
    @given(payload=payloads,
           data=st.integers(2, 8),
           parity=st.integers(1, 4),
           drop_seed=st.integers(0, 2**31))
    def test_roundtrip_after_dropping_up_to_p_chunks(self, payload, data, parity, drop_seed):
        """Losing any p chunks never loses the object."""
        import random

        codec = ErasureCodec(data, parity)
        chunks = codec.encode("obj", payload)
        rng = random.Random(drop_seed)
        dropped = set(rng.sample(range(data + parity), parity))
        survivors = [chunk for chunk in chunks if chunk.index not in dropped]
        assert codec.decode(survivors) == payload

    @settings(max_examples=40, deadline=None)
    @given(payload=payloads, code=small_codes)
    def test_chunk_sizes_uniform_and_cover_object(self, payload, code):
        data, parity = code
        codec = ErasureCodec(data, parity)
        chunks = codec.encode("obj", payload)
        sizes = {chunk.size for chunk in chunks}
        assert len(sizes) == 1
        assert sizes.pop() * data >= len(payload)

    @settings(max_examples=40, deadline=None)
    @given(payload=payloads, data=st.integers(2, 8), parity=st.integers(1, 4))
    def test_rebuild_missing_is_idempotent(self, payload, data, parity):
        codec = ErasureCodec(data, parity)
        chunks = codec.encode("obj", payload)
        rebuilt = codec.rebuild_missing(chunks[: data])
        assert [c.payload for c in rebuilt] == [c.payload for c in chunks]

"""Tests for the stripe-level Reed-Solomon codec."""

import itertools

import pytest

from repro.erasure.reed_solomon import ReedSolomon
from repro.exceptions import ConfigurationError, DecodingError, EncodingError


def make_shards(count: int, length: int = 64) -> list[bytes]:
    return [bytes((i * 7 + j) % 256 for j in range(length)) for i in range(count)]


class TestConstruction:
    def test_valid_codes(self):
        for d, p in [(10, 1), (10, 2), (4, 2), (5, 1), (10, 0), (20, 4)]:
            rs = ReedSolomon(d, p)
            assert rs.total_shards == d + p

    def test_invalid_data_shards(self):
        with pytest.raises(ConfigurationError):
            ReedSolomon(0, 2)

    def test_invalid_parity_shards(self):
        with pytest.raises(ConfigurationError):
            ReedSolomon(4, -1)

    def test_too_many_shards(self):
        with pytest.raises(ConfigurationError):
            ReedSolomon(200, 100)

    def test_repr(self):
        assert "10" in repr(ReedSolomon(10, 2))


class TestEncode:
    def test_systematic_data_unchanged(self):
        rs = ReedSolomon(4, 2)
        data = make_shards(4)
        stripe = rs.encode(data)
        assert stripe[:4] == data
        assert len(stripe) == 6

    def test_parity_shard_lengths(self):
        rs = ReedSolomon(4, 2)
        stripe = rs.encode(make_shards(4, 100))
        assert all(len(shard) == 100 for shard in stripe)

    def test_no_parity_passthrough(self):
        rs = ReedSolomon(3, 0)
        data = make_shards(3)
        assert rs.encode(data) == data

    def test_wrong_shard_count(self):
        with pytest.raises(EncodingError):
            ReedSolomon(4, 2).encode(make_shards(3))

    def test_mismatched_lengths(self):
        shards = make_shards(4)
        shards[2] = shards[2][:-1]
        with pytest.raises(EncodingError):
            ReedSolomon(4, 2).encode(shards)

    def test_empty_shards_rejected(self):
        with pytest.raises(EncodingError):
            ReedSolomon(2, 1).encode([b"", b""])

    def test_deterministic(self):
        rs = ReedSolomon(5, 3)
        data = make_shards(5)
        assert rs.encode(data) == rs.encode(data)


class TestDecode:
    def test_all_data_shards_fast_path(self):
        rs = ReedSolomon(4, 2)
        data = make_shards(4)
        stripe = rs.encode(data)
        decoded = rs.decode({i: stripe[i] for i in range(4)})
        assert decoded == data

    def test_recover_from_any_d_shards(self):
        rs = ReedSolomon(4, 2)
        data = make_shards(4)
        stripe = rs.encode(data)
        for surviving in itertools.combinations(range(6), 4):
            decoded = rs.decode({i: stripe[i] for i in surviving})
            assert decoded == data, f"failed for surviving set {surviving}"

    def test_extra_shards_ignored(self):
        rs = ReedSolomon(3, 2)
        data = make_shards(3)
        stripe = rs.encode(data)
        decoded = rs.decode({i: stripe[i] for i in range(5)})
        assert decoded == data

    def test_too_few_shards(self):
        rs = ReedSolomon(4, 2)
        stripe = rs.encode(make_shards(4))
        with pytest.raises(DecodingError):
            rs.decode({0: stripe[0], 1: stripe[1], 2: stripe[2]})

    def test_no_shards(self):
        with pytest.raises(DecodingError):
            ReedSolomon(4, 2).decode({})

    def test_out_of_range_index(self):
        rs = ReedSolomon(2, 1)
        stripe = rs.encode(make_shards(2))
        with pytest.raises(DecodingError):
            rs.decode({0: stripe[0], 5: stripe[1]})

    def test_inconsistent_lengths(self):
        rs = ReedSolomon(2, 1)
        stripe = rs.encode(make_shards(2))
        with pytest.raises(DecodingError):
            rs.decode({0: stripe[0], 1: stripe[1][:-1]})

    def test_no_parity_missing_data_unrecoverable(self):
        rs = ReedSolomon(3, 0)
        data = make_shards(3)
        with pytest.raises(DecodingError):
            rs.decode({0: data[0], 1: data[1]})

    def test_corrupted_parity_changes_output(self):
        """Decoding from a corrupted parity shard must not silently return the
        original data (RS without a checksum cannot detect corruption)."""
        rs = ReedSolomon(2, 1)
        data = make_shards(2)
        stripe = rs.encode(data)
        corrupted = bytes(b ^ 0xFF for b in stripe[2])
        decoded = rs.decode({0: stripe[0], 2: corrupted})
        assert decoded != data


class TestReconstructAndVerify:
    def test_reconstruct_all_restores_stripe(self):
        rs = ReedSolomon(4, 2)
        data = make_shards(4)
        stripe = rs.encode(data)
        rebuilt = rs.reconstruct_all({0: stripe[0], 2: stripe[2], 4: stripe[4], 5: stripe[5]})
        assert rebuilt == stripe

    def test_verify_accepts_valid_stripe(self):
        rs = ReedSolomon(4, 2)
        stripe = rs.encode(make_shards(4))
        assert rs.verify(stripe) is True

    def test_verify_rejects_corrupted_stripe(self):
        rs = ReedSolomon(4, 2)
        stripe = rs.encode(make_shards(4))
        stripe[5] = bytes(b ^ 1 for b in stripe[5])
        assert rs.verify(stripe) is False

    def test_verify_needs_full_stripe(self):
        rs = ReedSolomon(4, 2)
        stripe = rs.encode(make_shards(4))
        with pytest.raises(DecodingError):
            rs.verify(stripe[:5])

    @pytest.mark.parametrize("data,parity", [(10, 1), (10, 2), (10, 4), (4, 2), (5, 1)])
    def test_paper_codes_tolerate_p_losses(self, data, parity):
        """Every RS configuration evaluated in the paper must reconstruct the
        object after losing exactly p chunks."""
        rs = ReedSolomon(data, parity)
        payloads = make_shards(data, 128)
        stripe = rs.encode(payloads)
        survivors = {i: stripe[i] for i in range(parity, data + parity)}
        assert rs.decode(survivors) == payloads


class TestOnlyTheMissingShardsAreComputed:
    def test_decode_returns_surviving_data_shards_by_identity(self):
        rs = ReedSolomon(4, 2)
        data = make_shards(4)
        stripe = rs.encode(data)
        survivors = {i: stripe[i] for i in (0, 2, 4, 5)}  # data shards 1, 3 lost
        decoded = rs.decode(survivors)
        assert decoded == data
        assert decoded[0] is stripe[0] and decoded[2] is stripe[2]

    def test_reconstruct_all_passes_survivors_through(self):
        rs = ReedSolomon(4, 2)
        stripe = rs.encode(make_shards(4))
        survivors = {i: stripe[i] for i in (0, 1, 3, 5)}  # one data, one parity lost
        rebuilt = rs.reconstruct_all(survivors)
        assert rebuilt == stripe
        assert all(rebuilt[i] is stripe[i] for i in survivors)

    def test_reconstruct_all_with_only_parity_lost(self):
        rs = ReedSolomon(4, 2)
        stripe = rs.encode(make_shards(4))
        assert rs.reconstruct_all({i: stripe[i] for i in range(4)}) == stripe

    def test_reconstruct_all_shares_the_decode_lru(self):
        rs = ReedSolomon(4, 2)
        stripe = rs.encode(make_shards(4))
        survivors = {i: stripe[i] for i in (1, 2, 3, 4)}
        rs.reconstruct_all(dict(survivors))
        rs.decode(dict(survivors))
        rs.reconstruct_all(dict(survivors))
        assert list(rs._decode_matrices) == [(1, 2, 3, 4)]

    def test_reconstruct_all_validates_like_decode(self):
        rs = ReedSolomon(4, 2)
        stripe = rs.encode(make_shards(4))
        with pytest.raises(DecodingError):
            rs.reconstruct_all({i: stripe[i] for i in (0, 1, 2)})
        with pytest.raises(DecodingError):
            rs.reconstruct_all({0: stripe[0], 1: stripe[1], 2: stripe[2], 9: stripe[3]})
        with pytest.raises(DecodingError):
            rs.reconstruct_all({0: stripe[0], 1: stripe[1], 2: stripe[2], 3: b"short"})
        with pytest.raises(DecodingError):
            ReedSolomon(3, 0).reconstruct_all({0: b"ab", 1: b"cd", 5: b"ef"})


class TestDecodeMatrixCache:
    """The decode-submatrix LRU and shared-instance satellites."""

    def test_repeated_missing_pattern_reuses_the_inversion(self):
        rs = ReedSolomon(4, 2)
        shards = rs.encode([bytes([i] * 8) for i in range(4)])
        available = {i: shards[i] for i in (1, 2, 3, 4)}  # shard 0 lost
        first = rs.decode(dict(available))
        assert len(rs._decode_matrices) == 1
        second = rs.decode(dict(available))
        assert second == first
        assert len(rs._decode_matrices) == 1

    def test_distinct_patterns_get_distinct_entries(self):
        rs = ReedSolomon(4, 2)
        shards = rs.encode([bytes([i] * 8) for i in range(4)])
        rs.decode({i: shards[i] for i in (1, 2, 3, 4)})
        rs.decode({i: shards[i] for i in (0, 2, 3, 5)})
        assert len(rs._decode_matrices) == 2

    def test_cache_is_bounded(self):
        from repro.erasure import reed_solomon as module

        rs = ReedSolomon(2, 14)
        shards = rs.encode([b"ab", b"cd"])
        patterns = 0
        for i in range(2, 16):
            for j in range(i + 1, 16):
                rs.decode({i: shards[i], j: shards[j]})
                patterns += 1
        assert patterns > module.DECODE_MATRIX_CACHE_SIZE / 2
        assert len(rs._decode_matrices) <= module.DECODE_MATRIX_CACHE_SIZE

    def test_cached_decode_still_correct_after_eviction_churn(self):
        rs = ReedSolomon(3, 3)
        payloads = [b"abcd", b"efgh", b"ijkl"]
        shards = rs.encode(payloads)
        for survivors in ((0, 1, 3), (1, 2, 4), (0, 2, 5), (3, 4, 5), (0, 1, 3)):
            decoded = rs.decode({i: shards[i] for i in survivors})
            assert decoded == payloads


class TestSharedInstances:
    def test_shared_returns_the_same_instance_per_geometry(self):
        assert ReedSolomon.shared(10, 2) is ReedSolomon.shared(10, 2)
        assert ReedSolomon.shared(10, 2) is not ReedSolomon.shared(10, 0)

    def test_codecs_share_the_stripe_code(self):
        from repro.erasure.codec import ErasureCodec

        assert ErasureCodec(4, 2).rs is ErasureCodec(4, 2).rs

"""Tests for matrix algebra over GF(2^8)."""

import itertools

import numpy as np
import pytest

from repro.erasure.galois import GF256
from repro.erasure.matrix import GFMatrix
from repro.exceptions import ErasureCodingError


class TestConstruction:
    def test_identity(self):
        identity = GFMatrix.identity(3)
        assert identity.rows == 3 and identity.cols == 3
        assert np.array_equal(identity.data, np.eye(3, dtype=np.uint8))

    def test_requires_2d(self):
        with pytest.raises(ErasureCodingError):
            GFMatrix(np.zeros(4, dtype=np.uint8))

    def test_vandermonde_entries(self):
        matrix = GFMatrix.vandermonde(4, 3)
        for r in range(4):
            for c in range(3):
                assert matrix.data[r, c] == GF256.power(r, c)

    def test_systematic_top_block_is_identity(self):
        matrix = GFMatrix.systematic_encoding_matrix(4, 2)
        assert np.array_equal(matrix.data[:4, :], np.eye(4, dtype=np.uint8))
        assert matrix.rows == 6 and matrix.cols == 4


class TestAlgebra:
    def test_multiply_identity(self):
        matrix = GFMatrix(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        product = matrix.multiply(GFMatrix.identity(2))
        assert product == matrix

    def test_multiply_shape_mismatch(self):
        a = GFMatrix(np.zeros((2, 3), dtype=np.uint8))
        b = GFMatrix(np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ErasureCodingError):
            a.multiply(b)

    def test_inverse_roundtrip(self):
        matrix = GFMatrix(np.array([[1, 2, 3], [4, 5, 6], [7, 8, 10]], dtype=np.uint8))
        inverse = matrix.inverse()
        assert matrix.multiply(inverse) == GFMatrix.identity(3)
        assert inverse.multiply(matrix) == GFMatrix.identity(3)

    def test_inverse_requires_square(self):
        with pytest.raises(ErasureCodingError):
            GFMatrix(np.zeros((2, 3), dtype=np.uint8)).inverse()

    def test_singular_matrix_rejected(self):
        singular = GFMatrix(np.array([[1, 2], [1, 2]], dtype=np.uint8))
        with pytest.raises(ErasureCodingError):
            singular.inverse()

    def test_submatrix_rows(self):
        matrix = GFMatrix(np.array([[1, 1], [2, 2], [3, 3]], dtype=np.uint8))
        sub = matrix.submatrix_rows([2, 0])
        assert np.array_equal(sub.data, np.array([[3, 3], [1, 1]], dtype=np.uint8))

    def test_multiply_shards_matches_multiply(self):
        matrix = GFMatrix.systematic_encoding_matrix(3, 2)
        shards = [bytes([1, 2, 3, 4]), bytes([5, 6, 7, 8]), bytes([9, 10, 11, 12])]
        out = matrix.multiply_shards(shards)
        assert len(out) == 5 and all(type(shard) is bytes for shard in out)
        # Systematic: first three outputs equal the inputs.
        assert out[:3] == shards
        as_matrix = GFMatrix(np.array([list(shard) for shard in shards], dtype=np.uint8))
        assert [list(shard) for shard in out] == matrix.multiply(as_matrix).data.tolist()

    def test_multiply_shards_computes_only_the_selected_rows(self):
        matrix = GFMatrix.systematic_encoding_matrix(3, 2)
        shards = [bytes([1, 2, 3, 4]), bytes([5, 6, 7, 8]), bytes([9, 10, 11, 12])]
        everything = matrix.multiply_shards(shards)
        assert matrix.multiply_shards(shards, [4, 1]) == [everything[4], everything[1]]
        assert matrix.multiply_shards(shards, []) == []

    def test_multiply_shards_shape_mismatch(self):
        matrix = GFMatrix.identity(3)
        with pytest.raises(ErasureCodingError):
            matrix.multiply_shards([bytes(5), bytes(5)])

    def test_multiply_shards_unequal_lengths(self):
        with pytest.raises(ErasureCodingError):
            GFMatrix.identity(2).multiply_shards([bytes(5), bytes(4)])


class TestMDSProperty:
    """Every d-row submatrix of the encoding matrix must be invertible —
    this is exactly what guarantees any-d-of-n reconstruction."""

    @pytest.mark.parametrize("data,parity", [(4, 2), (10, 2), (5, 1), (3, 3)])
    def test_all_square_submatrices_invertible(self, data, parity):
        matrix = GFMatrix.systematic_encoding_matrix(data, parity)
        total = data + parity
        # Exhaustive for small codes, sampled for the larger ones.
        combos = list(itertools.combinations(range(total), data))
        if len(combos) > 200:
            combos = combos[::7][:200]
        for rows in combos:
            sub = matrix.submatrix_rows(list(rows))
            inverse = sub.inverse()
            assert sub.multiply(inverse) == GFMatrix.identity(data)

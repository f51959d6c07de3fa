"""Tests for GF(2^8) arithmetic."""

import pytest

from repro.erasure.galois import GF256
from repro.exceptions import ErasureCodingError


class TestScalarArithmetic:
    def test_addition_is_xor(self):
        assert GF256.add(0b1010, 0b0110) == 0b1100

    def test_addition_self_inverse(self):
        for a in (0, 1, 77, 255):
            assert GF256.add(a, a) == 0

    def test_subtract_equals_add(self):
        # In characteristic 2 subtraction is addition: adding b twice undoes it.
        for a, b in ((200, 77), (0, 255), (13, 13)):
            assert GF256.add(GF256.add(a, b), b) == a

    def test_multiply_by_zero_and_one(self):
        for a in range(0, 256, 17):
            assert GF256.multiply(a, 0) == 0
            assert GF256.multiply(a, 1) == a

    def test_multiplication_commutative(self):
        for a, b in [(3, 7), (100, 200), (255, 2)]:
            assert GF256.multiply(a, b) == GF256.multiply(b, a)

    def test_multiplication_associative(self):
        a, b, c = 29, 113, 222
        left = GF256.multiply(GF256.multiply(a, b), c)
        right = GF256.multiply(a, GF256.multiply(b, c))
        assert left == right

    def test_distributivity(self):
        a, b, c = 54, 99, 180
        left = GF256.multiply(a, GF256.add(b, c))
        right = GF256.add(GF256.multiply(a, b), GF256.multiply(a, c))
        assert left == right

    def test_division_inverts_multiplication(self):
        for a, b in [(7, 13), (200, 99), (255, 254)]:
            product = GF256.multiply(a, b)
            assert GF256.divide(product, b) == a

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.divide(5, 0)

    def test_inverse(self):
        for a in range(1, 256):
            assert GF256.multiply(a, GF256.inverse(a)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inverse(0)

    def test_power(self):
        assert GF256.power(2, 0) == 1
        assert GF256.power(0, 5) == 0
        assert GF256.power(3, 2) == GF256.multiply(3, 3)
        assert GF256.power(7, 3) == GF256.multiply(7, GF256.multiply(7, 7))

    def test_field_is_closed(self):
        # Every product stays within [0, 255].
        for a in range(0, 256, 23):
            for b in range(0, 256, 31):
                assert 0 <= GF256.multiply(a, b) <= 255


class TestVectorArithmetic:
    """Vectors are ``bytes`` or read-only views of them; every bulk
    operation is :meth:`GF256.combine`."""

    def test_multiply_vector_matches_scalar(self):
        vector = bytes([0, 1, 55, 200, 255])
        scalar = 37
        result = GF256.multiply_vector(scalar, vector)
        assert type(result) is bytes
        assert list(result) == [GF256.multiply(scalar, v) for v in vector]

    def test_multiply_vector_by_zero(self):
        assert GF256.multiply_vector(0, bytes([1, 2, 3])) == bytes(3)

    def test_multiply_vector_by_one_is_unchanged(self):
        assert GF256.multiply_vector(1, bytes([9, 8, 7])) == bytes([9, 8, 7])

    def test_combine_with_unit_coefficients_is_xor(self):
        # Unit coefficients skip the table pass: the sum is a plain XOR.
        assert GF256.combine((1, 1), (bytes([1, 2, 3]), bytes([3, 2, 1]))) == bytes([2, 0, 2])

    def test_combine_matches_manual(self):
        accumulator, vector = bytes([5, 10, 15]), bytes([1, 2, 3])
        expected = [
            GF256.add(a, GF256.multiply(7, v)) for a, v in zip(accumulator, vector)
        ]
        assert list(GF256.combine((1, 7), (accumulator, vector))) == expected

    def test_combine_skips_zero_coefficients(self):
        assert GF256.combine((1, 0), (bytes([5, 10]), bytes([9, 9]))) == bytes([5, 10])
        assert GF256.combine((0, 0), (bytes([5, 10]), bytes([9, 9]))) == bytes(2)

    def test_combine_matches_scalar_for_every_coefficient(self):
        every_byte = bytes(range(256))
        for coefficient in range(256):
            assert list(GF256.multiply_vector(coefficient, every_byte)) == [
                GF256.multiply(coefficient, b) for b in every_byte
            ]

    def test_combine_rejects_unequal_lengths(self):
        # A one-byte vector must not be broadcast across the other.
        with pytest.raises(ErasureCodingError):
            GF256.combine((1, 1), (bytes(4), bytes(1)))

    def test_combine_rejects_count_mismatch_and_no_vectors(self):
        with pytest.raises(ErasureCodingError):
            GF256.combine((1,), (bytes(4), bytes(4)))
        with pytest.raises(ErasureCodingError):
            GF256.combine((), ())

    def test_exp_log_tables_consistent(self):
        # exp(log(a) + log(b)) == a*b for non-zero a, b.
        for a in (1, 2, 78, 255):
            for b in (1, 3, 90, 254):
                index = int(GF256.log_table[a]) + int(GF256.log_table[b])
                assert int(GF256.exp_table[index]) == GF256.multiply(a, b)

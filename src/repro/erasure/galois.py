"""GF(2^8) finite-field arithmetic.

Reed-Solomon coding works over a finite field; we use GF(2^8) with the
polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), the one ISA-L and the Go
``reedsolomon`` library the paper builds on use (AES uses 0x11B, a different
field).  Scalar multiplication and division go through exp/log tables.

Bulk work — shard payloads and the rows of coefficient matrices alike — is
done by one kernel, :meth:`GF256.combine`, on ``bytes`` or on read-only
``memoryview`` slices of them (the zero-copy data shards).  Each coefficient
times a vector is one pass of ``bytearray.translate`` through that
coefficient's 256-byte product table, over a copy of the vector staged in
one buffer reused for the whole call (a bare C table loop: about 2.4 GB/s,
copy included), and the products are XOR-ed together with numpy.  See the
"Erasure data path" section of ``docs/performance.md``, and its "Measured
and not taken" table for what was measured against it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional, Union

import numpy as np

from repro.exceptions import ErasureCodingError

#: The primitive polynomial for GF(2^8): x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLYNOMIAL = 0x11D

#: Field size.
FIELD_SIZE = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables for GF(2^8) using generator element 2."""
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLYNOMIAL
    # Duplicate the table so exp[a + b] works without a modulo for a, b < 255.
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    return exp, log


_EXP_TABLE, _LOG_TABLE = _build_tables()

#: 256x256 multiplication table; row r is "multiply every byte by r".
_MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
for _a in range(1, 256):
    _log_a = _LOG_TABLE[_a]
    _MUL_TABLE[_a, 1:] = _EXP_TABLE[_log_a + _LOG_TABLE[1:256]]

#: ``bytearray.translate`` tables: entry c maps every byte b to ``c * b``.
_PRODUCT_TABLES = tuple(row.tobytes() for row in _MUL_TABLE)

#: A byte vector the kernel reads: ``bytes``, or a read-only ``memoryview``
#: slice of one.
Vector = Union[bytes, memoryview]


class GF256:
    """Arithmetic over GF(2^8).

    All methods are static/class-level; the class exists purely as a
    namespace with precomputed tables.  Scalars are Python ints in [0, 255];
    vectors are :data:`Vector`; every vector returned is fresh ``bytes``.
    """

    exp_table = _EXP_TABLE
    log_table = _LOG_TABLE
    mul_table = _MUL_TABLE

    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (XOR)."""
        return (a ^ b) & 0xFF

    @staticmethod
    def multiply(a: int, b: int) -> int:
        """Field multiplication via log/exp tables."""
        if a == 0 or b == 0:
            return 0
        return int(_EXP_TABLE[_LOG_TABLE[a] + _LOG_TABLE[b]])

    @staticmethod
    def divide(a: int, b: int) -> int:
        """Field division ``a / b``.

        Raises:
            ZeroDivisionError: if ``b`` is zero.
        """
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^8)")
        if a == 0:
            return 0
        return int(_EXP_TABLE[(_LOG_TABLE[a] - _LOG_TABLE[b]) % 255])

    @staticmethod
    def power(a: int, n: int) -> int:
        """Field exponentiation ``a ** n`` (n >= 0)."""
        if n == 0:
            return 1
        if a == 0:
            return 0
        return int(_EXP_TABLE[(_LOG_TABLE[a] * n) % 255])

    @staticmethod
    def inverse(a: int) -> int:
        """Multiplicative inverse of ``a``.

        Raises:
            ZeroDivisionError: if ``a`` is zero (zero has no inverse).
        """
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse in GF(2^8)")
        return int(_EXP_TABLE[255 - _LOG_TABLE[a]])

    @staticmethod
    def multiply_vector(scalar: int, vector: Vector) -> bytes:
        """Multiply every byte of ``vector`` by ``scalar``."""
        return GF256.combine((scalar,), (vector,))

    @staticmethod
    def combine(coefficients: Sequence[int], vectors: Sequence[Vector]) -> bytes:
        """The linear combination ``sum(c * v)`` of equal-length byte vectors.

        This is the one bulk kernel: the encoder, the decoder and the matrix
        algebra all reduce to it.  Zero coefficients cost nothing and a
        coefficient of one skips the table pass and the copy: its vector is
        XOR-ed in straight from its buffer.

        Raises:
            ErasureCodingError: if the counts differ, no vector is given, or
                the vectors are not all the same length.
        """
        if not vectors or len(coefficients) != len(vectors):
            raise ErasureCodingError(
                f"cannot combine {len(vectors)} vectors with {len(coefficients)} coefficients"
            )
        length = len(vectors[0])
        buffer = bytearray(length)
        accumulator = np.frombuffer(buffer, dtype=np.uint8)
        staging: Optional[bytearray] = None
        for coefficient, vector in zip(coefficients, vectors):
            if len(vector) != length:
                # numpy would broadcast a one-byte vector silently.
                raise ErasureCodingError(
                    f"vectors must all have the same length, got {length} and {len(vector)}"
                )
            if coefficient == 0:
                continue
            product: Union[Vector, bytearray]
            if coefficient == 1:
                product = vector
            else:
                # A view has no translate, and bytes.translate also tracks
                # whether any byte changed: one memcpy into the staging
                # buffer buys bytearray.translate's bare table loop.
                if staging is None:
                    staging = bytearray(length)
                staging[:] = vector
                product = staging.translate(_PRODUCT_TABLES[coefficient])
            np.bitwise_xor(
                accumulator, np.frombuffer(product, dtype=np.uint8), out=accumulator
            )
        return bytes(buffer)

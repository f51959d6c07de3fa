"""Matrix algebra over GF(2^8).

The Reed-Solomon encoder needs a systematic ``(d + p) x d`` encoding matrix
whose every ``d x d`` submatrix is invertible; decoding needs to invert the
submatrix corresponding to whichever ``d`` chunks survived.  Both are
provided here on top of :class:`~repro.erasure.galois.GF256`.

The construction follows the standard approach used by production RS
libraries: build an extended Vandermonde matrix, then row-reduce it so the
top ``d`` rows form the identity (making the code systematic — data chunks
are stored verbatim, which lets the first-d fast path skip decoding when all
data chunks arrive).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.erasure.galois import GF256, Vector
from repro.exceptions import ErasureCodingError


class GFMatrix:
    """A dense matrix over GF(2^8), stored as a ``numpy.uint8`` array."""

    def __init__(self, data: np.ndarray):
        array = np.asarray(data, dtype=np.uint8)
        if array.ndim != 2:
            raise ErasureCodingError(f"GFMatrix requires a 2-D array, got shape {array.shape}")
        self.data = array

    # --- constructors ---------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "GFMatrix":
        """The n x n identity matrix."""
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def vandermonde(cls, rows: int, cols: int) -> "GFMatrix":
        """The ``rows x cols`` Vandermonde matrix with element (r, c) = r^c."""
        data = np.zeros((rows, cols), dtype=np.uint8)
        for r in range(rows):
            for c in range(cols):
                data[r, c] = GF256.power(r, c)
        return cls(data)

    @classmethod
    def systematic_encoding_matrix(cls, data_shards: int, parity_shards: int) -> "GFMatrix":
        """Build the systematic encoding matrix for ``RS(data + parity)``.

        The result has shape ``(data+parity) x data``: the top block is the
        identity (data chunks pass through unchanged) and the bottom block
        holds the parity coefficients.  Every square submatrix formed by any
        ``data`` rows is invertible, which is the property that makes any
        ``data`` surviving chunks sufficient for reconstruction.
        """
        total = data_shards + parity_shards
        vandermonde = cls.vandermonde(total, data_shards)
        # Row-reduce so the top d x d block becomes the identity.  Multiplying
        # by the inverse of the top block preserves the MDS property.
        top = vandermonde.submatrix_rows(list(range(data_shards)))
        top_inverse = top.inverse()
        return vandermonde.multiply(top_inverse)

    # --- shape and access ------------------------------------------------------
    @property
    def rows(self) -> int:
        """Number of rows."""
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        """Number of columns."""
        return self.data.shape[1]

    def submatrix_rows(self, row_indices: list[int]) -> "GFMatrix":
        """Return a new matrix containing only the selected rows, in order."""
        return GFMatrix(self.data[row_indices, :])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GFMatrix) and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        return f"GFMatrix(shape={self.data.shape})"

    # --- algebra ----------------------------------------------------------------
    def multiply_shards(
        self, shards: Sequence[Vector], rows: Optional[Sequence[int]] = None
    ) -> list[bytes]:
        """Apply the selected rows (default: all) to one shard per column.

        Output ``i`` is ``sum(self[rows[i], k] * shards[k])``.  This is the
        encoder/decoder hot path: it runs on the shards as they are (``bytes``
        or read-only views of them) and computes nothing for rows that were
        not asked for.
        """
        if len(shards) != self.cols:
            raise ErasureCodingError(
                f"matrix has {self.cols} columns but {len(shards)} shards were supplied"
            )
        selected = range(self.rows) if rows is None else rows
        return [GF256.combine(self.data[row].tolist(), shards) for row in selected]

    def multiply(self, other: "GFMatrix") -> "GFMatrix":
        """Matrix product ``self @ other`` over GF(2^8)."""
        if self.cols != other.rows:
            raise ErasureCodingError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        product = self.multiply_shards([row.tobytes() for row in other.data])
        return GFMatrix(np.array([list(row) for row in product], dtype=np.uint8))

    def inverse(self) -> "GFMatrix":
        """Invert a square matrix by Gauss-Jordan elimination over GF(2^8).

        Raises:
            ErasureCodingError: if the matrix is not square or is singular
                (which for a correctly built RS code can only happen if the
                caller selected duplicate rows).
        """
        if self.rows != self.cols:
            raise ErasureCodingError(
                f"only square matrices can be inverted, got {self.rows}x{self.cols}"
            )
        n = self.rows
        # Each row of [self | identity] is one byte string.
        work = [
            left.tobytes() + right.tobytes()
            for left, right in zip(self.data, np.eye(n, dtype=np.uint8))
        ]
        for col in range(n):
            # Find a pivot row with a non-zero entry in this column.
            pivot = next((row for row in range(col, n) if work[row][col]), None)
            if pivot is None:
                raise ErasureCodingError("matrix is singular and cannot be inverted")
            work[col], work[pivot] = work[pivot], work[col]
            # Normalise the pivot row so the pivot becomes 1.
            pivot_row = GF256.multiply_vector(GF256.inverse(work[col][col]), work[col])
            work[col] = pivot_row
            # Eliminate the column from every other row.
            for row in range(n):
                factor = work[row][col]
                if row != col and factor:
                    work[row] = GF256.combine((1, factor), (work[row], pivot_row))
        return GFMatrix(np.array([list(row[n:]) for row in work], dtype=np.uint8))

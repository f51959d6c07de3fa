"""Stripe-level Reed-Solomon encoder/decoder.

A *stripe* is a fixed set of equal-length shards: ``data_shards`` holding the
original bytes and ``parity_shards`` holding redundancy.  Any ``data_shards``
of the ``data_shards + parity_shards`` total are sufficient to reconstruct
everything — the MDS property the paper relies on to tolerate up to ``p``
reclaimed Lambda nodes per object.

The object-level concerns (padding, chunk identifiers, the ``(10+0)``
no-parity baseline) live in :mod:`repro.erasure.codec`; this module is pure
stripe math.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.erasure.galois import Vector
from repro.erasure.matrix import GFMatrix
from repro.exceptions import ConfigurationError, DecodingError, EncodingError

#: The largest shard counts we allow.  GF(2^8) Vandermonde-based systematic
#: codes are safe well beyond this, but the paper never exceeds 24 shards
#: (its "aggressive" example is RS(20+4)).
MAX_TOTAL_SHARDS = 256

#: Per-instance bound on cached recovery matrices.  There are at most
#: C(total, data) missing-shard patterns; in practice a handful recur
#: (reclamation takes out the same nodes for many objects), so a small LRU
#: captures nearly all repeat inversions.
DECODE_MATRIX_CACHE_SIZE = 128


class ReedSolomon:
    """A systematic Reed-Solomon code ``RS(data_shards + parity_shards)``.

    Instances are immutable and reusable across objects; the encoding matrix
    is computed once in the constructor.  ``parity_shards == 0`` is allowed
    and degenerates to plain striping (the paper's ``(10+0)`` baseline).
    """

    def __init__(self, data_shards: int, parity_shards: int):
        if data_shards < 1:
            raise ConfigurationError(f"data_shards must be >= 1, got {data_shards}")
        if parity_shards < 0:
            raise ConfigurationError(f"parity_shards must be >= 0, got {parity_shards}")
        total = data_shards + parity_shards
        if total > MAX_TOTAL_SHARDS:
            raise ConfigurationError(
                f"data_shards + parity_shards must be <= {MAX_TOTAL_SHARDS}, got {total}"
            )
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        self.total_shards = total
        if parity_shards > 0:
            self._matrix = GFMatrix.systematic_encoding_matrix(data_shards, parity_shards)
        else:
            self._matrix = GFMatrix.identity(data_shards)
        #: LRU of recovery matrices keyed by the surviving-shard pattern:
        #: row ``i`` regenerates shard ``i`` (data or parity) from those
        #: survivors.  Every request that lost the same shards reuses one
        #: GF(2^8) Gaussian elimination.
        self._decode_matrices: OrderedDict[tuple[int, ...], GFMatrix] = OrderedDict()

    def __repr__(self) -> str:
        return f"ReedSolomon(d={self.data_shards}, p={self.parity_shards})"

    # --- encoding ----------------------------------------------------------------
    def encode(self, data_shard_payloads: list[Vector]) -> list[Vector]:
        """Compute parity shards for the given data shards.

        Args:
            data_shard_payloads: exactly ``data_shards`` byte strings, all the
                same length.

        Returns:
            The full stripe: the original data shards (unchanged, the code is
            systematic) followed by ``parity_shards`` parity shards.
        """
        if len(data_shard_payloads) != self.data_shards:
            raise EncodingError(
                f"expected {self.data_shards} data shards, got {len(data_shard_payloads)}"
            )
        lengths = {len(shard) for shard in data_shard_payloads}
        if len(lengths) != 1:
            raise EncodingError(f"data shards must all have the same length, got {sorted(lengths)}")
        shard_len = lengths.pop()
        if shard_len == 0:
            raise EncodingError("data shards must be non-empty")
        parity = self._matrix.multiply_shards(
            data_shard_payloads, range(self.data_shards, self.total_shards)
        )
        return list(data_shard_payloads) + parity

    # --- decoding ----------------------------------------------------------------
    def decode(self, shards: dict[int, Vector]) -> list[Vector]:
        """Reconstruct all data shards from any ``data_shards`` available shards.

        Args:
            shards: mapping from shard index (0-based over the whole stripe)
                to its payload.  At least ``data_shards`` distinct entries are
                required; extra entries are ignored (the first ``data_shards``
                by index are used).

        Returns:
            The ``data_shards`` data payloads, in order.  Shards that were
            supplied are returned as they are (the same objects); only the
            missing ones are computed.

        Raises:
            DecodingError: if fewer than ``data_shards`` shards are available,
                indices are out of range, or payload lengths are inconsistent.
        """
        return self._recover(shards, range(self.data_shards))

    def reconstruct_all(self, shards: dict[int, Vector]) -> list[Vector]:
        """Reconstruct the *entire* stripe (data + parity) from any d shards.

        Used by the recovery path when a reclaimed Lambda node's chunk must be
        regenerated and re-inserted.  Like :meth:`decode`, it passes supplied
        shards through and computes only the absent ones.
        """
        return self._recover(shards, range(self.total_shards))

    def _recover(self, shards: dict[int, Vector], wanted: range) -> list[Vector]:
        """Shards ``wanted``, taken from ``shards`` or rebuilt from them."""
        if not shards:
            raise DecodingError("no shards supplied")
        for index in shards:
            if not 0 <= index < self.total_shards:
                raise DecodingError(
                    f"shard index {index} out of range for a {self.total_shards}-shard stripe"
                )
        if len(shards) < self.data_shards:
            raise DecodingError(
                f"need at least {self.data_shards} shards to decode, got {len(shards)}"
            )
        lengths = {len(payload) for payload in shards.values()}
        if len(lengths) != 1:
            raise DecodingError(f"shards must all have the same length, got {sorted(lengths)}")
        if lengths.pop() == 0:
            raise DecodingError("shards must be non-empty")

        absent = [i for i in wanted if i not in shards]
        if not absent:
            # The code is systematic: nothing wanted is missing, so no math.
            return [shards[i] for i in wanted]
        if self.parity_shards == 0:
            raise DecodingError(
                f"stripe has no parity and data shards {absent} are missing"
            )
        selected = sorted(shards)[: self.data_shards]
        rebuilt = self._recovery_matrix(tuple(selected)).multiply_shards(
            [shards[i] for i in selected], absent
        )
        recovered = {**shards, **dict(zip(absent, rebuilt))}
        return [recovered[i] for i in wanted]

    def _recovery_matrix(self, selected_indices: tuple[int, ...]) -> GFMatrix:
        """The matrix taking one surviving-shard pattern to the whole stripe (LRU).

        Its top ``data_shards`` rows are the inverted decode submatrix.
        """
        cached = self._decode_matrices.get(selected_indices)
        if cached is not None:
            self._decode_matrices.move_to_end(selected_indices)
            return cached
        inverse = self._matrix.submatrix_rows(list(selected_indices)).inverse()
        matrix = self._matrix.multiply(inverse)
        self._decode_matrices[selected_indices] = matrix
        if len(self._decode_matrices) > DECODE_MATRIX_CACHE_SIZE:
            self._decode_matrices.popitem(last=False)
        return matrix

    @classmethod
    def shared(cls, data_shards: int, parity_shards: int) -> "ReedSolomon":
        """A process-wide shared instance for ``(data_shards, parity_shards)``.

        Instances are stateless apart from their caches, so every codec with
        the same geometry can reuse one — sharing the encoding matrix *and*
        the decode-matrix LRU across all proxies, clients, and repair paths.
        """
        key = (data_shards, parity_shards)
        instance = _SHARED_CODES.get(key)
        if instance is None:
            instance = cls(data_shards, parity_shards)
            _SHARED_CODES[key] = instance
        return instance

    def verify(self, shards: list[Vector]) -> bool:
        """Check that a full stripe is internally consistent.

        Returns ``True`` when re-encoding the data shards reproduces the given
        parity shards exactly.
        """
        if len(shards) != self.total_shards:
            raise DecodingError(
                f"verify requires all {self.total_shards} shards, got {len(shards)}"
            )
        recomputed = self.encode(shards[: self.data_shards])
        return all(
            recomputed[i] == shards[i]
            for i in range(self.data_shards, self.total_shards)
        )


#: Registry behind :meth:`ReedSolomon.shared`; geometries are few (the paper
#: uses a handful of (d, p) pairs), so this never needs eviction.
_SHARED_CODES: dict[tuple[int, int], ReedSolomon] = {}

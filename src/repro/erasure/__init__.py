"""Reed-Solomon erasure coding, written from scratch on GF(2^8).

The paper's client library erasure-codes every object with a configurable
``RS(d + p)`` code (10+1 and 10+2 in most experiments) and reconstructs it
from the *first d* chunks that arrive.  This package provides the same
capability:

* :mod:`repro.erasure.galois` — GF(2^8) arithmetic and the one bulk kernel
  (``bytearray.translate`` product tables, numpy XOR) everything else runs on.
* :mod:`repro.erasure.matrix` — matrix algebra over GF(2^8), including the
  systematic Vandermonde-derived encoding matrix, Gaussian-elimination
  inversion, and applying chosen rows to a list of shards (``bytes`` or
  read-only views of them).
* :mod:`repro.erasure.reed_solomon` — the stripe-level encoder/decoder; it
  computes only the shards that are missing.
* :mod:`repro.erasure.codec` — the object-level codec (padding, chunk
  identifiers, first-d reconstruction) that the client library uses.

The special case ``p == 0`` mirrors the paper's ``(10+0)`` baseline: the
object is striped without parity and every chunk is required to decode.
"""

from repro.erasure.galois import GF256
from repro.erasure.matrix import GFMatrix
from repro.erasure.reed_solomon import ReedSolomon
from repro.erasure.codec import Chunk, ErasureCodec, StripeMetadata

__all__ = [
    "GF256",
    "GFMatrix",
    "ReedSolomon",
    "Chunk",
    "ErasureCodec",
    "StripeMetadata",
]

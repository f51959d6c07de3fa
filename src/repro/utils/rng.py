"""Deterministic random-number management.

Every stochastic component in the library (reclamation policies, workload
generators, chunk placement) takes an explicit seed or an explicit
:class:`SeededRNG` so that experiments are exactly reproducible.  Components
never reach for a global RNG.

``derive_seed`` produces independent child seeds from a parent seed and a
label, so a single experiment seed can deterministically fan out to many
sub-components without their streams being correlated.  ``sweep_seed`` is
the sub-seed of one sweep coordinate (an experiment's sweep point, a
scenario grid's cell), hashed with the same ``stable_hash`` the CH ring
places proxies with.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np


def stable_hash(value: str) -> int:
    """A process-independent 64-bit hash of a string."""
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def sweep_seed(name: str, seed: int, *parts: object) -> int:
    """A stable 31-bit sub-seed for one sweep coordinate of run ``name``.

    Derived from the name, the base seed and the coordinate parts, so two
    experiments (or two sweep points) never share an RNG stream by accident,
    and the stream is reproducible across platforms and Python versions.
    """
    token = f"{name}:{seed}:" + "/".join(str(part) for part in parts)
    return stable_hash(token) % (2 ** 31)


def derive_seed(parent_seed: int, *labels: str | int) -> int:
    """Derive a child seed from a parent seed and a sequence of labels.

    The derivation is a SHA-256 hash of the parent seed and labels, truncated
    to 63 bits, so child streams are statistically independent and stable
    across Python versions and processes.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(parent_seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


class SeededRNG:
    """A thin, explicit wrapper over :class:`numpy.random.Generator`.

    The wrapper exists for two reasons: (1) to make seed-plumbing explicit in
    signatures (``rng: SeededRNG``), and (2) to provide the handful of
    domain-specific draws (bounded Zipf, log-uniform) used by the workload
    generator and reclamation policies in one audited place.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def child(self, *labels: str | int) -> "SeededRNG":
        """Return an independent child RNG derived from this seed and labels."""
        return SeededRNG(derive_seed(self.seed, *labels))

    # --- pass-through draws --------------------------------------------------
    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return float(self._gen.random())

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high)."""
        return float(self._gen.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high) (numpy half-open convention)."""
        return int(self._gen.integers(low, high))

    def normal(self, mean: float, stddev: float) -> float:
        """One draw from a normal distribution."""
        return float(self._gen.normal(mean, stddev))

    def lognormal(self, mean: float, sigma: float) -> float:
        """One draw from a log-normal distribution."""
        return float(self._gen.lognormal(mean, sigma))

    def exponential(self, scale: float) -> float:
        """One draw from an exponential distribution with the given scale."""
        return float(self._gen.exponential(scale))

    def poisson(self, lam: float) -> int:
        """One draw from a Poisson distribution."""
        return int(self._gen.poisson(lam))

    def choice(self, options: Sequence, size: int | None = None, replace: bool = True):
        """Choose one element (``size=None``) or an array of elements."""
        result = self._gen.choice(len(options), size=size, replace=replace)
        if size is None:
            return options[int(result)]
        return [options[int(i)] for i in result]

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place."""
        self._gen.shuffle(items)

    def sample_without_replacement(self, population: int, k: int) -> list[int]:
        """Return ``k`` distinct indices drawn uniformly from ``range(population)``.

        Used for chunk placement: the client library picks ``n`` distinct
        Lambda nodes for the ``n`` chunks of one object.
        """
        if k > population:
            raise ValueError(f"cannot sample {k} items from a population of {population}")
        return [int(i) for i in self._gen.choice(population, size=k, replace=False)]

    # --- domain-specific draws ----------------------------------------------
    def bounded_zipf(self, n: int, exponent: float) -> int:
        """Draw a rank in ``[0, n)`` from a bounded Zipf distribution.

        Ranks are 0-indexed; rank 0 is the most popular.  Implemented via
        inverse-CDF over the normalised Zipf weights, cached per (n, exponent).
        """
        if n < 1:
            raise ValueError(f"bounded_zipf requires n >= 1, got {n}")
        if not math.isfinite(exponent) or exponent <= 0:
            # A NaN/inf exponent poisons the weights (all-NaN CDF), which
            # makes searchsorted silently return n — an out-of-range rank.
            raise ValueError(
                f"bounded_zipf requires a positive finite exponent, got {exponent}"
            )
        key = (n, round(exponent, 6))
        cdf = self._zipf_cdf_cache.get(key)
        if cdf is None:
            ranks = np.arange(1, n + 1, dtype=float)
            weights = ranks ** (-exponent)
            cdf = np.cumsum(weights / weights.sum())
            self._zipf_cdf_cache[key] = cdf
        u = self._gen.random()
        # The float cumsum can top out a few ulps below 1.0; a u drawn in
        # that sliver would index one past the last rank.
        return min(int(np.searchsorted(cdf, u, side="left")), n - 1)

    def log_uniform(self, low: float, high: float) -> float:
        """Draw from a log-uniform distribution over [low, high].

        Used to generate object sizes spanning many orders of magnitude, as in
        the IBM Docker-registry trace (Figure 1a).
        """
        if low <= 0 or high <= 0 or high < low:
            raise ValueError(f"log_uniform requires 0 < low <= high, got {low}, {high}")
        return float(np.exp(self._gen.uniform(np.log(low), np.log(high))))

    _gen: np.random.Generator  # built on the first draw
    _zipf_cdf_cache: dict  # populated lazily per instance

    def __post_init__(self):  # pragma: no cover - dataclass compatibility guard
        self._zipf_cdf_cache = {}

    def __getattr__(self, name):
        # Called only while the attribute is unset.  A ``Generator`` costs
        # about 2 KB, and many children (a proxy's ``retry`` stream, say)
        # never draw; the stream depends on the seed alone, so building it
        # on the first draw changes no value.
        if name == "_gen":
            value = np.random.default_rng(self.seed)
        elif name == "_zipf_cdf_cache":
            value = {}
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def __repr__(self) -> str:
        return f"SeededRNG(seed={self.seed})"

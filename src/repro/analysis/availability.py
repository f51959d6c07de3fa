"""Data-availability model (paper Section 4.3, Equations 1-3).

Setting: a pool of ``N`` Lambda nodes stores objects erasure-coded into
``n = d + p`` chunks placed on distinct nodes chosen uniformly at random.
During one observation interval the provider reclaims ``r`` nodes.  An object
is lost when at least ``m = p + 1`` of its chunks sat on reclaimed nodes.

* Equation 1 gives ``p_i``: the probability that exactly ``i`` of an object's
  chunks are on the ``r`` reclaimed nodes (a hypergeometric term).
* ``P(r) = sum_{i=m..n} p_i`` is the object-loss probability given ``r``
  reclaims (Equation 2's inner sum).
* Equation 2 averages ``P(r)`` over the distribution ``pd(r)`` of the number
  of reclaimed nodes per interval, which the paper estimates empirically
  (Figure 9).
* Equation 3 is the paper's simplification ``P(r) ≈ p_m``, valid because
  ``p_m / p_{m+1}`` is large for realistic parameters.

The model here computes both the exact and the simplified forms so the
reproduction can verify the approximation claim (e.g. ``p_3/p_4 = 18.8`` for
``N=400``, RS(10+2), ``r=12``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Mapping

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class AvailabilityModel:
    """Object-loss probability calculator for one InfiniCache deployment."""

    total_nodes: int
    data_shards: int
    parity_shards: int

    def __post_init__(self):
        if self.total_nodes < 1:
            raise ConfigurationError("total_nodes must be >= 1")
        if self.data_shards < 1 or self.parity_shards < 0:
            raise ConfigurationError("invalid erasure code")
        if self.total_chunks > self.total_nodes:
            raise ConfigurationError(
                "the erasure stripe cannot be wider than the node pool"
            )

    @property
    def total_chunks(self) -> int:
        """n = d + p chunks per object."""
        return self.data_shards + self.parity_shards

    @property
    def min_chunks_for_loss(self) -> int:
        """m = p + 1: the smallest number of lost chunks that loses the object."""
        return self.parity_shards + 1

    # ------------------------------------------------------------------ Equation 1
    def chunk_loss_probability(self, reclaimed: int, chunks_lost: int) -> float:
        """``p_i``: probability exactly ``chunks_lost`` chunks sit on reclaimed nodes.

        Hypergeometric: choose which ``i`` of the object's ``n`` chunk
        locations fall inside the ``r`` reclaimed nodes.
        """
        n = self.total_chunks
        big_n = self.total_nodes
        r = reclaimed
        i = chunks_lost
        if not 0 <= r <= big_n:
            raise ConfigurationError(f"reclaimed count must be in [0, {big_n}], got {r}")
        if not 0 <= i <= n:
            raise ConfigurationError(f"chunks_lost must be in [0, {n}], got {i}")
        if i > r or n - i > big_n - r:
            return 0.0
        return comb(r, i) * comb(big_n - r, n - i) / comb(big_n, n)

    # ------------------------------------------------------------------ Equation 2 (inner sum)
    def object_loss_probability_given_reclaims(self, reclaimed: int, exact: bool = True) -> float:
        """``P(r)``: probability an object is lost when ``reclaimed`` nodes go away.

        Args:
            reclaimed: number of nodes reclaimed in the interval.
            exact: if True sum all terms ``i = m..n`` (Equation 2); if False
                use the paper's ``P(r) ≈ p_m`` simplification (Equation 3).
        """
        m = self.min_chunks_for_loss
        if not exact:
            return self.chunk_loss_probability(reclaimed, m)
        return sum(
            self.chunk_loss_probability(reclaimed, i)
            for i in range(m, self.total_chunks + 1)
        )

    # ------------------------------------------------------------------ Equation 2/3 (outer sum)
    def object_loss_probability(
        self,
        reclaim_distribution: Mapping[int, float],
        exact: bool = True,
    ) -> float:
        """``P_l``: object-loss probability per interval, for a reclaim distribution.

        Args:
            reclaim_distribution: mapping ``r -> pd(r)``; probabilities are
                normalised internally so empirical histograms can be passed
                directly.
            exact: use the exact inner sum (True) or the ``p_m`` approximation.
        """
        if not reclaim_distribution:
            raise ConfigurationError("reclaim distribution must not be empty")
        total_weight = float(sum(reclaim_distribution.values()))
        if total_weight <= 0:
            raise ConfigurationError("reclaim distribution weights must sum to a positive value")
        loss = 0.0
        for reclaimed, weight in reclaim_distribution.items():
            if weight < 0:
                raise ConfigurationError("reclaim distribution weights must be non-negative")
            if reclaimed < self.min_chunks_for_loss:
                continue
            loss += (
                self.object_loss_probability_given_reclaims(int(reclaimed), exact=exact)
                * weight
                / total_weight
            )
        return loss

    # ------------------------------------------------------------------ convenience
    def availability(
        self, reclaim_distribution: Mapping[int, float], exact: bool = True
    ) -> float:
        """``P_a = 1 - P_l`` for one observation interval."""
        return 1.0 - self.object_loss_probability(reclaim_distribution, exact=exact)

    def availability_over(
        self,
        reclaim_distribution: Mapping[int, float],
        intervals: int,
        exact: bool = True,
    ) -> float:
        """Availability over ``intervals`` consecutive independent intervals.

        The paper quotes per-minute and per-hour availability; an hour is 60
        one-minute intervals, assuming the per-interval losses are
        independent (conservative, as the backup mechanism actually
        re-protects data between intervals).
        """
        if intervals < 1:
            raise ConfigurationError("intervals must be >= 1")
        per_interval = self.availability(reclaim_distribution, exact=exact)
        return per_interval ** intervals

    def approximation_ratio(self, reclaimed: int) -> float:
        """``p_m / p_{m+1}``: how dominant the first loss term is (paper: 18.8)."""
        m = self.min_chunks_for_loss
        numerator = self.chunk_loss_probability(reclaimed, m)
        denominator = self.chunk_loss_probability(reclaimed, m + 1)
        if denominator == 0.0:
            return float("inf")
        return numerator / denominator

    @staticmethod
    def poisson_reclaim_distribution(mean: float, max_r: int) -> dict[int, float]:
        """A Poisson ``pd(r)`` truncated at ``max_r`` (one of the paper's fits)."""
        if mean < 0:
            raise ConfigurationError("mean must be non-negative")
        from math import exp, factorial

        return {r: exp(-mean) * mean**r / factorial(r) for r in range(max_r + 1)}

    @staticmethod
    def zipf_reclaim_distribution(exponent: float, max_r: int) -> dict[int, float]:
        """A bounded Zipf ``pd(r)`` over ``r = 1..max_r`` (the other fit).

        ``r = 0`` receives no mass; callers combining it with a probability of
        "no reclaims this interval" can mix distributions explicitly.
        """
        if exponent <= 0:
            raise ConfigurationError("Zipf exponent must be positive")
        weights = {r: r ** (-exponent) for r in range(1, max_r + 1)}
        total = sum(weights.values())
        return {r: w / total for r, w in weights.items()}

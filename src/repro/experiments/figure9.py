"""Figure 9 — probability distribution of the number of functions reclaimed
per minute, under each warm-up strategy.

This is the histogram view of the Figure 8 data: for every one-minute
reclamation sweep, how many functions were reclaimed?  The paper observes a
Zipf-like distribution on some sampled days and a Poisson-like one on
others; those are exactly the two policy families of
:mod:`repro.faas.reclamation`, so the reproduction re-uses the Figure 8
simulation and bins its per-sweep counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import figure8
from repro.utils.report import format_table


@dataclass
class Figure9Result:
    """Per-minute reclaim-count distribution per warm-up strategy."""

    #: strategy label -> {reclaims per minute -> probability}
    distributions: dict[str, dict[int, float]] = field(default_factory=dict)

    def probability_of_at_least(self, label: str, threshold: int) -> float:
        """P[more than ``threshold`` reclaims in a minute] for one strategy."""
        distribution = self.distributions.get(label, {})
        return sum(p for count, p in distribution.items() if count >= threshold)


def distribution_from_counts(counts: list[int]) -> dict[int, float]:
    """Normalise a list of per-sweep reclaim counts into a probability mass function."""
    if not counts:
        return {}
    histogram: dict[int, float] = {}
    for count in counts:
        histogram[count] = histogram.get(count, 0.0) + 1.0
    total = float(len(counts))
    return {count: occurrences / total for count, occurrences in sorted(histogram.items())}


def run(figure8_result: figure8.Figure8Result) -> Figure9Result:
    """Bin a Figure 8 simulation's per-sweep counts into per-minute distributions."""
    result = Figure9Result()
    for label, counts in figure8_result.reclaims_per_sweep.items():
        result.distributions[label] = distribution_from_counts(counts)
    return result


def format_report(result: Figure9Result) -> str:
    """Render the Figure 9 reproduction (key probabilities per strategy)."""
    rows = []
    for label, distribution in result.distributions.items():
        p_zero = distribution.get(0, 0.0)
        p_ge_1 = result.probability_of_at_least(label, 1)
        p_ge_10 = result.probability_of_at_least(label, 10)
        mean = sum(count * p for count, p in distribution.items())
        rows.append([label, p_zero, p_ge_1, p_ge_10, mean])
    return format_table(
        ["strategy", "P[0/min]", "P[>=1/min]", "P[>=10/min]", "mean/min"],
        rows,
        title="Figure 9 — distribution of functions reclaimed per minute",
    )

"""Section 4.3 — analytical availability of the paper's case-study deployment.

Case study: 400 Lambda nodes, RS(10+2) (so n = 12 chunks, loss needs m = 3),
1-minute warm-up.  The paper derives:

* ``p_3 / p_4 = 18.8`` for ``r = 12`` simultaneous reclaims — justifying the
  ``P(r) ~= p_m`` simplification;
* a per-minute object-loss probability of 0.0039 % - 0.11 % (availability
  99.89 % - 99.9961 %) across the reclaim distributions observed over six
  months;
* a per-hour availability of 93.36 % - 99.76 %.

The reproduction evaluates the same model under a Poisson-fit and a Zipf-fit
reclaim distribution (the two families of Figure 9) and reports the same
quantities, both with the exact formula and the simplified one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.availability import AvailabilityModel
from repro.experiments.report import format_table

#: The case-study deployment: 400 nodes, RS(10+2).
TOTAL_NODES = 400
DATA_SHARDS = 10
PARITY_SHARDS = 2

#: The two reclaim-distribution fits of Figure 9, truncated at
#: :data:`MAX_RECLAIMS` simultaneous reclaims.
POISSON_MEAN = 0.6
ZIPF_EXPONENT = 2.2
MAX_RECLAIMS = 40


@dataclass
class AvailabilityResult:
    """Model outputs for each reclaim-distribution fit."""

    total_nodes: int
    data_shards: int
    parity_shards: int
    approximation_ratio_r12: float = 0.0
    #: fit label -> (per-minute loss, per-minute availability, per-hour availability)
    per_fit: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    #: fit label -> relative error of the simplified (Eq. 3) loss vs the exact one
    simplification_error: dict[str, float] = field(default_factory=dict)


def run() -> AvailabilityResult:
    """Evaluate the availability model for the paper's case study."""
    model = AvailabilityModel(
        total_nodes=TOTAL_NODES, data_shards=DATA_SHARDS, parity_shards=PARITY_SHARDS
    )
    result = AvailabilityResult(
        total_nodes=TOTAL_NODES, data_shards=DATA_SHARDS, parity_shards=PARITY_SHARDS
    )
    result.approximation_ratio_r12 = model.approximation_ratio(reclaimed=12)

    fits = {
        "Poisson fit (Oct/Dec/Jan)": AvailabilityModel.poisson_reclaim_distribution(
            POISSON_MEAN, MAX_RECLAIMS
        ),
        "Zipf fit (Aug/Sep/Nov)": AvailabilityModel.zipf_reclaim_distribution(
            ZIPF_EXPONENT, MAX_RECLAIMS
        ),
    }
    for label, distribution in fits.items():
        loss_exact = model.object_loss_probability(distribution, exact=True)
        loss_simple = model.object_loss_probability(distribution, exact=False)
        availability_minute = 1.0 - loss_exact
        availability_hour = model.availability_over(distribution, intervals=60)
        result.per_fit[label] = (loss_exact, availability_minute, availability_hour)
        if loss_exact > 0:
            result.simplification_error[label] = abs(loss_simple - loss_exact) / loss_exact
        else:
            result.simplification_error[label] = 0.0
    return result


def format_report(result: AvailabilityResult) -> str:
    """Render the availability analysis."""
    rows = []
    for label, (loss, avail_min, avail_hour) in result.per_fit.items():
        rows.append([label, f"{loss:.4%}", f"{avail_min:.4%}", f"{avail_hour:.2%}",
                     f"{result.simplification_error[label]:.2%}"])
    table = format_table(
        ["reclaim distribution", "P_loss / minute", "availability / minute",
         "availability / hour", "Eq.3 error"],
        rows,
        title=(
            f"Section 4.3 — availability of {result.total_nodes} nodes, "
            f"RS({result.data_shards}+{result.parity_shards})"
        ),
    )
    return table + f"\n\np_m/p_(m+1) at r=12: {result.approximation_ratio_r12:.1f} (paper: 18.8)"

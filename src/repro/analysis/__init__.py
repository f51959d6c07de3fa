"""Analytical models from Section 4.3 of the paper.

* :mod:`repro.analysis.availability` — the combinatorial object-loss model
  (Equations 1-3): given a pool of ``N`` Lambda nodes, an ``RS(d+p)`` code and
  a distribution of how many nodes are reclaimed per interval, what is the
  probability that an object becomes unrecoverable?
* :mod:`repro.analysis.cost_model` — the hourly cost model (Equations 4-6):
  serving + warm-up + backup cost as a function of request rate, pool size,
  function memory and the maintenance intervals; also the ElastiCache
  crossover analysis behind Figure 17.
"""

from repro.analysis.availability import AvailabilityModel
from repro.analysis.cost_model import CostModel, CostModelParams

__all__ = [
    "AvailabilityModel",
    "CostModel",
    "CostModelParams",
]

"""Synthetic IBM Docker-registry trace generator.

The original traces (Anwar et al., FAST'18) are not redistributable, so this
generator produces traces matched to the characteristics the InfiniCache
paper reports about them (Section 2.1, Figure 1, Table 1):

* object sizes span about nine orders of magnitude and >20 % of objects are
  larger than 10 MB (Figure 1(a));
* objects larger than 10 MB account for more than 95 % of the byte footprint
  (Figure 1(b));
* access counts are long-tailed: ~30 % of large objects are accessed 10+
  times, the hottest exceed 10^4 accesses (Figure 1(c));
* 37-46 % of large-object reuses happen within one hour (Figure 1(d));
* the Dallas deployment serves large objects at an average rate below 3 500
  GETs per hour, with visible burst periods (the request spikes around hours
  15-20 and 34-42 of the replay that drive Figure 14);
* the 50-hour all-object working set is roughly 1.2 TB and the large-object
  working set roughly 1.0 TB (Table 1).

Two named presets, ``dallas`` and ``london``, differ in catalogue size and
burstiness so the Figure 1 reproduction can plot two datacentres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.utils.rng import SeededRNG
from repro.utils.units import HOUR
from repro.workload.distributions import (
    ObjectSizeDistribution,
    ZipfPopularity,
    diurnal_rate_multiplier,
)
from repro.workload.trace import Trace


@dataclass(frozen=True)
class BurstWindow:
    """A period of elevated request rate within the trace."""

    start_hour: float
    end_hour: float
    multiplier: float

    def __post_init__(self):
        # Every NaN comparison is False, so the ordering checks alone would
        # wave NaN (and an endless window) through.
        if not all(map(math.isfinite, (self.start_hour, self.end_hour, self.multiplier))):
            raise ConfigurationError("burst window hours and multiplier must be finite")
        if self.end_hour <= self.start_hour:
            raise ConfigurationError("burst window must end after it starts")
        if self.multiplier < 1.0:
            raise ConfigurationError("burst multiplier must be >= 1")

    def active(self, hour: float) -> bool:
        """Whether the burst covers the given hour of the trace."""
        return self.start_hour <= hour < self.end_hour


@dataclass(frozen=True)
class RegistryTraceConfig:
    """Parameters of one synthesised registry deployment."""

    name: str = "dallas"
    duration_hours: float = 50.0
    catalogue_size: int = 12_000
    base_requests_per_hour: float = 3_654.0
    popularity_exponent: float = 0.95
    #: Probability that a request re-reads an object accessed in the last hour
    #: (drives Figure 1(d)'s 37-46 % short-term reuse).
    short_reuse_probability: float = 0.42
    size_distribution: ObjectSizeDistribution = field(default_factory=ObjectSizeDistribution)
    burst_windows: tuple[BurstWindow, ...] = (
        BurstWindow(start_hour=15.0, end_hour=20.0, multiplier=2.4),
        BurstWindow(start_hour=34.0, end_hour=42.0, multiplier=2.0),
    )
    seed: int = 17

    def __post_init__(self):
        if not (math.isfinite(self.duration_hours) and self.duration_hours > 0):
            raise ConfigurationError("duration must be finite and positive")
        if self.catalogue_size < 1:
            raise ConfigurationError("catalogue size must be >= 1")
        if not (math.isfinite(self.base_requests_per_hour) and self.base_requests_per_hour > 0):
            raise ConfigurationError("request rate must be finite and positive")
        if not (math.isfinite(self.popularity_exponent) and self.popularity_exponent > 0):
            raise ConfigurationError("popularity exponent must be finite and positive")
        if not 0.0 <= self.short_reuse_probability < 1.0:
            raise ConfigurationError("short_reuse_probability must be in [0, 1)")


#: Named presets for the two datacentres plotted in Figure 1.
PRESETS: dict[str, RegistryTraceConfig] = {
    "dallas": RegistryTraceConfig(name="dallas", seed=17),
    "london": RegistryTraceConfig(
        name="london",
        catalogue_size=9_000,
        base_requests_per_hour=2_400.0,
        popularity_exponent=1.05,
        short_reuse_probability=0.38,
        burst_windows=(BurstWindow(start_hour=10.0, end_hour=14.0, multiplier=2.0),),
        seed=23,
    ),
}


class DockerRegistryTraceGenerator:
    """Generates synthetic Docker-registry traces."""

    def __init__(self, config: RegistryTraceConfig | str = "dallas"):
        if isinstance(config, str):
            preset = PRESETS.get(config)
            if preset is None:
                raise ConfigurationError(
                    f"unknown preset {config!r}; available presets: {sorted(PRESETS)}"
                )
            config = preset
        self.config = config
        self.rng = SeededRNG(config.seed)

    # ------------------------------------------------------------------ catalogue
    def _build_catalogue(self) -> list[tuple[str, int]]:
        """Create the (key, size) catalogue the trace draws from."""
        sizes = self.config.size_distribution.sample_many(
            self.rng.child("sizes"), self.config.catalogue_size
        )
        return [
            (f"{self.config.name}/blob-{index:07d}", size)
            for index, size in enumerate(sizes)
        ]

    # ------------------------------------------------------------------ generation
    def generate(self) -> Trace:
        """Produce the full trace for the configured duration."""
        config = self.config
        catalogue = self._build_catalogue()
        popularity = ZipfPopularity(
            catalogue_size=len(catalogue), exponent=config.popularity_exponent
        )
        rng = self.rng.child("requests")
        reuse_rng = self.rng.child("reuse")

        trace = Trace(name=config.name)
        recently_accessed: list[int] = []
        timestamp = 0.0
        horizon = config.duration_hours * HOUR
        while timestamp < horizon:
            hour = timestamp / HOUR
            rate = config.base_requests_per_hour * diurnal_rate_multiplier(hour % 24.0)
            for window in config.burst_windows:
                if window.active(hour):
                    rate *= window.multiplier
            # Poisson arrivals at the current rate.
            inter_arrival = rng.exponential(HOUR / rate)
            timestamp += inter_arrival
            if timestamp >= horizon:
                break
            # Temporal locality: with some probability, re-read something hot
            # from the last hour instead of drawing from the global popularity.
            if recently_accessed and reuse_rng.random() < config.short_reuse_probability:
                rank = recently_accessed[
                    reuse_rng.integers(0, len(recently_accessed))
                ]
            else:
                rank = popularity.sample_rank(rng)
            key, size = catalogue[rank]
            trace.records.append(timestamp, "GET", key, size)
            recently_accessed.append(rank)
            # Keep the reuse window to roughly the last hour of requests.
            max_window = max(10, int(rate))
            if len(recently_accessed) > max_window:
                del recently_accessed[: len(recently_accessed) - max_window]
        return trace

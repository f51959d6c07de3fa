"""Price tables for the baseline services.

ElastiCache instance prices are the on-demand us-east-1 prices current at the
paper's writing (early 2020); the key figure the paper quotes is that a
``cache.r5.24xlarge`` (635.61 GB) deployment costs $518.40 over the 50-hour
replay, i.e. $10.368/hour, which the table below reproduces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.utils.units import GB


@dataclass(frozen=True)
class ElastiCacheInstanceType:
    """One ElastiCache (Redis) node type."""

    name: str
    memory_bytes: int
    hourly_price: float
    network_bandwidth_bps: float

    def __post_init__(self):
        if self.memory_bytes <= 0 or self.hourly_price < 0 or self.network_bandwidth_bps <= 0:
            raise ConfigurationError(f"invalid instance type parameters for {self.name}")


#: Instance types used in the paper's evaluation (Section 5.1 and 5.2).
#: Memory figures are the usable Redis memory AWS lists for each type.
ELASTICACHE_INSTANCES: dict[str, ElastiCacheInstanceType] = {
    "cache.r5.xlarge": ElastiCacheInstanceType(
        name="cache.r5.xlarge",
        memory_bytes=int(26.32 * GB),
        hourly_price=0.431,
        network_bandwidth_bps=int(1.25 * GB),  # "up to 10 Gbps"
    ),
    "cache.r5.8xlarge": ElastiCacheInstanceType(
        name="cache.r5.8xlarge",
        memory_bytes=int(209.55 * GB),
        hourly_price=3.456,
        network_bandwidth_bps=int(1.25 * GB),
    ),
    "cache.r5.24xlarge": ElastiCacheInstanceType(
        name="cache.r5.24xlarge",
        memory_bytes=int(635.61 * GB),
        hourly_price=10.368,
        network_bandwidth_bps=int(3.125 * GB),  # 25 Gbps
    ),
}


def elasticache_instance(name: str) -> ElastiCacheInstanceType:
    """Look up an instance type by name.

    Raises:
        ConfigurationError: for unknown instance names, listing the options.
    """
    instance = ELASTICACHE_INSTANCES.get(name)
    if instance is None:
        raise ConfigurationError(
            f"unknown ElastiCache instance type {name!r}; "
            f"known types: {sorted(ELASTICACHE_INSTANCES)}"
        )
    return instance


@dataclass(frozen=True)
class S3Pricing:
    """Object-store pricing (standard tier, early-2020 us-east-1)."""

    price_per_get: float = 0.0000004
    price_per_put: float = 0.000005

"""Declarative scenario specifications and grid expansion.

A scenario spec is a frozen, validated, picklable description of **one
simulation cell**: the arrival process, the popularity model, the object
sizes, the tenant mix, the optional resilience profile, and the optional
fault schedule.  The deployment a cell replays against is the executor's
constant, not a spec field: no grid varies it.  A :class:`ScenarioGrid` declares
axes over those fields and expands into concrete :class:`ScenarioCell`\\ s —
the cartesian product the :class:`~repro.scenarios.runner.ScenarioRunner`
fans out, serially or across processes.

Seeding contract: a cell's identity is its **coordinates** (sorted
``axis=label`` pairs), not its position in the expansion order, so adding
or re-ordering unrelated axis values never moves another cell's seed.  See
:meth:`ScenarioCell.key` and ``docs/scenarios.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Union

from repro.cache.config import ResilienceConfig
from repro.exceptions import ConfigurationError
from repro.faults.spec import FaultSchedule
from repro.utils.rng import SeededRNG
from repro.utils.units import MB
from repro.workload.arrivals import (
    ArrivalSpec,
    ClosedLoopArrivals,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.workload.distributions import ObjectSizeDistribution
from repro.workload.popularity import (
    FlashCrowd,
    PopularitySpec,
    ScanMix,
    StaticZipf,
    ZipfChurn,
)

__all__ = [
    "FixedObjectSize",
    "SizeSpec",
    "TenantShare",
    "ScenarioSpec",
    "Axis",
    "ScenarioCell",
    "ScenarioGrid",
]


# ------------------------------------------------------------------ object sizes
@dataclass(frozen=True)
class FixedObjectSize:
    """Every object has the same size (microbenchmark-style cells)."""

    size_bytes: int = 1 * MB

    def __post_init__(self):
        if self.size_bytes < 1:
            raise ConfigurationError("object size must be positive")

    def sample(self, rng: SeededRNG) -> int:
        return self.size_bytes


#: What a scenario may declare for object sizes: a fixed size or the
#: Figure-1 mixture distribution (scenario cells use small-ranged variants).
SizeSpec = Union[FixedObjectSize, ObjectSizeDistribution]


# ------------------------------------------------------------------ tenants
@dataclass(frozen=True)
class TenantShare:
    """One tenant of a workload scenario: traffic share and catalogue."""

    tenant_id: str = "default"
    #: Relative share of the request stream this tenant receives.
    weight: float = 1.0
    #: Distinct objects in this tenant's catalogue (plus whatever extra
    #: objects the popularity process introduces, e.g. a flash set).
    catalogue_size: int = 48

    def __post_init__(self):
        if not self.tenant_id:
            raise ConfigurationError("tenant_id must be non-empty")
        if "/" in self.tenant_id:
            raise ConfigurationError("tenant_id must not contain '/'")
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise ConfigurationError("tenant weight must be positive and finite")
        if self.catalogue_size < 1:
            raise ConfigurationError("catalogue size must be >= 1")


# ------------------------------------------------------------------ workload scenario
@dataclass(frozen=True)
class ScenarioSpec:
    """One single-deployment workload scenario cell, fully declarative."""

    arrival: ArrivalSpec = field(default_factory=PoissonArrivals)
    popularity: PopularitySpec = field(default_factory=StaticZipf)
    object_size: SizeSpec = field(default_factory=FixedObjectSize)
    tenants: tuple[TenantShare, ...] = (TenantShare(),)
    resilience: Optional[ResilienceConfig] = None
    faults: Optional[FaultSchedule] = None

    def __post_init__(self):
        if not self.tenants:
            raise ConfigurationError("a scenario needs at least one tenant")
        ids = [tenant.tenant_id for tenant in self.tenants]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate tenant ids: {ids}")
        allowed_arrivals = (
            ClosedLoopArrivals, PoissonArrivals, MMPPArrivals, DiurnalArrivals,
        )
        if not isinstance(self.arrival, allowed_arrivals):
            raise ConfigurationError(
                f"unsupported arrival process {type(self.arrival).__name__}"
            )
        allowed_popularity = (StaticZipf, ZipfChurn, FlashCrowd, ScanMix)
        if not isinstance(self.popularity, allowed_popularity):
            raise ConfigurationError(
                f"unsupported popularity process {type(self.popularity).__name__}"
            )
        if not isinstance(self.object_size, (FixedObjectSize, ObjectSizeDistribution)):
            raise ConfigurationError(
                f"unsupported size spec {type(self.object_size).__name__}"
            )
        if self.popularity.time_dependent and isinstance(
            self.arrival, ClosedLoopArrivals
        ):
            raise ConfigurationError(
                f"{type(self.popularity).__name__} evolves with virtual time "
                "and needs timestamped (open-loop) arrivals"
            )


# ------------------------------------------------------------------ grid expansion
@dataclass(frozen=True)
class Axis:
    """One grid axis: labelled values substituted into a spec field.

    ``values`` are ``(label, value)`` pairs; the label names the coordinate
    in reports, JSON summaries, and the cell's seed-derivation key, so it
    must be unique within the axis and stable across code changes.
    """

    name: str
    values: tuple[tuple[str, object], ...]
    #: The spec field the value replaces; defaults to the axis name.
    spec_field: str = ""

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("axis name must be non-empty")
        if any(ch in self.name for ch in "=,"):
            raise ConfigurationError("axis name must not contain '=' or ','")
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} needs at least one value")
        labels = [label for label, _value in self.values]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"axis {self.name!r} has duplicate labels")
        for label in labels:
            if not label or any(ch in label for ch in "=,"):
                raise ConfigurationError(
                    f"axis {self.name!r} label {label!r} must be non-empty and "
                    "free of '=' and ','"
                )
        if not self.spec_field:
            object.__setattr__(self, "spec_field", self.name)


@dataclass(frozen=True)
class ScenarioCell:
    """One concrete cell of an expanded grid."""

    index: int
    #: ``(axis name, value label)`` in the grid's axis order.
    coords: tuple[tuple[str, str], ...]
    spec: ScenarioSpec

    def key(self) -> str:
        """Canonical coordinate key, independent of axis declaration order.

        This string — not :attr:`index` — feeds seed derivation, so
        re-ordering axes (or the values of unrelated axes) never changes an
        existing cell's replication seeds.
        """
        return ",".join(
            f"{name}={label}" for name, label in sorted(self.coords)
        )

    def label(self) -> str:
        """Human-facing cell label in declaration order."""
        return "/".join(label for _name, label in self.coords) or "(base)"


@dataclass(frozen=True)
class ScenarioGrid:
    """A named grid: a base spec plus axes of labelled substitutions."""

    name: str
    base: ScenarioSpec
    axes: tuple[Axis, ...] = ()
    #: Independent replications per cell (each gets its own child seed).
    replications: int = 2
    #: Data-collector names (see :mod:`repro.scenarios.collectors`).
    collectors: tuple[str, ...] = ("requests", "latency", "cost", "throughput")
    description: str = ""
    #: The cartesian product of the axes, in deterministic order: the
    #: **last** axis varies fastest (odometer order over the declared axes),
    #: and each cell's spec is the base with every axis value substituted
    #: via :func:`dataclasses.replace`.  Built, and so validated, once at
    #: declaration.
    cells: tuple[ScenarioCell, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("grid name must be non-empty")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate axis names: {names}")
        spec_fields = {f.name for f in fields(type(self.base))}
        for axis in self.axes:
            if axis.spec_field not in spec_fields:
                raise ConfigurationError(
                    f"axis {axis.name!r} targets unknown spec field "
                    f"{axis.spec_field!r} on {type(self.base).__name__}"
                )
        if not self.collectors:
            raise ConfigurationError("a grid needs at least one collector")
        # Fail at declaration time, not mid-run: every cell must validate.
        cells: list[tuple[tuple[tuple[str, str], ...], ScenarioSpec]] = [((), self.base)]
        for axis in self.axes:
            cells = [
                (coords + ((axis.name, label),), replace(spec, **{axis.spec_field: value}))
                for coords, spec in cells
                for label, value in axis.values
            ]
        object.__setattr__(self, "cells", tuple(
            ScenarioCell(index=index, coords=coords, spec=spec)
            for index, (coords, spec) in enumerate(cells)
        ))

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @property
    def run_count(self) -> int:
        """Total simulations one full run executes."""
        return len(self.cells) * self.replications

"""Every experiment, declared once.

:data:`EXPERIMENTS` holds one :class:`Experiment` per figure / table: how
to run it, how to render it, the experiment whose result it merely
projects (``production`` for Figures 13-16 and Table 1, ``figure8`` for
Figure 9), and one keyword set per *scale* it supports.  :func:`build` is
the only way the runner, the golden suite and the shape tests obtain a
result, so the parameters of a scale are written down here and nowhere else:

* ``golden`` — a few seconds; pinned per experiment by ``tests/golden/*.json``.
* ``quick``  — what ``python -m repro`` publishes; minutes for the whole suite.
* ``report`` — the scale the paper's qualitative shapes are asserted at
  (``tests/test_experiments.py``) and whose report texts are pinned by
  ``tests/golden/report_scale.json``.  The same object as ``quick`` where
  the shapes already hold there; Figure 8's do not (at 150 functions a
  1-minute regime's peak hour reaches 0.4 of the fleet).
* ``paper``  — the paper's own parameters (hours of CPU; never run by CI).

Paper settings are module constants; ``run()`` takes what a scale (or, for
``cluster_scale``, another caller) varies, plus ``seed``.

A projection has the scales of its source.  The two sources memoise their
own ``run`` (``production._run_cached``, ``figure8._run_cached``), so a
source is simulated once per scale per process whichever experiment asks
first, and nothing here holds a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.exceptions import ConfigurationError
from repro.experiments import (
    autoscale_policies,
    availability,
    chaos_availability,
    cluster_scale,
    figure1,
    figure4,
    figure8,
    figure9,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    production,
    table1,
)
from repro.experiments.production import ProductionScale
from repro.utils.units import MB

__all__ = ["EXPERIMENTS", "Experiment", "build", "names", "scales"]


@dataclass(frozen=True)
class Experiment:
    """One declared experiment."""

    run: Callable[..., object]
    #: ``None`` for a source that is only ever projected (``production``).
    format_report: Callable[..., str] | None = None
    #: Experiment whose result ``run`` takes as its only argument.
    source: str | None = None
    #: Scale name -> keyword arguments of ``run`` (empty for a projection).
    scales: Mapping[str, Mapping[str, object]] = field(default_factory=dict)


def _projection(module) -> Experiment:
    return Experiment(module.from_production, module.format_report, source="production")


_PRODUCTION_QUICK = {"scale": ProductionScale()}
_ANALYTIC = dict.fromkeys(("golden", "quick", "report", "paper"), {})

#: Declaration order is the order ``python -m repro`` runs them in.
EXPERIMENTS: dict[str, Experiment] = {
    "figure1": Experiment(figure1.run, figure1.format_report, scales={
        "golden": {"duration_hours": 2.0, "datacenters": ("dallas",)},
        "quick": {"duration_hours": 12.0},
        "report": {"duration_hours": 24.0},
        "paper": {},
    }),
    "figure4": Experiment(figure4.run, figure4.format_report, scales={
        "golden": {"pool_sizes": (20, 60), "requests_per_pool": 6},
        "quick": {"pool_sizes": (20, 60, 120, 200), "requests_per_pool": 20},
        "report": {"pool_sizes": (20, 50, 100, 150, 200), "requests_per_pool": 25},
        "paper": {},
    }),
    "figure8": Experiment(figure8.run, figure8.format_report, scales={
        "golden": {
            "fleet_size": 40, "hours": 6,
            "strategies": (figure8.DEFAULT_STRATEGIES[0], figure8.DEFAULT_STRATEGIES[4]),
        },
        "quick": {"fleet_size": 150, "hours": 24},
        "report": {"fleet_size": 300, "hours": 24},
        "paper": {"fleet_size": 400},
    }),
    "figure9": Experiment(figure9.run, figure9.format_report, source="figure8"),
    "figure11": Experiment(figure11.run, figure11.format_report, scales={
        "golden": {
            "lambda_memories_mib": (256, 1024),
            "rs_codes": ((10, 1), (4, 2)),
            "object_sizes": (10 * MB,),
            "requests_per_cell": 4,
        },
        "quick": {
            "lambda_memories_mib": (256, 1024, 3008),
            "object_sizes": (10 * MB, 100 * MB),
            "requests_per_cell": 10,
        },
        "report": {
            "lambda_memories_mib": (256, 512, 1024, 2048, 3008),
            "rs_codes": ((10, 0), (10, 1), (10, 2), (10, 4), (4, 2), (5, 1)),
            "object_sizes": (10 * MB, 40 * MB, 100 * MB),
            "requests_per_cell": 12,
        },
        "paper": {},
    }),
    "figure12": Experiment(figure12.run, figure12.format_report, scales={
        "golden": {"client_counts": (1, 2), "requests_per_client": 4},
        "quick": {"client_counts": (1, 2, 4, 8, 10), "requests_per_client": 12},
        "report": {"client_counts": (1, 2, 4, 6, 8, 10), "requests_per_client": 15},
        "paper": {},
    }),
    "production": Experiment(production.run, scales={
        "golden": {"scale": ProductionScale.quick()},
        "quick": _PRODUCTION_QUICK,
        "report": _PRODUCTION_QUICK,
        "paper": {"scale": ProductionScale.paper()},
    }),
    "figure13": _projection(figure13),
    "figure14": _projection(figure14),
    "figure15": _projection(figure15),
    "figure16": _projection(figure16),
    "table1": _projection(table1),
    "figure17": Experiment(figure17.run, figure17.format_report, scales=_ANALYTIC),
    "availability": Experiment(
        availability.run, availability.format_report, scales=_ANALYTIC
    ),
    "chaos_availability": Experiment(
        chaos_availability.run, chaos_availability.format_report, scales={
            "golden": {"clients": 3, "rounds": 40},
            "quick": {"clients": 5, "rounds": 50},
        },
    ),
    "cluster_scale": Experiment(cluster_scale.run, cluster_scale.format_report, scales={
        "golden": {"tenants": cluster_scale.default_tenants(40), "duration_s": 90.0},
        "quick": {"duration_s": 300.0},
    }),
    "autoscale_policies": Experiment(
        autoscale_policies.run, autoscale_policies.format_report, scales={
            "golden": {"duration_s": 120.0},
            "quick": {"duration_s": 240.0},
        },
    ),
}


def names() -> list[str]:
    """The rendered experiments, in declaration order."""
    return [name for name, e in EXPERIMENTS.items() if e.format_report is not None]


def scales(name: str) -> list[str]:
    """The scales experiment ``name`` can be built at (those of its source)."""
    if name not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        )
    experiment = EXPERIMENTS[name]
    return scales(experiment.source) if experiment.source else list(experiment.scales)


def build(name: str, scale: str) -> object:
    """Run experiment ``name`` at ``scale`` and return its result object."""
    if scale not in scales(name):
        raise ConfigurationError(
            f"experiment {name!r} declares no {scale!r} scale; it has {scales(name)}"
        )
    experiment = EXPERIMENTS[name]
    if experiment.source:
        return experiment.run(build(experiment.source, scale))
    return experiment.run(**experiment.scales[scale])

"""Shared experiment harness: seeding, fingerprints, labelled metrics.

Every figure/table reproduction that drives the cache goes through one
:class:`ExperimentHarness` (constructed by the experiment's ``run()``, or
handed in by the runner).  Experiments build their deployments and the
drivers of :mod:`repro.workload.replay` themselves; the harness owns what
would otherwise be re-implemented per experiment:

* **seeding** — :meth:`seed_for` derives stable sub-seeds from the
  experiment name and the sweep coordinates, so two experiments (or two
  sweep points) never share an RNG stream by accident;
* **report fingerprinting** — every driver run is recorded under a label,
  and :meth:`fingerprint` folds the per-run digests into one
  experiment-level digest.  The golden differential-replay suite
  (``tests/test_golden_figures.py``) pins these values; regenerate with
  ``pytest tests/test_golden_figures.py --update-golden``.
"""

from __future__ import annotations

import hashlib
from typing import ClassVar, Optional

from repro.obs.metrics import MetricRegistry
from repro.utils.rng import sweep_seed
from repro.workload.replay import ConcurrentReplayReport


class ExperimentHarness:
    """Owns seeding, fingerprinting, and the metrics registry for one run."""

    #: Shared registry new harnesses adopt when none is passed explicitly.
    #: The experiment runner installs one here (and removes it afterwards)
    #: so the harnesses that experiments construct internally still publish
    #: their labelled telemetry to the run's ``--metrics`` export.
    default_metrics: ClassVar[Optional[MetricRegistry]] = None

    def __init__(self, experiment: str, seed: int,
                 metrics: Optional[MetricRegistry] = None):
        self.experiment = experiment
        self.seed = seed
        self._fingerprints: dict[str, str] = {}
        self.metrics = (
            metrics
            if metrics is not None
            else (ExperimentHarness.default_metrics or MetricRegistry())
        )

    # ------------------------------------------------------------------ seeding
    def seed_for(self, *parts: object) -> int:
        """A stable sub-seed for one sweep coordinate of this experiment
        (:func:`repro.utils.rng.sweep_seed`)."""
        return sweep_seed(self.experiment, self.seed, *parts)

    # ------------------------------------------------------------------ fingerprints
    def record(self, label: str, report: ConcurrentReplayReport) -> ConcurrentReplayReport:
        """Register one driver run's fingerprint under ``label``.

        Also folds the run's headline numbers into :attr:`metrics` as
        labelled instruments (``{experiment=...,run=...}``), which is what
        ``repro --metrics PATH`` exports in Prometheus text format.
        """
        self._fingerprints[label] = report.fingerprint()
        labels = {"experiment": self.experiment, "run": label}
        metrics = self.metrics
        metrics.counter("experiment_requests", labels).increment(report.requests)
        metrics.counter("experiment_hits", labels).increment(report.hits)
        metrics.counter("experiment_misses", labels).increment(report.misses)
        metrics.counter("experiment_resets", labels).increment(report.resets)
        metrics.gauge("experiment_duration_seconds", labels).set(report.duration_s)
        metrics.gauge("experiment_total_cost_dollars", labels).set(report.total_cost)
        metrics.gauge("experiment_hit_ratio", labels).set(report.hit_ratio)
        return report

    @property
    def fingerprints(self) -> dict[str, str]:
        """Per-run fingerprints recorded so far (label -> digest)."""
        return dict(self._fingerprints)

    def fingerprint(self) -> str:
        """One experiment-level digest folding every recorded run in label order."""
        hasher = hashlib.sha256()
        for label in sorted(self._fingerprints):
            hasher.update(f"{label}={self._fingerprints[label]}\n".encode())
        return hasher.hexdigest()

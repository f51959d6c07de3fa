"""Shared experiment harness: seeding, driver construction, fingerprints.

Every figure/table reproduction that drives the cache goes through one
:class:`ExperimentHarness` (constructed by the experiment's ``run()``, or
handed in by the runner).  The harness owns the three things that used to
be re-implemented per experiment:

* **seeding** — :meth:`seed_for` derives stable sub-seeds from the
  experiment name and the sweep coordinates, so two experiments (or two
  sweep points) never share an RNG stream by accident;
* **driver construction** — deployments and the closed-/open-loop drivers
  of :mod:`repro.workload.replay` are built here, so scale parameters and
  driver options stay in one place;
* **report fingerprinting** — every driver run is recorded under a label,
  and :meth:`fingerprint` folds the per-run digests into one
  experiment-level digest.  The golden differential-replay suite
  (``tests/test_golden_figures.py``) pins these values; regenerate with
  ``pytest tests/test_golden_figures.py --update-golden``.
"""

from __future__ import annotations

import hashlib
from typing import ClassVar, Optional

from repro.baselines.s3 import ObjectStore
from repro.cache.config import InfiniCacheConfig
from repro.cache.consistent_hash import stable_hash
from repro.cache.deployment import InfiniCacheDeployment
from repro.faas.reclamation import ReclamationPolicy
from repro.obs.metrics import MetricRegistry
from repro.workload.replay import (
    ClosedLoopDriver,
    ConcurrentReplayReport,
    OpenLoopBaselineDriver,
    OpenLoopDriver,
)


class ExperimentHarness:
    """Owns seeding, driver construction, and fingerprinting for one run."""

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
        """A stable sub-seed for one sweep coordinate.

        Derived from the experiment name, the base seed, and the coordinate
        parts via the same process-independent hash the CH ring uses, so the
        stream is reproducible across platforms and Python versions.
        """
        token = f"{self.experiment}:{self.seed}:" + "/".join(str(part) for part in parts)
        return stable_hash(token) % (2 ** 31)

    # ------------------------------------------------------------------ construction
    def deployment(
        self,
        config: InfiniCacheConfig,
        reclamation_policy: Optional[ReclamationPolicy] = None,
    ) -> InfiniCacheDeployment:
        """Build a deployment for one sweep point."""
        return InfiniCacheDeployment(config, reclamation_policy=reclamation_policy)

    def closed_loop(
        self,
        deployment: InfiniCacheDeployment,
        backing_store: Optional[ObjectStore] = None,
        insert_on_miss: bool = True,
        warm_pool: bool = False,
    ) -> ClosedLoopDriver:
        """A closed-loop (N concurrent clients) driver over ``deployment``."""
        return ClosedLoopDriver(
            deployment, backing_store=backing_store,
            insert_on_miss=insert_on_miss, warm_pool=warm_pool,
        )

    def open_loop(
        self,
        deployment: InfiniCacheDeployment,
        backing_store: Optional[ObjectStore] = None,
        insert_on_miss: bool = True,
        warm_pool: bool = False,
    ) -> OpenLoopDriver:
        """An open-loop (arrival-timestamped) driver over ``deployment``."""
        return OpenLoopDriver(
            deployment, backing_store=backing_store,
            insert_on_miss=insert_on_miss, warm_pool=warm_pool,
        )

    def baseline_open_loop(
        self,
        target,
        backing_store: Optional[ObjectStore] = None,
        insert_on_miss: bool = True,
    ) -> OpenLoopBaselineDriver:
        """An open-loop driver over a baseline system (ElastiCache / S3)."""
        return OpenLoopBaselineDriver(
            target, backing_store=backing_store, insert_on_miss=insert_on_miss
        )

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

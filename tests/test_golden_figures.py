"""Golden differential-replay tests for every figure/table experiment.

Each test builds one registered experiment at the registry's ``golden``
scale (``build(name, "golden")``) with fixed seeds and pins, in a JSON file
under ``tests/golden/``:

* the per-run driver ``fingerprint()`` digests, where the experiment
  replays through the event-driven drivers (the differential-replay pin:
  any change to the request path, the flow arbiter, the billing clock, or
  the drivers that alters a single request or transfer interval flips it);
* a sha256 digest of the rendered report text (pins the projection and
  formatting layers); and
* a handful of headline numbers, so a drift diff says *what* moved.

When a change is intentional, regenerate the goldens and commit them:

    PYTHONPATH=src python -m pytest tests/test_golden_figures.py --update-golden

The ``figures-smoke`` CI job runs this suite on every PR and uploads the
regenerated fingerprint report as an artifact.
"""

from __future__ import annotations

import hashlib
import pathlib

import pytest

from repro.experiments.registry import EXPERIMENTS, build, names
from repro.utils.units import MB

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _drop_nan(values: dict) -> dict:
    # NaN (an empty size bucket) is dropped: NaN != NaN would make a freshly
    # regenerated golden fail forever.
    return {k: v for k, v in values.items() if v == v}


#: experiment -> the handful of headline numbers its golden file carries.
HEADLINES = {
    "figure1": lambda results: {
        "large_object_fraction": results["dallas"].large_object_fraction,
        "large_byte_fraction": results["dallas"].large_byte_fraction,
        "reuse_within_hour_fraction": results["dallas"].reuse_within_hour_fraction,
    },
    "figure4": lambda result: {
        "host_counts": sorted(result.latency_by_hosts),
        "samples": sum(len(v) for v in result.latency_by_hosts.values()),
    },
    "figure8": lambda result: {"total_reclaims": result.total_reclaims},
    "figure9": lambda result: {
        label: result.probability_of_at_least(label, 1) for label in result.distributions
    },
    "figure11": lambda result: {
        "median_1024_10+1_10MB": result.median(1024, (10, 1), 10 * MB),
        "median_256_4+2_10MB": result.median(256, (4, 2), 10 * MB),
    },
    "figure12": lambda result: {
        str(clients): bps for clients, bps in result.throughput_bps.items()
    },
    "production": lambda results: {
        "infinicache_all_hit_ratio": results.infinicache_all.hit_ratio,
        "infinicache_all_resets": results.infinicache_all.resets,
        "elasticache_all_hit_ratio": results.elasticache_all.hit_ratio,
        "s3_requests": results.s3_all.requests,
    },
    "figure13": lambda result: result.total_costs,
    "figure14": lambda result: {
        label: list(totals) for label, totals in result.totals.items()
    },
    "figure15": lambda result: {
        "large_speedup_100x_fraction": result.large_speedup_100x_fraction,
    },
    "figure16": lambda result: _drop_nan(result.normalized_median["InfiniCache"]),
    "table1": lambda result: {
        workload: _drop_nan(row) for workload, row in result.rows.items()
    },
    "figure17": lambda result: {
        "crossover_rate": result.crossover_rate,
        "elasticache_hourly": result.elasticache_hourly,
    },
    "availability": lambda result: {
        "approximation_ratio_r12": result.approximation_ratio_r12,
    },
    "chaos_availability": lambda result: {
        label: {
            "requests": report.requests,
            "degraded_hits": report.degraded_hits,
            "resets": report.resets,
        }
        for label, report in result.reports.items()
    },
    "cluster_scale": lambda result: {
        tenant_id: {
            "requests": outcome.requests_issued,
            "hits": outcome.hits,
            "misses": outcome.misses,
            "throttled": outcome.throttled,
        }
        for tenant_id, outcome in sorted(result.tenants.items())
    },
    "autoscale_policies": lambda result: {
        policy: run.total_cost for policy, run in result.runs.items()
    },
}


#: Every registered experiment plus the source the projections share.
#: Indexing HEADLINES here makes a registered experiment without a pin a
#: collection error instead of an experiment nobody is watching.
PINNED = {name: HEADLINES[name] for name in [*names(), "production"]}


class TestGoldenFigures:
    @pytest.mark.parametrize("name", PINNED)
    def test_golden(self, check_golden, name):
        result = build(name, "golden")
        payload = {"headline": PINNED[name](result)}
        if hasattr(result, "fingerprints"):
            payload["fingerprints"] = result.fingerprints
        if name != "production":  # a source only: projected, never rendered
            report = EXPERIMENTS[name].format_report(result)
            payload["report_sha256"] = hashlib.sha256(report.encode("utf-8")).hexdigest()
        check_golden(name, payload)

    def test_cluster_scale_exposes_the_drivers_report(self):
        """The driver's report (samples + flow intervals) is exposed as-is."""
        result = build("cluster_scale", "golden")
        assert result.replay_report is not None
        assert result.replay_report.fingerprint() == result.fingerprints["replay"]
        assert result.replay_report.samples

    def test_scenarios_smoke(self, check_golden):
        """Pin the scenario engine end to end: the library's ``smoke`` grid
        (2x2 cells x 2 replications) with its per-unit replay fingerprints
        and collector metric digests.  Any drift in the spec expansion, the
        seed derivation, the cell executor, or a collector flips this."""
        from repro.scenarios.library import get_grid
        from repro.scenarios.runner import ScenarioRunner

        result = ScenarioRunner(get_grid("smoke"), seed=2020).run(parallel=1)
        check_golden("scenarios_smoke", {
            "fingerprints": result.fingerprints(),
            "digests": {
                f"{r.cell_key}#{r.replication}": dict(sorted(r.digests.items()))
                for r in result.results
            },
            "headline": {
                f"{r.cell_key}#{r.replication}": {
                    "completed": int(r.metrics["requests"]["completed"]),
                    "hits": int(r.metrics["requests"]["hits"]),
                    "seed": r.seed,
                }
                for r in result.results
            },
        })


class TestReadmeFingerprintTable:
    def test_readme_column_matches_committed_golden_files(self):
        """README's 'golden fingerprint' column is the sha256 prefix of each
        committed ``tests/golden/<name>.json``; this keeps the table honest
        across ``--update-golden`` regenerations.  On failure, paste the
        printed values into the README table."""
        readme = (GOLDEN_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
        mismatches = []
        for path in sorted(GOLDEN_DIR.glob("*.json")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
            if f"`{digest}`" not in readme:
                mismatches.append(f"| {path.stem} | ... | `{digest}` |")
        assert not mismatches, (
            "README.md fingerprint table is out of sync with tests/golden/; "
            "update these rows:\n" + "\n".join(mismatches)
        )

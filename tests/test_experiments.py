"""Shape tests for every figure / table reproduction, at the ``report`` scale.

Each experiment is built once through the registry
(``build(name, "report")``) and shared by the tests that read it.  They
confirm each reproduction runs end to end, returns the expected result
structure, and preserves the paper's qualitative shape; the rendered report
text of each is pinned by ``tests/golden/report_scale.json``, so drift at
this scale is an assertion naming the figure that moved.
"""

from __future__ import annotations

import hashlib
import math
from array import array

import pytest

from repro.experiments.figure11 import FIGURE11_OBJECT_SIZES, FIGURE11_RS_CODES
from repro.experiments.figure9 import distribution_from_counts
from repro.experiments.registry import EXPERIMENTS, build, names, scales
from repro.utils.report import format_cdf_summary, format_table
from repro.utils.stats import CdfSeries, summarize
from repro.utils.units import MB

#: The experiments whose report-scale text ``report_scale.json`` pins.
REPORTED = [name for name in names() if "report" in scales(name)]


@pytest.fixture(scope="module")
def report_scale():
    """``report_scale(name)``: the experiment's report-scale result, built once."""
    results: dict[str, object] = {}

    def result(name: str):
        if name not in results:
            results[name] = build(name, "report")
        return results[name]

    return result


def format_report(name: str, result) -> str:
    return EXPERIMENTS[name].format_report(result)


def _value_at(cdf, fraction):
    return next(value for value, f in cdf if f >= fraction)


class TestReportHelpers:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 0.0001]], title="T")
        assert "T" in text and "a" in text and "x" in text

    def test_format_cdf_summary(self):
        points = CdfSeries(array("d", [1.0, 2.0]), array("d", [0.5, 1.0]))
        assert "p50" in format_cdf_summary("lat", points)
        assert "(empty)" in format_cdf_summary("lat", CdfSeries())


class TestReportTexts:
    @pytest.mark.parametrize("name", REPORTED)
    def test_report_text_is_pinned(self, report_scale, check_golden, name):
        report = format_report(name, report_scale(name))
        check_golden(
            "report_scale", hashlib.sha256(report.encode("utf-8")).hexdigest(), entry=name
        )


class TestFigure1:
    def test_characteristics_match_paper_shape(self, report_scale):
        results = report_scale("figure1")
        result = results["dallas"]
        assert result.large_object_fraction > 0.15
        assert result.large_byte_fraction > 0.9
        assert result.reuse_within_hour_fraction > 0.25
        assert result.object_size_cdf[-1][1] == pytest.approx(1.0)
        assert "Figure 1" in format_report("figure1", results)

    def test_every_datacenter_has_large_objects_and_short_reuse(self, report_scale):
        for name, result in report_scale("figure1").items():
            # Figure 1(a)/(b): >20% of objects are large, and they dominate bytes.
            assert result.large_object_fraction > 0.15, name
            assert result.large_byte_fraction > 0.90, name
            # Figure 1(d): a large share of reuses fall within one hour.
            assert result.reuse_within_hour_fraction > 0.30, name
            # Figure 1(c): long-tailed access counts (some objects accessed >= 10x).
            assert result.access_count_cdf[-1][0] >= 10, name


class TestFigure4:
    def test_latency_decreases_with_more_hosts(self, report_scale):
        result = report_scale("figure4")
        medians = {
            hosts: sorted(latencies)[len(latencies) // 2]
            for hosts, latencies in result.latency_by_hosts.items()
            if len(latencies) >= 3
        }
        assert len(medians) >= 2
        few_hosts = min(medians)
        many_hosts = max(medians)
        assert many_hosts > few_hosts
        assert medians[many_hosts] < medians[few_hosts]
        assert "Figure 4" in format_report("figure4", result)

    def test_sweep_covers_several_host_spread_levels(self, report_scale):
        result = report_scale("figure4")
        medians = {
            hosts: summarize(latencies)["p50"]
            for hosts, latencies in result.latency_by_hosts.items()
            if len(latencies) >= 5
        }
        assert len(medians) >= 3, "the sweep must cover several host-spread levels"
        # The paper's trend: requests spread over more VM hosts are faster.
        few = min(medians)
        many = max(medians)
        assert many > few
        assert medians[many] < medians[few]


class TestFigures8And9:
    def test_spiky_vs_continuous_regimes(self, report_scale):
        result = report_scale("figure8")
        spike_label = "9 min (08/21/19)"
        poisson_label = "1 min (12/26/19)"
        spike_hours = result.reclaims_per_hour[spike_label]
        poisson_hours = result.reclaims_per_hour[poisson_label]
        # The spike regime concentrates reclaims in a few hours.
        assert max(spike_hours) > 0.5 * result.fleet_size
        # The continuous regime never takes most of the fleet in one hour.
        assert max(poisson_hours) < 0.6 * result.fleet_size
        assert "Figure 8" in format_report("figure8", result)

        figure9_result = report_scale("figure9")
        distribution = figure9_result.distributions[poisson_label]
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert "Figure 9" in format_report("figure9", figure9_result)

    def test_figure8_spikes_dwarf_the_median_hour(self, report_scale):
        result = report_scale("figure8")
        spike_label = "9 min (08/21/19)"
        spike_hours = result.reclaims_per_hour[spike_label]
        # The 9-minute warm-up regime shows ~6-hourly spikes that take most of the
        # fleet; the peak hour dwarfs the median hour.
        assert max(spike_hours) > 0.4 * result.fleet_size
        assert max(spike_hours) > 5 * sorted(spike_hours)[len(spike_hours) // 2]

        # The 1-minute regimes reclaim continuously at a much lower peak rate.
        for label, per_hour in result.reclaims_per_hour.items():
            if label == spike_label:
                continue
            assert max(per_hour) < 0.4 * result.fleet_size, label

    def test_figure9_zipf_days_have_the_heavier_tail(self, report_scale):
        result = report_scale("figure9")
        for label, distribution in result.distributions.items():
            assert abs(sum(distribution.values()) - 1.0) < 1e-9, label
            # Most minutes see zero or few reclaims in every regime.
            assert distribution.get(0, 0.0) > 0.4, label

        # The Zipf-fit days have a heavier tail (>= 10 reclaims in one minute)
        # than the Poisson-fit days, mirroring the paper's two families.
        zipf_tail = result.probability_of_at_least("1 min (09/15/19)", 10)
        poisson_tail = result.probability_of_at_least("1 min (12/26/19)", 10)
        assert zipf_tail >= poisson_tail

    def test_figure9_distribution_from_counts_is_a_sorted_pmf(self):
        distribution = distribution_from_counts([2, 0, 0, 5, 0, 2])
        assert list(distribution) == [0, 2, 5]
        assert distribution == pytest.approx({0: 0.5, 2: 1 / 3, 5: 1 / 6})
        assert distribution_from_counts([]) == {}

    @pytest.mark.xfail(strict=True, reason=(
        "figure8 bins reclaims into [start, stop) hours: the last sweep, at "
        "exactly hours * HOUR, is in reclaims_per_sweep but in no hour. The "
        "fix moves the figure 8/9 goldens, so it waits for the one re-pin"
    ))
    def test_hourly_total_equals_reclaims_swept(self, report_scale):
        result = report_scale("figure8")
        for label, per_hour in result.reclaims_per_hour.items():
            assert sum(per_hour) == sum(result.reclaims_per_sweep[label]), label


class TestFigure11:
    def test_figure11_sweeps_match_paper(self):
        assert FIGURE11_OBJECT_SIZES == (10 * MB, 20 * MB, 40 * MB, 60 * MB, 80 * MB, 100 * MB)
        assert (10, 1) in FIGURE11_RS_CODES
        assert (10, 0) in FIGURE11_RS_CODES
        assert (4, 2) in FIGURE11_RS_CODES

    def test_memory_and_code_sweep_shapes(self, report_scale):
        result = report_scale("figure11")
        # Bigger objects are slower at fixed memory/code.
        assert result.median(2048, (10, 1), 100 * MB) > result.median(2048, (10, 1), 10 * MB)
        # Bigger Lambdas are faster for large objects.
        assert result.median(256, (10, 1), 100 * MB) > result.median(2048, (10, 1), 100 * MB)
        # ElastiCache baselines present for both sizes.
        assert ("ElastiCache(1-node)", 10 * MB) in result.elasticache
        assert "Figure 11" in format_report("figure11", result)

    def test_plateau_parity_and_elasticache_comparison(self, report_scale):
        result = report_scale("figure11")
        # Latency grows with object size (every memory configuration, RS(10+1)).
        for memory in (256, 1024, 3008):
            assert result.median(memory, (10, 1), 100 * MB) > result.median(memory, (10, 1), 10 * MB)

        # Bigger Lambdas are faster for 100 MB objects, with diminishing returns
        # past ~1 GB (the plateau the paper reports).
        assert result.median(256, (10, 1), 100 * MB) > result.median(1024, (10, 1), 100 * MB)
        plateau_ratio = result.median(1024, (10, 1), 100 * MB) / result.median(3008, (10, 1), 100 * MB)
        assert plateau_ratio < 2.0

        # (10+1) does not lose to the no-parity (10+0) baseline — under the
        # event-driven first-d race a straggler among (10+0)'s chunks always
        # lands on the critical path, while (10+1) abandons it (compare the
        # larger Lambda sizes where transfer time no longer dominates).  The
        # median is the robust statistic here: per-cell sample counts are small
        # and the race makes individual tail samples noisy.
        cell_10_0 = result.cell(3008, (10, 0), 100 * MB)
        cell_10_1 = result.cell(3008, (10, 1), 100 * MB)
        median_10_0 = sorted(cell_10_0.latencies_s)[len(cell_10_0.latencies_s) // 2]
        median_10_1 = sorted(cell_10_1.latencies_s)[len(cell_10_1.latencies_s) // 2]
        assert median_10_1 <= median_10_0 * 1.1

        # Figure 11(f): InfiniCache on 3008 MB Lambdas beats 1-node ElastiCache
        # for 100 MB objects.
        assert result.median(3008, (10, 1), 100 * MB) < result.elasticache[
            ("ElastiCache(1-node)", 100 * MB)
        ]


class TestFigure12:
    def test_throughput_scales_with_clients(self, report_scale):
        result = report_scale("figure12")
        assert result.throughput_bps[4] > 1.5 * result.throughput_bps[1]
        assert "Figure 12" in format_report("figure12", result)

    def test_throughput_is_near_linear_and_monotone(self, report_scale):
        result = report_scale("figure12")
        # Throughput grows close to linearly with the client count (the paper's
        # "scales linearly as long as more Lambda nodes are available").
        assert result.throughput_bps[10] > 5 * result.throughput_bps[1]
        # And it is monotone in the client count.
        ordered = [result.throughput_bps[c] for c in sorted(result.throughput_bps)]
        assert all(b >= a * 0.9 for a, b in zip(ordered, ordered[1:]))


class TestProductionProjections:
    def test_figure13_cost_ordering(self, report_scale):
        result = report_scale("figure13")
        costs = result.total_costs
        assert costs["ElastiCache"] > costs["IC (all objects)"]
        assert costs["IC (large only)"] >= costs["IC (large no backup)"]
        assert result.improvement_over_elasticache["IC (all objects)"] > 10
        for setting, breakdown in result.cost_breakdown.items():
            expected_backup = 0.0 if "no backup" in setting else None
            if expected_backup is not None:
                assert breakdown.get("backup", 0.0) == expected_backup
        assert "Figure 13" in format_report("figure13", result)

    def test_figure13_settings_order_as_in_the_paper(self, report_scale):
        result = report_scale("figure13")
        costs = result.total_costs
        # Figure 13(a): ElastiCache is the most expensive by a wide margin, and
        # the three InfiniCache settings order exactly as in the paper.
        assert costs["ElastiCache"] > costs["IC (all objects)"]
        assert costs["IC (all objects)"] > costs["IC (large only)"]
        assert costs["IC (large only)"] > costs["IC (large no backup)"]
        # The paper reports 31-96x; at the scaled-down pool the factor is larger
        # but must remain an order-of-magnitude-plus win.
        assert result.improvement_over_elasticache["IC (all objects)"] > 30
        assert result.improvement_over_elasticache["IC (large no backup)"] > \
            result.improvement_over_elasticache["IC (all objects)"]

        # Figure 13(c): for the large-object-only workload the maintenance cost
        # (warm-up + backup) dominates serving.
        large_only = result.cost_breakdown["large only"]
        maintenance = large_only.get("warmup", 0.0) + large_only.get("backup", 0.0)
        assert maintenance > large_only.get("serving", 0.0)

        # Figure 13(d): disabling backup eliminates the backup component entirely.
        assert result.cost_breakdown["large no backup"].get("backup", 0.0) == 0.0

    def test_figure14_backup_reduces_resets(self, report_scale):
        result = report_scale("figure14")
        with_backup = result.totals["large only"][0]
        without_backup = result.totals["large no backup"][0]
        assert without_backup >= with_backup
        # The hourly series cover every event, including RESETs completing
        # just past the trace horizon (events are stamped at completion).
        for label, (resets, recoveries, _availability) in result.totals.items():
            assert sum(result.resets_per_hour[label]) == resets
            assert sum(result.recoveries_per_hour[label]) == recoveries
        availability_with = result.totals["large only"][2]
        availability_without = result.totals["large no backup"][2]
        assert availability_with >= availability_without
        assert "Figure 14" in format_report("figure14", result)

    def test_figure14_disabling_backup_multiplies_resets(self, report_scale):
        result = report_scale("figure14")
        resets_with_backup = result.totals["large only"][0]
        resets_without_backup = result.totals["large no backup"][0]
        availability_with = result.totals["large only"][2]
        availability_without = result.totals["large no backup"][2]

        # The paper's qualitative result: disabling backup multiplies RESETs and
        # lowers availability; with backup the availability stays above ~95%.
        assert resets_without_backup > resets_with_backup
        assert availability_with > availability_without
        assert availability_with > 0.93

        # Recovery and RESET activity exists (the timeline is not empty) for the
        # unprotected configuration.
        assert sum(result.recoveries_per_hour["large no backup"]) > 0

    def test_figure15_cache_beats_s3_for_large_objects(self, report_scale):
        result = report_scale("figure15")
        def median(cdf):
            return next(v for v, frac in cdf if frac >= 0.5)
        assert median(result.large_objects["InfiniCache"]) < median(
            result.large_objects["AWS S3"]
        )
        assert "Figure 15" in format_report("figure15", result)

    def test_figure15_medians_against_both_baselines(self, report_scale):
        result = report_scale("figure15")
        # Figure 15(b): for large objects both caches beat S3 by a wide margin at
        # the median, and InfiniCache is competitive with ElastiCache.
        ic_median = _value_at(result.large_objects["InfiniCache"], 0.5)
        ec_median = _value_at(result.large_objects["ElastiCache"], 0.5)
        s3_median = _value_at(result.large_objects["AWS S3"], 0.5)
        assert s3_median > 5 * ic_median
        assert ic_median < 3 * ec_median

        # Figure 15(a): for the all-object mix ElastiCache has the lowest median
        # (small objects dominate counts and the Lambda invocation overhead hurts
        # InfiniCache there).
        ic_all = _value_at(result.all_objects["InfiniCache"], 0.5)
        ec_all = _value_at(result.all_objects["ElastiCache"], 0.5)
        assert ec_all < ic_all

        # A sizeable share of large requests sees a very large speed-up over S3.
        assert result.large_speedup_100x_fraction >= 0.0

    def test_figure16_normalised_shape(self, report_scale):
        result = report_scale("figure16")
        infinicache = result.normalized_median["InfiniCache"]
        assert infinicache["<1MB"] > 3.0           # small objects: IC much slower
        assert infinicache[">=100MB"] < 2.0        # large objects: competitive
        s3 = result.normalized_median["AWS S3"]
        assert s3[">=100MB"] > infinicache[">=100MB"]
        assert "Figure 16" in format_report("figure16", result)

    def test_figure16_every_size_bucket(self, report_scale):
        result = report_scale("figure16")
        infinicache = result.normalized_median["InfiniCache"]
        s3 = result.normalized_median["AWS S3"]

        # Small objects: InfiniCache pays the Lambda invocation overhead and is
        # many times slower than ElastiCache (the paper's "significant overhead
        # for objects smaller than 1 MB").
        assert infinicache["<1MB"] > 5.0

        # Large objects: InfiniCache is on par with or faster than ElastiCache
        # thanks to parallel chunk I/O.
        assert infinicache[">=100MB"] < 1.5

        # Mid-size objects sit in between.
        assert infinicache["[10,100)MB"] < infinicache["<1MB"]

        # S3 is slower than InfiniCache in every bucket that contains data.
        for bucket, value in s3.items():
            if not math.isnan(value) and not math.isnan(infinicache[bucket]):
                assert value > infinicache[bucket] * 0.9, bucket

    def test_table1_hit_ratios(self, report_scale):
        result = report_scale("table1")
        rows = result.rows
        assert rows["All objects"]["wss_gb"] > 0
        assert 0 < rows["Large obj. only"]["ic_hit"] <= 1
        assert rows["Large obj. only"]["ec_hit"] >= rows["Large obj. only"]["ic_no_backup_hit"]
        assert "Table 1" in format_report("table1", result)

    def test_table1_working_sets_and_hit_ratio_ordering(self, report_scale):
        result = report_scale("table1")
        all_objects = result.rows["All objects"]
        large_only = result.rows["Large obj. only"]

        # The working sets are non-trivial and the large-only working set is a
        # large fraction of the total (the paper: 1036 GB of 1169 GB).
        assert large_only["wss_gb"] > 0.7 * all_objects["wss_gb"]
        # The large-object request rate is well below the all-object rate.
        assert large_only["gets_per_hour"] < all_objects["gets_per_hour"]

        # Hit-ratio ordering of the paper: ElastiCache >= InfiniCache >= IC w/o backup.
        assert all_objects["ec_hit"] >= all_objects["ic_hit"] - 0.02
        assert large_only["ec_hit"] >= large_only["ic_hit"] - 0.02
        assert large_only["ic_hit"] >= large_only["ic_no_backup_hit"] - 0.02
        # All hit ratios are meaningful (the cache is actually doing its job).
        assert large_only["ic_hit"] > 0.4


class TestFigure17:
    def test_crossover_in_paper_range(self, report_scale):
        result = report_scale("figure17")
        assert 250_000 < result.crossover_rate < 420_000
        assert result.infinicache_hourly[0] < result.elasticache_hourly
        assert result.infinicache_hourly[-1] == max(result.infinicache_hourly)
        assert "crossover" in format_report("figure17", result)

    def test_cost_rises_monotonically_from_far_below_elasticache(self, report_scale):
        result = report_scale("figure17")
        # InfiniCache's hourly cost increases monotonically with the access rate.
        assert result.infinicache_hourly == sorted(result.infinicache_hourly)
        # It starts far below ElastiCache's flat hourly price...
        assert result.infinicache_hourly[0] < 0.1 * result.elasticache_hourly
        # ...and the crossover lands near the paper's ~312 K requests/hour.
        assert 250_000 < result.crossover_rate < 420_000
        # The ElastiCache line matches the cache.r5.24xlarge hourly price.
        assert abs(result.elasticache_hourly - 10.368) < 1e-6


class TestAvailabilityAnalysis:
    def test_paper_case_study_numbers(self, report_scale):
        result = report_scale("availability")
        assert result.approximation_ratio_r12 == pytest.approx(18.8, abs=0.3)
        for _label, (loss, avail_minute, avail_hour) in result.per_fit.items():
            assert 0 <= loss < 0.01
            assert avail_minute > 0.99
            assert 0.85 < avail_hour <= 1.0
        assert "availability" in format_report("availability", result)

    def test_loss_and_availability_bands(self, report_scale):
        result = report_scale("availability")
        # The paper's quoted approximation ratio p_3/p_4 = 18.8 at r = 12.
        assert abs(result.approximation_ratio_r12 - 18.8) < 0.3

        for label, (loss, avail_minute, avail_hour) in result.per_fit.items():
            # Per-minute loss in (or near) the paper's 0.0039%-0.11% band.
            assert loss < 0.003, label
            assert avail_minute > 0.997, label
            # Hourly availability comparable to the paper's 93.36%-99.76% band.
            assert avail_hour > 0.85, label

        # The Eq. 3 simplification is accurate for the Poisson-fit regime.
        assert result.simplification_error["Poisson fit (Oct/Dec/Jan)"] < 0.05

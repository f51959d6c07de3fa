"""Tests for the hourly cost model (Equations 4-6) and the Figure 17 crossover."""

import pytest

from repro.analysis.cost_model import CostModel, CostModelParams
from repro.exceptions import ConfigurationError
from repro.utils.units import MIB


@pytest.fixture
def paper_params() -> CostModelParams:
    """The Section 5.2 configuration: 400 x 1.5 GiB, 1-min warm-up, 5-min backup."""
    return CostModelParams(
        total_nodes=400,
        memory_bytes=1536 * MIB,
        warmup_interval_min=1.0,
        backup_interval_min=5.0,
        backup_duration_s=1.0,
    )


@pytest.fixture
def model(paper_params) -> CostModel:
    return CostModel(paper_params)


class TestEquation4Serving:
    def test_zero_rate_zero_cost(self, model):
        assert model.serving_cost_per_hour(0) == 0.0

    def test_linear_in_rate(self, model):
        assert model.serving_cost_per_hour(20_000) == pytest.approx(
            2 * model.serving_cost_per_hour(10_000)
        )

    def test_duration_rounded_to_cycle(self, paper_params):
        fast = CostModel(CostModelParams(**{**paper_params.__dict__, "serving_duration_ms": 40}))
        slow = CostModel(CostModelParams(**{**paper_params.__dict__, "serving_duration_ms": 100}))
        assert fast.serving_cost_per_hour(1000) == pytest.approx(
            slow.serving_cost_per_hour(1000)
        )

    def test_object_rate_fans_out_to_chunks(self, model):
        assert model.serving_cost_for_object_rate(1000, 12) == pytest.approx(
            model.serving_cost_per_hour(12_000)
        )

    def test_negative_rate_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.serving_cost_per_hour(-1)


class TestEquation5Warmup:
    def test_paper_magnitude(self, model):
        """Warming 400 x 1.5 GiB functions every minute costs a few cents/hour."""
        assert 0.04 < model.warmup_cost_per_hour() < 0.12

    def test_scales_with_pool_and_frequency(self, paper_params):
        base = CostModel(paper_params).warmup_cost_per_hour()
        bigger_pool = CostModel(
            CostModelParams(**{**paper_params.__dict__, "total_nodes": 800})
        ).warmup_cost_per_hour()
        slower = CostModel(
            CostModelParams(**{**paper_params.__dict__, "warmup_interval_min": 2.0})
        ).warmup_cost_per_hour()
        assert bigger_pool == pytest.approx(2 * base)
        assert slower == pytest.approx(base / 2)


class TestEquation6Backup:
    def test_disabled_backup_is_free(self, paper_params):
        disabled = CostModel(
            CostModelParams(**{**paper_params.__dict__, "backup_enabled": False})
        )
        assert disabled.backup_cost_per_hour() == 0.0

    def test_scales_with_duration(self, paper_params):
        short = CostModel(
            CostModelParams(**{**paper_params.__dict__, "backup_duration_s": 0.5})
        ).backup_cost_per_hour()
        long = CostModel(
            CostModelParams(**{**paper_params.__dict__, "backup_duration_s": 2.0})
        ).backup_cost_per_hour()
        assert long > short

    def test_backup_dominates_warmup_for_long_syncs(self, model):
        """Figure 13(c): with low request rates the backup term dominates."""
        assert model.backup_cost_per_hour() > model.warmup_cost_per_hour()


class TestTotalsAndBreakdown:
    def test_breakdown_sums_to_total(self, model):
        assert model.total_cost_per_hour(50_000) == pytest.approx(
            model.serving_cost_per_hour(50_000)
            + model.warmup_cost_per_hour()
            + model.backup_cost_per_hour()
        )

    def test_idle_infinicache_is_far_cheaper_than_elasticache(self, model):
        """At low access rates the pay-per-use model wins by orders of magnitude."""
        idle_cost = model.total_cost_per_hour(0)
        elasticache = model.elasticache_hourly_cost("cache.r5.24xlarge")
        assert elasticache / idle_cost > 30


class TestFigure17Crossover:
    def test_crossover_near_paper_value(self, model):
        """The paper reports ~312 K object requests/hour (86 req/s) with 12
        chunk invocations per object."""
        crossover = model.crossover_access_rate(
            "cache.r5.24xlarge", chunks_per_object=12
        )
        assert 250_000 < crossover < 420_000

    def test_infinicache_cheaper_below_crossover(self, model):
        crossover = model.crossover_access_rate("cache.r5.24xlarge", chunks_per_object=12)
        elasticache = model.elasticache_hourly_cost("cache.r5.24xlarge")
        below = model.warmup_cost_per_hour() + model.backup_cost_per_hour() + \
            model.serving_cost_for_object_rate(crossover * 0.8, 12)
        above = model.warmup_cost_per_hour() + model.backup_cost_per_hour() + \
            model.serving_cost_for_object_rate(crossover * 1.2, 12)
        assert below < elasticache < above

    def test_crossover_zero_when_fixed_costs_exceed_target(self, paper_params):
        expensive = CostModel(
            CostModelParams(**{**paper_params.__dict__, "backup_duration_s": 10_000.0})
        )
        assert expensive.crossover_access_rate("cache.r5.xlarge") == 0.0

    def test_elasticache_cluster_cost(self, model):
        assert model.elasticache_hourly_cost("cache.r5.xlarge", node_count=10) == pytest.approx(
            10 * 0.431
        )

    def test_invalid_arguments(self, model):
        with pytest.raises(ConfigurationError):
            model.elasticache_hourly_cost("cache.r5.xlarge", node_count=0)
        with pytest.raises(ConfigurationError):
            model.crossover_access_rate(chunks_per_object=0)
        with pytest.raises(ConfigurationError):
            model.serving_cost_for_object_rate(100, 0)


class TestParamValidation:
    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            CostModelParams(total_nodes=0)
        with pytest.raises(ConfigurationError):
            CostModelParams(memory_bytes=0)
        with pytest.raises(ConfigurationError):
            CostModelParams(warmup_interval_min=0)
        with pytest.raises(ConfigurationError):
            CostModelParams(backup_duration_s=-1)

    def test_memory_gb_property(self):
        params = CostModelParams(memory_bytes=1024 * MIB)
        assert params.memory_gb == pytest.approx(1.0)

    def test_frequencies(self):
        params = CostModelParams(warmup_interval_min=1, backup_interval_min=5)
        assert params.warmups_per_hour == 60
        assert params.backups_per_hour == 12
        disabled = CostModelParams(backup_enabled=False)
        assert disabled.backups_per_hour == 0

"""Tests for the provisioned-concurrency cost extension (paper Section 6)."""

import pytest

from repro.analysis.provisioned import (
    ProvisionedConcurrencyModel,
    ProvisionedConcurrencyPricing,
    StrategyComparison,
    compare_strategies,
)
from repro.exceptions import ConfigurationError
from repro.utils.units import GIB


class TestProvisionedConcurrencyModel:
    def test_pinning_cost_matches_list_price(self):
        """400 x 1.5 GB pinned at $0.015/GB-hour = $9/hour."""
        model = ProvisionedConcurrencyModel(total_nodes=400, memory_bytes=int(1.5 * GIB))
        assert model.pinning_cost_per_hour() == pytest.approx(9.0)

    def test_pinning_cost_accrues_without_traffic(self):
        model = ProvisionedConcurrencyModel(total_nodes=100, memory_bytes=1 * GIB)
        assert model.total_cost_per_hour(0) == pytest.approx(model.pinning_cost_per_hour())
        assert model.total_cost_per_hour(0) > 0

    def test_serving_cost_linear(self):
        model = ProvisionedConcurrencyModel(total_nodes=10, memory_bytes=1 * GIB)
        assert model.serving_cost_per_hour(2000) == pytest.approx(
            2 * model.serving_cost_per_hour(1000)
        )

    def test_execution_discount_vs_on_demand(self):
        """Provisioned execution is billed at a lower GB-second rate."""
        pricing = ProvisionedConcurrencyPricing()
        from repro.faas.billing import PRICE_PER_GB_SECOND

        assert pricing.price_per_gb_second < PRICE_PER_GB_SECOND

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ProvisionedConcurrencyModel(total_nodes=0)
        with pytest.raises(ConfigurationError):
            ProvisionedConcurrencyModel(memory_bytes=0)
        with pytest.raises(ConfigurationError):
            ProvisionedConcurrencyModel().serving_cost_per_hour(-1)
        with pytest.raises(ConfigurationError):
            ProvisionedConcurrencyPricing(price_per_gb_hour=-1)


class TestStrategyComparison:
    def test_infinicache_wins_at_low_rates(self):
        """The paper's core claim survives the provider's new pricing option:
        for sparse large-object traffic, pay-per-use InfiniCache is cheaper
        than both capacity-billed alternatives."""
        comparison = compare_strategies(object_requests_per_hour=750)
        assert comparison.cheapest == "infinicache"
        assert comparison.infinicache < comparison.provisioned_concurrency
        assert comparison.infinicache < comparison.elasticache

    def test_capacity_billing_wins_at_high_rates(self):
        comparison = compare_strategies(object_requests_per_hour=1_000_000)
        assert comparison.cheapest in ("provisioned_concurrency", "elasticache")
        assert comparison.infinicache > comparison.elasticache

    def test_provisioned_cheaper_than_elasticache_for_this_pool(self):
        """Pinning 400 x 1.5 GB functions (~600 GB) costs less per hour than
        the 635 GB cache.r5.24xlarge instance — the provider's new option is
        competitive with its own managed cache."""
        comparison = compare_strategies(object_requests_per_hour=0)
        assert comparison.provisioned_concurrency < comparison.elasticache

    def test_cheapest_property_consistent(self):
        comparison = StrategyComparison(
            object_requests_per_hour=1.0,
            infinicache=5.0, provisioned_concurrency=3.0, elasticache=4.0,
        )
        assert comparison.cheapest == "provisioned_concurrency"

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_strategies(object_requests_per_hour=-1)

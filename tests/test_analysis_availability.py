"""Tests for the availability model (Equations 1-3)."""

import math

import pytest

from repro.analysis.availability import AvailabilityModel
from repro.exceptions import ConfigurationError


@pytest.fixture
def paper_model() -> AvailabilityModel:
    """The Section 4.3 case study: 400 nodes, RS(10+2)."""
    return AvailabilityModel(total_nodes=400, data_shards=10, parity_shards=2)


class TestChunkLossProbability:
    def test_probabilities_sum_to_one(self, paper_model):
        total = sum(
            paper_model.chunk_loss_probability(reclaimed=12, chunks_lost=i)
            for i in range(0, 13)
        )
        assert total == pytest.approx(1.0)

    def test_zero_reclaims_means_zero_loss(self, paper_model):
        assert paper_model.chunk_loss_probability(0, 1) == 0.0
        assert paper_model.chunk_loss_probability(0, 0) == pytest.approx(1.0)

    def test_impossible_combinations_are_zero(self, paper_model):
        # Losing more chunks than nodes were reclaimed is impossible.
        assert paper_model.chunk_loss_probability(2, 3) == 0.0

    def test_paper_approximation_ratio(self, paper_model):
        """p_3 / p_4 = 18.8 for r = 12 (quoted in Section 4.3)."""
        assert paper_model.approximation_ratio(12) == pytest.approx(18.8, abs=0.2)

    def test_invalid_arguments(self, paper_model):
        with pytest.raises(ConfigurationError):
            paper_model.chunk_loss_probability(-1, 0)
        with pytest.raises(ConfigurationError):
            paper_model.chunk_loss_probability(0, 13)


class TestObjectLossGivenReclaims:
    def test_exact_at_least_simplified(self, paper_model):
        for r in (3, 12, 50, 100):
            exact = paper_model.object_loss_probability_given_reclaims(r, exact=True)
            simplified = paper_model.object_loss_probability_given_reclaims(r, exact=False)
            assert exact >= simplified

    def test_simplification_tight_for_moderate_reclaims(self, paper_model):
        """The paper's Eq. 3 approximation is within a few percent for the
        reclaim counts actually observed (tens of nodes, not hundreds)."""
        for r in (3, 12, 20, 30):
            exact = paper_model.object_loss_probability_given_reclaims(r, exact=True)
            simplified = paper_model.object_loss_probability_given_reclaims(r, exact=False)
            if exact > 0:
                assert exact <= simplified * 1.3

    def test_monotone_in_reclaims(self, paper_model):
        losses = [
            paper_model.object_loss_probability_given_reclaims(r) for r in (3, 10, 50, 200)
        ]
        assert losses == sorted(losses)

    def test_all_nodes_reclaimed_means_certain_loss(self, paper_model):
        assert paper_model.object_loss_probability_given_reclaims(400) == pytest.approx(1.0)

    def test_fewer_than_m_reclaims_cannot_lose(self, paper_model):
        assert paper_model.object_loss_probability_given_reclaims(2) == 0.0

    @pytest.mark.parametrize("data, parity", [(10, 2), (4, 2), (5, 1)])
    def test_exactly_m_reclaims_lose_only_when_all_hold_chunks(self, data, parity):
        # m = p + 1; with exactly m nodes reclaimed the object is lost only
        # if every one of them held one of its chunks.
        model = AvailabilityModel(total_nodes=400, data_shards=data, parity_shards=parity)
        m = model.min_chunks_for_loss
        assert m == parity + 1
        loss = model.object_loss_probability_given_reclaims(m)
        assert loss > 0.0
        assert loss == pytest.approx(model.chunk_loss_probability(m, m))


class TestObjectLossProbability:
    def test_paper_range_for_moderate_reclaim_rates(self, paper_model):
        """With per-minute reclaim distributions in the observed range, the
        per-minute loss probability lands in the paper's 0.0039%-0.11% band
        (we accept a slightly wider envelope for the synthetic fits)."""
        poisson = AvailabilityModel.poisson_reclaim_distribution(mean=0.6, max_r=40)
        zipf = AvailabilityModel.zipf_reclaim_distribution(exponent=2.2, max_r=40)
        loss_poisson = paper_model.object_loss_probability(poisson)
        loss_zipf = paper_model.object_loss_probability(zipf)
        assert 0.0 <= loss_poisson < 0.0005
        assert 0.00001 < loss_zipf < 0.002

    def test_hourly_availability_in_paper_band(self, paper_model):
        zipf = AvailabilityModel.zipf_reclaim_distribution(exponent=2.2, max_r=40)
        hourly = paper_model.availability_over(zipf, intervals=60)
        assert 0.90 < hourly < 0.999

    def test_more_parity_is_more_available(self):
        distribution = AvailabilityModel.zipf_reclaim_distribution(exponent=2.0, max_r=40)
        weak = AvailabilityModel(400, 10, 1).availability(distribution)
        strong = AvailabilityModel(400, 10, 4).availability(distribution)
        assert strong > weak

    def test_larger_pool_is_more_available(self):
        distribution = AvailabilityModel.poisson_reclaim_distribution(mean=2.0, max_r=60)
        small = AvailabilityModel(100, 10, 2).availability(distribution)
        large = AvailabilityModel(800, 10, 2).availability(distribution)
        assert large > small

    def test_distribution_normalised_internally(self, paper_model):
        histogram = {0: 50.0, 12: 2.0, 30: 1.0}
        normalised = {k: v / 53.0 for k, v in histogram.items()}
        assert paper_model.object_loss_probability(histogram) == pytest.approx(
            paper_model.object_loss_probability(normalised)
        )

    def test_empty_distribution_rejected(self, paper_model):
        with pytest.raises(ConfigurationError):
            paper_model.object_loss_probability({})

    def test_negative_weight_rejected(self, paper_model):
        with pytest.raises(ConfigurationError):
            paper_model.object_loss_probability({3: -1.0, 4: 2.0})


class TestHelpers:
    def test_poisson_distribution_sums_to_one(self):
        distribution = AvailabilityModel.poisson_reclaim_distribution(mean=1.5, max_r=60)
        assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-6)

    def test_zipf_distribution_sums_to_one(self):
        distribution = AvailabilityModel.zipf_reclaim_distribution(exponent=1.8, max_r=50)
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert 0 not in distribution

    def test_invalid_model_configuration(self):
        with pytest.raises(ConfigurationError):
            AvailabilityModel(total_nodes=5, data_shards=10, parity_shards=2)
        with pytest.raises(ConfigurationError):
            AvailabilityModel(total_nodes=0, data_shards=1, parity_shards=0)

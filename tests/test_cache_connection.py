"""Tests for the per-node circuit breaker and how the proxy installs it."""

import pytest

from repro.cache.config import InfiniCacheConfig, ResilienceConfig, StragglerModel
from repro.cache.connection import (
    FAILURE_THRESHOLD,
    RESET_TIMEOUT_S,
    BreakerState,
    CircuitBreaker,
)
from repro.cache.proxy import Proxy
from repro.faas.platform import FaaSPlatform
from repro.network.transfer import TransferModel
from repro.sim import EventLoop
from repro.utils.rng import SeededRNG


def tripped_at(now: float) -> CircuitBreaker:
    breaker = CircuitBreaker()
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure(now)
    assert breaker.state is BreakerState.OPEN
    return breaker


class TestCircuitBreaker:
    def test_the_breaker_in_use_is_three_failures_fifteen_seconds(self):
        assert (FAILURE_THRESHOLD, RESET_TIMEOUT_S) == (3, 15.0)

    def test_new_breaker_is_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)
        assert breaker.trips == 0

    def test_trips_on_the_threshold_th_consecutive_failure(self):
        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure(1.0)
            assert breaker.allow(1.0)
        breaker.record_failure(2.0)
        assert breaker.state is BreakerState.OPEN
        assert (breaker.opened_at, breaker.trips) == (2.0, 1)
        assert not breaker.allow(2.0)

    def test_a_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure(1.0)
        breaker.record_success(1.5)
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure(2.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.trips == 0

    def test_open_refuses_until_the_reset_timeout_then_lets_one_probe(self):
        breaker = tripped_at(10.0)
        assert not breaker.allow(10.0 + RESET_TIMEOUT_S - 0.001)
        assert breaker.allow(10.0 + RESET_TIMEOUT_S)
        assert breaker.state is BreakerState.HALF_OPEN
        # Requests arriving while the probe is in flight are refused.
        assert not breaker.allow(10.0 + RESET_TIMEOUT_S)

    def test_a_successful_probe_closes_the_breaker(self):
        breaker = tripped_at(0.0)
        assert breaker.allow(RESET_TIMEOUT_S)
        breaker.record_success(RESET_TIMEOUT_S)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(RESET_TIMEOUT_S)
        assert breaker.trips == 1

    def test_a_failed_probe_reopens_for_a_full_timeout(self):
        breaker = tripped_at(0.0)
        assert breaker.allow(20.0)
        breaker.record_failure(20.0)
        assert breaker.state is BreakerState.OPEN
        assert (breaker.opened_at, breaker.trips) == (20.0, 2)
        assert not breaker.allow(20.0 + RESET_TIMEOUT_S - 0.001)
        assert breaker.allow(20.0 + RESET_TIMEOUT_S)


@pytest.mark.parametrize("enabled", [True, False])
def test_proxy_gives_every_node_its_own_breaker_only_when_enabled(enabled):
    config = InfiniCacheConfig(
        lambdas_per_proxy=8,
        data_shards=4,
        parity_shards=2,
        straggler=StragglerModel(probability=0.0),
        resilience=ResilienceConfig(circuit_breaker=enabled),
        seed=7,
    )
    proxy = Proxy(
        proxy_id="proxy-test",
        config=config,
        platform=FaaSPlatform(EventLoop()),
        transfer_model=TransferModel(),
        rng=SeededRNG(11),
    )
    proxy.add_node()
    breakers = [node.breaker for node in proxy.nodes]
    assert len(breakers) == 9
    if enabled:
        assert all(isinstance(breaker, CircuitBreaker) for breaker in breakers)
        assert len({id(breaker) for breaker in breakers}) == 9
    else:
        assert breakers == [None] * 9

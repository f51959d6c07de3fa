"""Tests for the simulated FaaS platform."""

import random

import pytest

from repro.exceptions import (
    ConfigurationError,
    FunctionReclaimedError,
    InvocationError,
    InvocationFaultError,
)
from repro.faas.function import FunctionState
from repro.faas.limits import COLD_START_OVERHEAD, WARM_INVOCATION_OVERHEAD
from repro.faas.platform import FaaSPlatform
from repro.faas.reclamation import IdleTimeoutPolicy, PoissonReclamationPolicy
from repro.sim import Simulator
from repro.utils.rng import SeededRNG
from repro.utils.units import HOUR, MINUTE, MIB


@pytest.fixture
def platform() -> FaaSPlatform:
    return FaaSPlatform(Simulator())


class TestRegistration:
    def test_register_and_lookup(self, platform):
        config = platform.register_function("cache-node-0", 1536 * MIB)
        assert config.memory_bytes == 1536 * MIB
        assert platform.is_registered("cache-node-0")
        assert platform.function_config("cache-node-0") == config
        assert platform.registered_functions() == ["cache-node-0"]

    def test_duplicate_registration_rejected(self, platform):
        platform.register_function("f", 128 * MIB)
        with pytest.raises(ConfigurationError):
            platform.register_function("f", 128 * MIB)

    def test_invalid_memory_rejected(self, platform):
        with pytest.raises(ConfigurationError):
            platform.register_function("f", 100 * MIB)

    def test_invoke_unregistered_rejected(self, platform):
        with pytest.raises(InvocationError):
            platform.invoke("ghost")


class TestInvocation:
    def test_first_invocation_is_cold(self, platform):
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        assert result.cold_start is True
        assert result.instance.state is FunctionState.RUNNING
        assert result.invoke_overhead_s > WARM_INVOCATION_OVERHEAD

    def test_completed_instance_is_reused_warm(self, platform):
        platform.register_function("f", 256 * MIB)
        first = platform.invoke("f")
        platform.complete_invocation(first.instance, 0.05)
        second = platform.invoke("f")
        assert second.cold_start is False
        assert second.instance is first.instance
        assert second.invoke_overhead_s == pytest.approx(
            WARM_INVOCATION_OVERHEAD
        )

    def test_concurrent_invocations_autoscale(self, platform):
        """A busy instance forces a peer replica — the backup protocol's λ_d."""
        platform.register_function("f", 256 * MIB)
        first = platform.invoke("f")
        second = platform.invoke("f")
        assert second.instance is not first.instance
        assert platform.instance_count() == 2

    def test_force_new_instance(self, platform):
        platform.register_function("f", 256 * MIB)
        first = platform.invoke("f")
        platform.complete_invocation(first.instance, 0.01)
        second = platform.invoke("f", force_new_instance=True)
        assert second.instance is not first.instance

    def test_invoke_instance_directly(self, platform):
        platform.register_function("f", 256 * MIB)
        first = platform.invoke("f")
        platform.complete_invocation(first.instance, 0.01)
        again = platform.invoke_instance(first.instance)
        assert again.instance is first.instance
        assert again.cold_start is False

    def test_invoke_instance_rejects_running(self, platform):
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        with pytest.raises(InvocationError):
            platform.invoke_instance(result.instance)

    def test_invoke_instance_rejects_reclaimed(self, platform):
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        platform.complete_invocation(result.instance, 0.01)
        platform.reclaim_instance(result.instance)
        with pytest.raises(FunctionReclaimedError):
            platform.invoke_instance(result.instance)

    def test_complete_invocation_bills(self, platform):
        platform.register_function("f", 1024 * MIB)
        result = platform.invoke("f")
        platform.complete_invocation(result.instance, 0.25, category="serving")
        assert platform.billing.total_invocations == 1
        assert platform.billing.total_billed_seconds == pytest.approx(0.3)
        assert platform.billing.cost_by_category["serving"] > 0

    def test_complete_invocation_on_idle_rejected(self, platform):
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        platform.complete_invocation(result.instance, 0.01)
        with pytest.raises(InvocationError):
            platform.complete_invocation(result.instance, 0.01)

    def test_complete_on_reclaimed_instance_still_bills(self, platform):
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        platform.reclaim_instance(result.instance)
        platform.complete_invocation(result.instance, 0.1)
        assert platform.billing.total_invocations == 1


class TestInstrumentsAreCreatedOnFirstUse:
    """``deployment.counters()`` is hashed into replay fingerprints, so *which*
    instruments exist is behaviour: none may appear before its first increment."""

    def test_fault_free_invocations_create_exactly_these_counters(self, platform):
        assert platform.metrics.snapshot() == {"counters": {}, "gauges": {}, "series": {}}
        platform.register_function("f", 256 * MIB)
        assert platform.metrics.counters() == {}
        for _ in range(25):
            result = platform.invoke("f")
            platform.complete_invocation(result.instance, 0.01)
        platform.complete_invocation(platform.invoke_instance(result.instance).instance, 0.01)
        assert platform.metrics.snapshot() == {
            "counters": {
                "faas.cold_starts": 1.0,
                "faas.instances_created": 1.0,
                "faas.invocations": 26.0,
            },
            "gauges": {},
            "series": {},
        }
        platform.reclaim_instance(result.instance)
        assert sorted(platform.metrics.counters()) == [
            "faas.cold_starts", "faas.instances_created", "faas.invocations", "faas.reclaims",
        ]
        assert platform.metrics.series_names() == ["faas.reclaim_events"]

    def test_invocation_bookkeeping_is_what_mark_invoked_does(self, platform):
        platform.register_function("f", 256 * MIB)
        platform.simulator.run_until(7.5)
        result = platform.invoke("f")
        assert result.started_at == 7.5 and result.cold_start
        assert result.invoke_overhead_s == (
            COLD_START_OVERHEAD + WARM_INVOCATION_OVERHEAD
        )
        instance = result.instance
        assert (instance.last_invoked_at, instance.invocation_count) == (7.5, 1)
        platform.simulator.run_until(9.0)
        platform.complete_invocation(instance, 0.01)
        assert (instance.last_invoked_at, instance.invocation_count) == (9.0, 1)
        warm = platform.invoke_instance(instance)
        assert not warm.cold_start
        assert warm.invoke_overhead_s == WARM_INVOCATION_OVERHEAD
        assert (instance.last_invoked_at, instance.invocation_count) == (9.0, 2)

    def test_invocation_result_keeps_its_fields_and_keywords(self, platform):
        from repro.faas import InvocationResult

        result = InvocationResult(
            instance=None, cold_start=True, invoke_overhead_s=0.1, started_at=2.0
        )
        assert (result.cold_start, result.invoke_overhead_s, result.started_at) == (True, 0.1, 2.0)


class TestInvocationFaultWindow:
    def test_one_draw_per_invocation_in_call_order(self, platform):
        platform.register_function("f", 256 * MIB)
        platform.register_function("g", 256 * MIB)
        pinned = platform.invoke("g").instance
        platform.complete_invocation(pinned, 0.01)
        rng, twin = random.Random(7), random.Random(7)
        platform.set_invocation_faults(failure_probability=0.3, extra_overhead_s=0.25, rng=rng)
        failures = 0
        for index in range(200):
            expected_failure = twin.random() < 0.3
            try:
                if index % 3 == 2:
                    result = platform.invoke_instance(pinned)
                else:
                    result = platform.invoke("f")
            except InvocationFaultError:
                assert expected_failure
                failures += 1
                continue
            assert not expected_failure
            warm = WARM_INVOCATION_OVERHEAD
            cold = COLD_START_OVERHEAD if result.cold_start else 0.0
            assert result.invoke_overhead_s == pytest.approx(cold + warm + 0.25)
            platform.complete_invocation(result.instance, 0.01)
        assert rng.getstate() == twin.getstate()
        assert 0 < failures < 200
        counters = platform.metrics.counters()
        assert counters["faas.injected_faults"] == failures
        assert counters["faas.invocations"] == 1 + 200 - failures
        assert pinned.state is FunctionState.IDLE  # a failed invocation never started

    def test_checks_before_the_draw_do_not_consume_randomness(self, platform):
        platform.register_function("f", 256 * MIB)
        gone = platform.invoke("f").instance
        platform.reclaim_instance(gone)
        rng = random.Random(1)
        before = rng.getstate()
        platform.set_invocation_faults(failure_probability=0.5, rng=rng)
        with pytest.raises(InvocationError):
            platform.invoke("nope")
        with pytest.raises(FunctionReclaimedError):
            platform.invoke_instance(gone)
        assert rng.getstate() == before

    def test_overhead_only_window_draws_nothing(self, platform):
        platform.register_function("f", 256 * MIB)
        platform.set_invocation_faults(extra_overhead_s=0.5)  # no RNG armed at all
        result = platform.invoke("f")
        assert result.invoke_overhead_s == pytest.approx(
            COLD_START_OVERHEAD + WARM_INVOCATION_OVERHEAD + 0.5
        )
        platform.clear_invocation_faults()
        platform.complete_invocation(result.instance, 0.01)
        assert platform.invoke("f").invoke_overhead_s == WARM_INVOCATION_OVERHEAD
        assert "faas.injected_faults" not in platform.metrics.counters()

    def test_bad_durations_fail_at_completion_and_leave_the_instance_running(self, platform):
        platform.register_function("f", 256 * MIB)
        instance = platform.invoke("f").instance
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                platform.complete_invocation(instance, bad)
        assert instance.state is FunctionState.RUNNING
        assert platform.billing.total_invocations == 0


class TestStateAccess:
    def test_runtime_state_persists_across_invocations(self, platform):
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        platform.instance_state(result.instance)["chunks"] = {"a": b"data"}
        platform.complete_invocation(result.instance, 0.01)
        again = platform.invoke("f")
        assert platform.instance_state(again.instance)["chunks"] == {"a": b"data"}

    def test_state_of_reclaimed_instance_raises(self, platform):
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        platform.reclaim_instance(result.instance)
        with pytest.raises(FunctionReclaimedError):
            platform.instance_state(result.instance)


class TestReclamation:
    def test_reclaim_listener_invoked(self, platform):
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        platform.complete_invocation(result.instance, 0.01)
        reclaimed = []
        platform.on_reclaim(reclaimed.append)
        platform.reclaim_instance(result.instance)
        assert reclaimed == [result.instance]
        assert platform.metrics.counters()["faas.reclaims"] == 1

    def test_reclaim_is_idempotent(self, platform):
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        platform.reclaim_instance(result.instance)
        platform.reclaim_instance(result.instance)
        assert platform.metrics.counters()["faas.reclaims"] == 1

    def test_reclaimed_instances_leave_the_scan_list(self, platform):
        """``invoke`` scans the function's alive instances only: the list
        does not grow with the number of instances ever reclaimed."""
        platform.register_function("f", 256 * MIB)
        busy = platform.invoke("f").instance  # stays RUNNING: peers cold-start
        for _cycle in range(40):
            peer = platform.invoke("f")
            assert peer.cold_start
            platform.complete_invocation(peer.instance, 0.01)
            platform.reclaim_instance(peer.instance)
            assert platform._functions["f"].instances == [busy]
        assert platform.metrics.counters()["faas.cold_starts"] == 41
        assert platform.alive_instances() == [busy]

    def test_reclaim_preserves_creation_order(self, platform):
        platform.register_function("f", 256 * MIB)
        first, second, third = (
            platform.invoke("f", force_new_instance=True).instance for _ in range(3)
        )
        for instance in (first, second, third):
            platform.complete_invocation(instance, 0.01)
        platform.reclaim_instance(second)
        fourth = platform.invoke("f", force_new_instance=True).instance
        platform.complete_invocation(fourth, 0.01)
        assert platform.alive_instances("f") == [first, third, fourth]
        # The first idle instance in creation order serves the next call.
        assert platform.invoke("f").instance is first
        platform.reclaim_instance(first)
        assert platform.invoke("f").instance is third

    def test_reclaimed_mid_invocation_is_still_billed(self, platform):
        platform.register_function("f", 256 * MIB)
        running = platform.invoke("f").instance
        platform.reclaim_instance(running)
        assert platform.alive_instances("f") == []
        platform.complete_invocation(running, 0.25)
        assert platform.billing.total_invocations == 1
        assert platform.billing.total_cost > 0
        assert running.state is FunctionState.RECLAIMED

    def test_reclaim_frees_host(self, platform):
        platform.register_function("f", 3008 * MIB)
        result = platform.invoke("f")
        host = platform.host_manager.host_of(result.instance.instance_id)
        assert host.occupancy == 1
        platform.reclaim_instance(result.instance)
        assert host.occupancy == 0

    def test_sweeps_reclaim_idle_functions(self):
        simulator = Simulator()
        platform = FaaSPlatform(
            simulator, reclamation_policy=IdleTimeoutPolicy(idle_timeout_s=27 * MINUTE)
        )
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        platform.complete_invocation(result.instance, 0.01)
        platform.start_reclamation_sweeps()
        simulator.run_until(1 * HOUR)
        assert not result.instance.is_alive
        assert platform.warm_instance("f") is None

    def test_warm_functions_survive_sweeps(self):
        """The 1-minute warm-up strategy keeps instances alive indefinitely
        under the idle-timeout policy."""
        simulator = Simulator()
        platform = FaaSPlatform(
            simulator, reclamation_policy=IdleTimeoutPolicy(idle_timeout_s=27 * MINUTE)
        )
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        platform.complete_invocation(result.instance, 0.01)

        def warm():
            invocation = platform.invoke("f")
            platform.complete_invocation(invocation.instance, 0.001, "warmup")
            simulator.schedule(MINUTE, warm)

        simulator.schedule(MINUTE, warm)
        platform.start_reclamation_sweeps()
        simulator.run_until(2 * HOUR)
        assert result.instance.is_alive

    def test_stop_reclamation_sweeps(self):
        simulator = Simulator()
        platform = FaaSPlatform(
            simulator,
            reclamation_policy=PoissonReclamationPolicy(SeededRNG(1), 5.0),
        )
        platform.register_function("f", 256 * MIB)
        invocation = platform.invoke("f")
        platform.complete_invocation(invocation.instance, 0.01)
        platform.start_reclamation_sweeps()
        platform.stop_reclamation_sweeps()
        simulator.run_until(10 * MINUTE)
        # Only the already-scheduled sweep may have run; no periodic storm.
        assert platform.metrics.series("faas.reclaims_per_sweep").values.count(0.0) <= 1

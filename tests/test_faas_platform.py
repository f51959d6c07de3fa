"""Tests for the simulated FaaS platform."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.sim import EventLoop
from repro.utils.rng import SeededRNG
from repro.utils.units import HOUR, MINUTE, MIB


@pytest.fixture
def platform() -> FaaSPlatform:
    return FaaSPlatform(EventLoop())


class TestRegistration:
    def test_register_and_lookup(self, platform):
        config = platform.register_function("cache-node-0", 1536 * MIB)
        assert config.memory_bytes == 1536 * MIB
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
        assert len(platform.alive_instances()) == 2

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


def _per_call_warm_up(platform, names):
    """The warm-up loop ``FaaSPlatform.warm_up`` replaces, verbatim."""
    for name in names:
        invocation = platform.invoke(name)
        platform.complete_invocation(invocation.instance, 0.001, "warmup")


def _platform_state(platform):
    """Everything a warm-up may touch, in a form ``==`` compares exactly:
    floats as ``float.hex``, dicts as item lists (key order included)."""
    billing = platform.billing
    return {
        "totals": (
            billing.total_invocations,
            float.hex(billing.total_billed_seconds),
            float.hex(billing.total_gb_seconds),
            float.hex(billing.total_cost),
        ),
        "ledgers": [
            [(key, float.hex(value)) for key, value in ledger.items()]
            for ledger in (
                billing.cost_by_category, billing.cost_by_tenant,
                billing.gb_seconds_by_tenant, billing.invocation_share_by_tenant,
            )
        ],
        "counters": [
            (key, counter.value) for key, counter in platform.metrics._counters.items()
        ],
        "counter_snapshot": platform.metrics.counters(),
        "instances": [
            (
                instance.instance_id, instance.state, instance.invocation_count,
                float.hex(instance.last_invoked_at), float.hex(instance.created_at),
                instance.host_id,
            )
            for instance in platform.alive_instances()
        ],
        "hosts": platform.host_manager.residents_by_host(),
    }


_MEMORY_MIB = (128, 256, 1536, 3008)
_steps = st.one_of(
    st.tuples(st.just("warm"), st.lists(st.integers(0, 5), max_size=12)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 60.0, 61.25])),
    st.tuples(st.just("reclaim"), st.integers(0, 20)),
    st.tuples(st.just("hold"), st.integers(0, 5)),
    st.tuples(st.just("release"), st.integers(0, 20)),
    st.tuples(st.just("arm"), st.integers(0, 2**16), st.sampled_from([0.05, 0.3, 0.5, 1.0])),
    st.tuples(st.just("disarm")),
)


class TestBulkWarmUp:
    """``warm_up`` against the per-call loop it replaces, state for state."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(_MEMORY_MIB), min_size=1, max_size=6),
        st.lists(_steps, min_size=1, max_size=25),
    )
    def test_random_fleets_end_in_the_per_call_state(self, memories, steps):
        bulk, loop = FaaSPlatform(EventLoop()), FaaSPlatform(EventLoop())
        names = [f"f{index}" for index in range(len(memories))]
        sides = []
        for platform in (bulk, loop):
            for name, memory_mib in zip(names, memories):
                platform.register_function(name, memory_mib * MIB)
            sides.append({"platform": platform, "held": [], "rng": random.Random(0)})
        bulk_side, loop_side = sides
        for step in steps:
            outcomes = []
            for side in sides:
                platform, held = side["platform"], side["held"]
                outcome = None
                try:
                    if step[0] == "warm":
                        batch = [names[index % len(names)] for index in step[1]]
                        if side is bulk_side:
                            platform.warm_up(batch)
                        else:
                            _per_call_warm_up(platform, batch)
                    elif step[0] == "advance":
                        platform.simulator.run_until(platform.simulator.now + step[1])
                    elif step[0] == "reclaim":
                        alive = platform.alive_instances()
                        if alive:
                            platform.reclaim_instance(alive[step[1] % len(alive)])
                    elif step[0] == "hold":
                        # Left RUNNING: the next warm-up of it cold-starts a peer.
                        held.append(platform.invoke(names[step[1] % len(names)]).instance)
                    elif step[0] == "release" and held:
                        instance = held.pop(step[1] % len(held))
                        platform.complete_invocation(instance, 0.05, "serving", {"t": 1.0})
                    elif step[0] == "arm":
                        side["rng"] = random.Random(step[1])
                        platform.set_invocation_faults(
                            failure_probability=step[2], rng=side["rng"]
                        )
                    elif step[0] == "disarm":
                        platform.clear_invocation_faults()
                except InvocationFaultError as error:
                    outcome = str(error)
                outcomes.append(outcome)
            assert outcomes[0] == outcomes[1], step
            assert _platform_state(bulk) == _platform_state(loop), step
            assert bulk_side["rng"].getstate() == loop_side["rng"].getstate(), step
        assert bulk_side["rng"].random() == loop_side["rng"].random()

    def test_a_fault_mid_batch_leaves_the_warmed_prefix_billed(self, platform):
        platform.register_function("f", 256 * MIB)
        platform.register_function("g", 1536 * MIB)
        rng, twin = random.Random(17), random.Random(17)
        # Seed 17's fourth draw is the first below 0.5: "f", "g", "f" warm.
        assert [twin.random() < 0.5 for _ in range(4)] == [False, False, False, True]
        platform.set_invocation_faults(failure_probability=0.5, rng=rng)
        with pytest.raises(InvocationFaultError) as raised:
            platform.warm_up(["f", "g"] * 4)
        assert raised.value.function_name == "g"
        assert platform.billing.total_invocations == 3
        assert list(platform.metrics._counters) == [
            "faas.instances_created", "faas.cold_starts",
            "faas.invocations", "faas.injected_faults",
        ]
        assert platform.metrics.counters() == {
            "faas.cold_starts": 2.0, "faas.injected_faults": 1.0,
            "faas.instances_created": 2.0, "faas.invocations": 3.0,
        }
        assert [
            (instance.instance_id, instance.state, instance.invocation_count)
            for instance in platform.alive_instances()
        ] == [("f@0", FunctionState.IDLE, 2), ("g@0", FunctionState.IDLE, 1)]
        assert rng.random() == twin.random()  # four draws, not more

    def test_counters_are_created_in_the_per_call_order(self, platform):
        platform.register_function("f", 256 * MIB)
        platform.register_function("g", 256 * MIB)
        platform.warm_up(["f", "g", "f"])
        assert list(platform.metrics._counters) == [
            "faas.instances_created", "faas.cold_starts", "faas.invocations",
        ]
        assert platform.metrics.counters() == {
            "faas.cold_starts": 2.0, "faas.instances_created": 2.0, "faas.invocations": 3.0,
        }

    @pytest.mark.parametrize("names", [["f", "ghost", "g"], ["f", "g", "ghost"], ["ghost"]])
    def test_an_unknown_name_leaves_the_platform_untouched(self, platform, names):
        platform.register_function("f", 256 * MIB)
        platform.register_function("g", 512 * MIB)
        platform.warm_up(["f"])
        platform.invoke("g")  # left RUNNING: a valid batch would cold-start a peer
        rng = random.Random(11)
        platform.set_invocation_faults(failure_probability=0.01, rng=rng)
        before, rng_state = _platform_state(platform), rng.getstate()
        with pytest.raises(InvocationError):
            platform.warm_up(names)
        assert _platform_state(platform) == before
        assert rng.getstate() == rng_state

    def test_one_charge_per_run_of_equal_memory(self, platform, monkeypatch):
        for name, memory_mib in (("a", 256), ("b", 256), ("c", 1536), ("d", 256)):
            platform.register_function(name, memory_mib * MIB)
        calls = []
        monkeypatch.setattr(
            platform.billing, "charge_invocations",
            lambda memory_bytes, duration_s, count, category: calls.append(
                (memory_bytes // MIB, count, category)
            ),
        )
        platform.warm_up(["a", "b", "c", "d", "a", "a"])
        assert calls == [(256, 2, "warmup"), (1536, 1, "warmup"), (256, 3, "warmup")]

    def test_an_empty_round_changes_nothing(self, platform):
        platform.register_function("f", 256 * MIB)
        before = _platform_state(platform)
        platform.warm_up([])
        assert _platform_state(platform) == before


class TestStateAccess:
    def test_runtime_state_persists_across_invocations(self, platform):
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        result.instance.runtime_state["chunks"] = {"a": b"data"}
        platform.complete_invocation(result.instance, 0.01)
        again = platform.invoke("f")
        assert again.instance.runtime_state["chunks"] == {"a": b"data"}

    def test_reclaimed_instance_loses_its_state(self, platform):
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        result.instance.runtime_state["chunks"] = {"a": b"data"}
        platform.reclaim_instance(result.instance)
        assert not result.instance.is_alive
        assert result.instance.runtime_state == {}


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
        simulator = EventLoop()
        platform = FaaSPlatform(
            simulator, reclamation_policy=IdleTimeoutPolicy(idle_timeout_s=27 * MINUTE)
        )
        platform.register_function("f", 256 * MIB)
        result = platform.invoke("f")
        platform.complete_invocation(result.instance, 0.01)
        platform.start_reclamation_sweeps()
        simulator.run_until(1 * HOUR)
        assert not result.instance.is_alive
        assert platform.alive_instances("f") == []

    def test_warm_functions_survive_sweeps(self):
        """The 1-minute warm-up strategy keeps instances alive indefinitely
        under the idle-timeout policy."""
        simulator = EventLoop()
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
        simulator = EventLoop()
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

"""Tests for the chaos engine, the supervised request path, and resilience
accounting: determinism of injected faults, retry/hedge/breaker behaviour,
graceful degradation, the supervisor's invisibility when nothing fails,
billing invariants under faults, and the failure detector's robustness to
nodes dying inside its own repair sweep."""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.s3 import ObjectStore
from repro.cache.config import InfiniCacheConfig, ResilienceConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.cache.node import LambdaCacheNode
from repro.cache.proxy import (
    RETRY_BACKOFF_MULTIPLIER,
    RETRY_BASE_BACKOFF_S,
    RETRY_JITTER_FRACTION,
)
from repro.cluster.rebalancer import FailureDetector
from repro.exceptions import ConfigurationError, InvocationFaultError
from repro.experiments.chaos_availability import hardening_levels
from repro.faas.billing import BILLING_CYCLE_SECONDS
from repro.faults import (
    BLACKHOLE_FACTOR,
    ChaosEngine,
    FaultSchedule,
    FaultWindow,
    InvocationFaults,
    LinkBlackhole,
    LinkDegradation,
    ProxyCrash,
    ReclamationStorm,
    StragglerInflation,
    run_chaos_scenario,
)
from repro.faults.scenario import demo_config, demo_plans, demo_resilience
from repro.utils.units import MB, MIB
from repro.workload.replay import ClientOp, ClosedLoopDriver


def run_scenario(schedule, *, clients=4, rounds=10, seed=2020, config=None):
    """A short chaos replay: enough rounds to span a sub-30 s schedule."""
    return run_chaos_scenario(
        seed=seed, schedule=schedule, config=config, clients=clients, rounds=rounds,
    )


# --------------------------------------------------------------------------- specs
class TestFaultSpecs:
    def test_schedule_sorts_by_activation_time(self):
        schedule = FaultSchedule((
            ProxyCrash(at_s=50.0),
            ReclamationStorm(at_s=10.0),
            LinkBlackhole(at_s=30.0, duration_s=5.0),
        ))
        assert [fault.at_s for fault in schedule] == [10.0, 30.0, 50.0]
        assert len(schedule) == 3

    def test_describe_lists_every_fault(self):
        schedule = FaultSchedule((
            ReclamationStorm(at_s=1.0, fraction=0.5, correlated=True),
            InvocationFaults(at_s=2.0, duration_s=3.0),
        ))
        described = schedule.describe()
        assert [entry["kind"] for entry in described] == [
            "ReclamationStorm", "InvocationFaults",
        ]
        assert described[0]["correlated"] is True

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            ReclamationStorm(at_s=-1.0)
        with pytest.raises(ConfigurationError):
            ReclamationStorm(at_s=0.0, fraction=0.0)
        with pytest.raises(ConfigurationError):
            LinkDegradation(at_s=0.0, duration_s=5.0, factor=1.0)
        with pytest.raises(ConfigurationError):
            LinkBlackhole(at_s=0.0, duration_s=0.0)
        with pytest.raises(ConfigurationError):
            InvocationFaults(at_s=0.0, duration_s=5.0, failure_probability=0.0)
        with pytest.raises(ConfigurationError):
            StragglerInflation(at_s=0.0, duration_s=5.0, min_factor=4.0, max_factor=2.0)
        with pytest.raises(ConfigurationError):
            FaultSchedule(("not a fault",))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("build", [
        lambda bad: ReclamationStorm(at_s=bad),
        lambda bad: LinkDegradation(at_s=bad, duration_s=5.0),
        lambda bad: LinkDegradation(at_s=0.0, duration_s=bad),
        lambda bad: LinkBlackhole(at_s=bad, duration_s=5.0),
        lambda bad: LinkBlackhole(at_s=0.0, duration_s=bad),
        lambda bad: InvocationFaults(at_s=bad, duration_s=5.0),
        lambda bad: InvocationFaults(at_s=0.0, duration_s=bad),
        lambda bad: InvocationFaults(at_s=0.0, duration_s=5.0, extra_overhead_s=bad),
        lambda bad: StragglerInflation(at_s=bad, duration_s=5.0),
        lambda bad: StragglerInflation(at_s=0.0, duration_s=bad),
        lambda bad: StragglerInflation(at_s=0.0, duration_s=5.0, max_factor=bad),
        lambda bad: StragglerInflation(at_s=0.0, duration_s=5.0, min_factor=bad),
        lambda bad: ProxyCrash(at_s=bad),
        lambda bad: ProxyCrash(at_s=0.0, down_s=bad),
    ], ids=[
        "storm-at", "degradation-at", "degradation-duration", "blackhole-at",
        "blackhole-duration", "invocation-at", "invocation-duration",
        "invocation-overhead", "straggler-at", "straggler-duration",
        "straggler-max-factor", "straggler-min-factor", "crash-at", "crash-down",
    ])
    def test_non_finite_times_fail_at_declaration(self, build, bad):
        # Accepted before, they failed only when the engine scheduled the
        # window, with a bare "event time must be finite".
        with pytest.raises(ConfigurationError, match="finite"):
            build(bad)

    @pytest.mark.parametrize("windows", [
        # The reproduced bug: the degradation's restore at t = 11 s wrote
        # factor 1.0 over a blackhole that runs to t = 15 s.
        (LinkDegradation(at_s=1, duration_s=10, host_fraction=1.0, factor=0.5),
         LinkBlackhole(at_s=5, duration_s=10, host_fraction=1.0)),
        (LinkBlackhole(at_s=5.0, duration_s=10.0), LinkBlackhole(at_s=0.0, duration_s=5.0)),
        (InvocationFaults(at_s=0.0, duration_s=30.0), InvocationFaults(at_s=10.0, duration_s=5.0)),
        (StragglerInflation(at_s=2.0, duration_s=4.0), StragglerInflation(at_s=6.0, duration_s=4.0)),
    ], ids=["degradation-over-blackhole", "links-touch", "invocation-nested", "stragglers-touch"])
    def test_windows_over_the_same_state_may_not_overlap_or_touch(self, windows):
        with pytest.raises(ConfigurationError) as raised:
            FaultSchedule(windows)
        # Both windows are named, in activation order.
        first, second = sorted(windows, key=lambda fault: fault.at_s)
        assert str(raised.value).index(str(first)) < str(raised.value).index(str(second))

    def test_windows_with_a_gap_or_over_different_state_are_accepted(self):
        schedule = FaultSchedule((
            LinkDegradation(at_s=1.0, duration_s=10.0, factor=0.5),
            LinkBlackhole(at_s=11.5, duration_s=10.0),
            # Different state: free to overlap the link windows and each other.
            InvocationFaults(at_s=5.0, duration_s=10.0),
            StragglerInflation(at_s=5.0, duration_s=10.0),
            InvocationFaults(at_s=15.5, duration_s=1.0),
            ProxyCrash(at_s=5.0, down_s=10.0),
            ReclamationStorm(at_s=5.0),
        ))
        assert len(schedule) == 7

    def test_link_windows_with_a_gap_each_restore_their_own_hosts(self):
        deployment = InfiniCacheDeployment(demo_config())
        ChaosEngine(deployment, FaultSchedule((
            LinkDegradation(at_s=1.0, duration_s=4.0, host_fraction=1.0, factor=0.5),
            LinkBlackhole(at_s=6.0, duration_s=4.0, host_fraction=1.0),
        ))).install()
        deployment.start()
        for proxy in deployment.proxies:  # functions, and so VM hosts, exist
            proxy.warm_up_pool(0.0)
        nics = deployment.transfer_model.fabric.hosts

        def factors(at_s):
            deployment.simulator.run_until(at_s)
            return {nic.degradation_factor for nic in nics.values()}

        assert factors(3.0) == {0.5}
        assert factors(5.5) == {1.0}
        assert factors(8.0) == {BLACKHOLE_FACTOR}
        assert factors(11.0) == {1.0}


# --------------------------------------------------------------------------- engine determinism
class TestChaosDeterminism:
    def test_same_seed_same_schedule_same_fingerprint(self):
        schedule = FaultSchedule((
            ReclamationStorm(at_s=5.0, fraction=0.4, correlated=True),
            InvocationFaults(at_s=10.0, duration_s=8.0, failure_probability=0.5),
        ))
        first = run_scenario(schedule)
        second = run_scenario(schedule)
        assert first.fingerprint == second.fingerprint
        assert first.resilience.to_dict() == second.resilience.to_dict()

    def test_different_seeds_diverge(self):
        schedule = FaultSchedule((ReclamationStorm(at_s=5.0, fraction=0.4),))
        assert (
            run_scenario(schedule, seed=1).fingerprint
            != run_scenario(schedule, seed=2).fingerprint
        )

    def test_empty_schedule_is_invisible(self):
        """Installing an engine with no faults must leave the run
        event-for-event identical to one with no engine at all."""

        def run(with_engine: bool) -> str:
            deployment = InfiniCacheDeployment(demo_config(seed=7))
            if with_engine:
                ChaosEngine(deployment, FaultSchedule(())).install()
            driver = ClosedLoopDriver(deployment, warm_pool=True)
            return driver.run(demo_plans(clients=3, rounds=6)).fingerprint()

        assert run(with_engine=True) == run(with_engine=False)

    def test_engine_refuses_double_install(self):
        deployment = InfiniCacheDeployment(demo_config(seed=7))
        engine = ChaosEngine(deployment, FaultSchedule(()))
        engine.install()
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            engine.install()

    def test_faults_recorded_as_tracer_spans(self):
        schedule = FaultSchedule((
            ReclamationStorm(at_s=5.0, fraction=0.3),
            LinkBlackhole(at_s=8.0, duration_s=4.0, host_fraction=0.5),
        ))
        deployment = InfiniCacheDeployment(demo_config(seed=7))
        from repro.obs import SpanTracer

        tracer = SpanTracer(deployment.simulator.clock)
        deployment.request_env.attach_tracer(tracer)
        engine = ChaosEngine(deployment, schedule)
        engine.install()
        driver = ClosedLoopDriver(deployment, warm_pool=True)
        driver.run(demo_plans(clients=3, rounds=6))
        names = {span.name for span in tracer.spans}
        assert "fault.storm" in names
        assert "fault.blackhole" in names
        assert len(engine.windows) == 2


# --------------------------------------------------------------------------- hardened path
class TestHardenedRequestPath:
    def test_retries_absorb_invocation_faults(self):
        schedule = FaultSchedule((
            InvocationFaults(at_s=3.0, duration_s=10.0, failure_probability=0.5),
        ))
        result = run_scenario(schedule)
        report = result.resilience
        assert report.requests == 40
        assert report.counters.get("proxy.chunk_retries", 0) > 0
        assert report.counters.get("faas.injected_faults", 0) > 0

    def test_hedging_fires_under_blackhole(self):
        schedule = FaultSchedule((
            LinkBlackhole(at_s=3.0, duration_s=12.0, host_fraction=1.0),
        ))
        result = run_scenario(schedule)
        report = result.resilience
        assert report.requests == 40
        assert report.counters.get("proxy.chunk_hedges", 0) > 0

    def test_breaker_opens_under_sustained_faults(self):
        schedule = FaultSchedule((
            InvocationFaults(at_s=3.0, duration_s=15.0, failure_probability=1.0),
        ))
        result = run_scenario(schedule)
        report = result.resilience
        assert report.requests == 40
        assert report.counters.get("proxy.breaker_rejections", 0) > 0
        # With every invocation failing, some GETs must fall back.
        assert report.degraded_hits > 0

    def test_degraded_fallback_serves_from_backing_store(self):
        """Every request completes even when no chunk quorum is reachable;
        the unreachable ones count as degraded hits, not errors."""
        schedule = FaultSchedule((
            LinkBlackhole(at_s=3.0, duration_s=12.0, host_fraction=1.0),
            InvocationFaults(at_s=3.0, duration_s=12.0, failure_probability=0.8),
        ))
        result = run_scenario(schedule)
        assert result.replay.requests == 40
        assert result.replay.degraded_hits > 0
        window_degraded = sum(
            stats.degraded_hits for stats in result.resilience.windows
        )
        assert window_degraded >= result.replay.degraded_hits > 0

    def test_degraded_object_stays_repairable(self):
        """A degraded GET leaves the mapping intact: once the fault clears,
        later GETs for the same keys hit the cache again."""
        schedule = FaultSchedule((
            InvocationFaults(at_s=2.0, duration_s=8.0, failure_probability=1.0),
        ))
        result = run_scenario(schedule, clients=3, rounds=14)
        report = result.resilience
        assert report.degraded_hits > 0
        window = report.windows[0]
        assert window.recovery_s is not None

    def test_recovery_after_correlated_storm(self):
        schedule = FaultSchedule((
            ReclamationStorm(at_s=6.0, fraction=0.5, correlated=True),
        ))
        result = run_scenario(schedule)
        assert result.replay.requests == 40
        storm = result.resilience.windows[0]
        assert storm.window.details["reclaimed"] > 0
        assert storm.recovery_s is not None

    def test_unconfigured_resilience_installs_no_breaker_or_retry(self):
        config = dataclasses.replace(demo_config(5), resilience=None)
        assert config.resilience is None
        deployment = InfiniCacheDeployment(config)
        for proxy in deployment.proxies:
            assert proxy.resilience.chunk_attempts == 1
            assert proxy.resilience.chunk_timeout_s is None
            assert all(node.breaker is None for node in proxy.nodes)

    def test_retry_backoff_doubles_from_ten_ms_with_bounded_jitter(self, monkeypatch):
        """Three of six chunks always fault, so no quorum forms and every
        failing chunk spends its whole budget: the n-th retry waits
        10 ms x 2^(n-1), stretched by at most half again."""
        deployment = InfiniCacheDeployment(InfiniCacheConfig(
            lambdas_per_proxy=10,
            lambda_memory_bytes=512 * MIB,
            data_shards=4,
            parity_shards=2,
            straggler=StragglerModel(probability=0.0),
            resilience=ResilienceConfig(chunk_attempts=3),
            seed=11,
        ))
        client = deployment.new_client()
        placement = client.put_sized("obj", 2 * MB).node_ids
        proxy = deployment.proxies[0]
        attempts: dict[str, list[float]] = {}

        def always_faulting(node):
            def ensure_active(now, category="serving"):
                attempts.setdefault(node.node_id, []).append(now)
                raise InvocationFaultError(node.node_id)
            return ensure_active

        for node_id in placement[:3]:
            node = proxy.node(node_id)
            monkeypatch.setattr(node, "ensure_active", always_faulting(node))
        loop = deployment.simulator
        request = loop.spawn(client.get_process("obj", deployment.request_env))
        result = loop.run_until_complete(request)
        assert result.degraded
        assert sorted(attempts) == sorted(placement[:3])
        for times in attempts.values():
            assert len(times) == 3
            for retry, (before, after) in enumerate(zip(times, times[1:])):
                backoff = RETRY_BASE_BACKOFF_S * RETRY_BACKOFF_MULTIPLIER ** retry
                assert backoff <= after - before <= backoff * (1 + RETRY_JITTER_FRACTION)
        assert (RETRY_BASE_BACKOFF_S, RETRY_BACKOFF_MULTIPLIER, RETRY_JITTER_FRACTION) == (
            0.010, 2.0, 0.5,
        )

    def test_hardened_run_without_faults_stays_healthy(self):
        result = run_scenario(FaultSchedule(()))
        assert result.replay.requests == 40
        assert result.replay.degraded_hits == 0
        assert result.resilience.counters.get("proxy.chunk_faults", 0) == 0
        assert result.resilience.slo_delta("p99") == 0.0


# --------------------------------------------------------------------------- one request path
FAULT_FREE = FaultSchedule(())


@pytest.fixture(scope="module")
def unconfigured_fault_free_fingerprint():
    config = dataclasses.replace(demo_config(7), resilience=None)
    return run_scenario(FAULT_FREE, seed=7, config=config, clients=5, rounds=20).fingerprint


class TestSingleRequestPath:
    """There is one event-driven request path; ``ResilienceConfig`` only sets
    its budget.  The supervisor must be invisible until something fails, and
    an unconfigured deployment must absorb faults instead of aborting the
    run."""

    @pytest.mark.parametrize("level", list(hardening_levels()))
    def test_fault_free_replay_is_identical_at_every_level(
        self, level, unconfigured_fault_free_fingerprint
    ):
        config = dataclasses.replace(
            demo_config(seed=7), resilience=hardening_levels()[level]
        )
        result = run_scenario(FAULT_FREE, seed=7, config=config, clients=5, rounds=20)
        assert result.fingerprint == unconfigured_fault_free_fingerprint

    def test_unconfigured_get_spawns_one_process_per_chunk(self, monkeypatch):
        """No deadline means nothing to race: the supervisor *is* the chunk's
        one process, with no attempt process or timer beside it.  Under the
        demo budget (retries, a 1 s deadline, breakers) every attempt still
        runs in that one process; the only other process is a hedge, one per
        deadline that fires."""
        for resilience, factors in (
            (None, None),
            (demo_resilience(), None),
            # Chunks 3-5 take 1.6 s, past their deadline: three hedges.
            (demo_resilience(), [1.0, 1.0, 1.0, 200.0, 200.0, 200.0, 1.0, 1.0, 1.0]),
        ):
            deployment = make_detector_deployment(resilience=resilience)
            client = deployment.new_client()
            client.put_sized("obj", 2 * MB)
            if factors is not None:
                draws = iter(factors)
                monkeypatch.setattr(
                    deployment.proxies[0], "_straggler_factor", lambda: next(draws)
                )
            loop = deployment.simulator
            labels: list[str] = []
            spawn = loop.spawn

            def counting_spawn(generator, label="", spawn=spawn, labels=labels):
                labels.append(label)
                return spawn(generator, label=label)

            monkeypatch.setattr(loop, "spawn", counting_spawn)
            request = spawn(client.get_process("obj", deployment.request_env))
            assert loop.run_until_complete(request).hit
            total_chunks = deployment.config.total_chunks
            hedges = deployment.counters().get("proxy.chunk_hedges", 0)
            assert hedges == (0 if factors is None else 3)
            assert len(labels) == total_chunks + hedges
            assert all(":fetch:obj#" in label for label in labels)

    def test_unconfigured_deployment_survives_invocation_faults(self):
        """With no retry configured a faulted chunk attempt is simply
        unreachable; the fault must not escape ``run_until_complete``."""
        schedule = FaultSchedule((
            InvocationFaults(at_s=3.0, duration_s=10.0, failure_probability=0.5),
        ))
        result = run_scenario(
            schedule, seed=5,
            config=dataclasses.replace(demo_config(5), resilience=None),
            clients=4, rounds=10,
        )
        assert result.replay.requests == 40
        assert len(result.replay.samples) == 40
        assert result.replay.degraded_hits == 5
        assert result.resilience.counters["proxy.chunk_faults"] > 0
        assert result.resilience.counters.get("proxy.chunk_retries", 0) == 0

    @pytest.mark.parametrize("event_driven", [True, False])
    def test_repair_fault_during_degraded_read_is_absorbed(
        self, monkeypatch, event_driven
    ):
        """A replacement node that fails to come up mid-repair leaves the
        stale placement for the next sweep; the GET itself still hits."""
        deployment = make_detector_deployment()
        client = deployment.new_client()
        placement = client.put_sized("obj", 2 * MB).node_ids
        proxy = deployment.proxies[0]
        kill_node(deployment, proxy.node(placement[0]))
        original = LambdaCacheNode.ensure_active

        def fail_replacements(self, now, category="serving"):
            if self.node_id not in placement:
                raise InvocationFaultError(self.node_id)
            return original(self, now, category)

        monkeypatch.setattr(LambdaCacheNode, "ensure_active", fail_replacements)
        if event_driven:
            loop = deployment.simulator
            request = loop.spawn(client.get_process("obj", deployment.request_env))
            result = loop.run_until_complete(request)
        else:
            result = client.get("obj")
        assert result.hit and result.chunks_lost == 1
        assert not result.recovery_performed
        assert deployment.counters()["proxy.repair_faults"] == 1
        assert proxy.contains("obj")


# --------------------------------------------------------------------------- the deadline race
@dataclasses.dataclass
class RaceRun:
    """What one scripted deadline-bounded GET left behind."""

    result: object
    #: ``proxy.*`` counters after the GET.
    counters: dict
    #: ``(chunk index, completed, started_at, ended_at)`` per flow, in
    #: retirement order: abandoned flows appear in the order they were cancelled.
    flows: list
    #: ``(node, started_at, duration_s, requests_served, busy_s)`` per closed
    #: billed session, by node.
    sessions: list


def race_get(monkeypatch, record_charges, factors, *, parity_shards=0,
             faulting_invocations=()):
    """One GET of a 2 MB object under a 1 s chunk deadline, scripted.

    Each chunk attempt's straggler factor is the next of ``factors`` (in
    attempt order: every chunk's first attempt at t = 0, then hedges and
    retries as they start).  A factor of 1 moves the chunk in 31 ms, 40 in
    1.24 s and 100 in 3.1 s.  The n-th invocation after the PUT raises an
    :class:`InvocationFaultError` when n is in ``faulting_invocations``.
    """
    deployment = InfiniCacheDeployment(InfiniCacheConfig(
        num_proxies=1,
        lambdas_per_proxy=4,
        lambda_memory_bytes=512 * MIB,
        data_shards=1,
        parity_shards=parity_shards,
        straggler=StragglerModel(probability=0.0),
        resilience=ResilienceConfig(chunk_attempts=3, chunk_timeout_s=1.0),
        seed=11,
    ))
    proxy = deployment.proxies[0]
    charges = {
        node.node_id: record_charges(node.duration_controller) for node in proxy.nodes
    }
    deployment.start()
    deployment.new_client().put_sized("obj", 2 * MB)
    draws = iter(factors)
    monkeypatch.setattr(proxy, "_straggler_factor", lambda: next(draws))
    invocations = []
    ensure_active = LambdaCacheNode.ensure_active

    def scripted_ensure_active(self, now, category="serving"):
        invocations.append(now)
        if len(invocations) in faulting_invocations:
            raise InvocationFaultError(self.node_id)
        return ensure_active(self, now, category)

    monkeypatch.setattr(LambdaCacheNode, "ensure_active", scripted_ensure_active)
    loop = deployment.simulator
    marker = deployment.flows.trace_marker()
    request = loop.spawn(proxy.get_process("obj", deployment.request_env))
    result = loop.run_until_complete(request)
    assert next(draws, None) is None, "a scripted attempt never started"
    flows = [
        (int(interval.label.rpartition("#")[2]), interval.completed,
         interval.started_at, interval.ended_at)
        for interval in deployment.flows.trace_since(marker)
    ]
    counters = {
        name: value for name, value in deployment.counters().items()
        if name.startswith("proxy.")
    }
    deployment.stop()
    sessions = [
        (node.node_id, charge.started_at, charge.duration_s, charge.requests_served,
         sum(charge.busy_by_tenant.values()))
        for node in proxy.nodes
        for charge in charges[node.node_id]
    ]
    return RaceRun(result, counters, flows, sessions)


class TestChunkDeadlineRace:
    """Every branch of a chunk attempt racing its deadline and its hedge.

    Each case pins the ``proxy.*`` counters, every fetch's ``time_s``, the
    flow trace (completed and abandoned records, in retirement order) and
    the billed sessions, so a rewrite of the race that moves any event,
    reorders a cancellation or bills differently fails here.
    """

    def test_attempt_lands_before_its_deadline(self, monkeypatch, record_charges):
        run = race_get(monkeypatch, record_charges, [1.0])
        assert not run.result.is_miss
        assert run.counters == {"proxy.hits": 1.0, "proxy.puts": 1.0}
        assert [(f.time_s, f.abandoned) for f in run.result.fetches] == [
            (0.032927835051546395, False),
        ]
        assert run.flows == [(0, True, 0.002, 0.032927835051546395)]
        assert run.sessions == [
            ("proxy-0-lambda-0003", 0.0, 0.195, 2, 0.06385567010309279),
        ]

    def test_original_beats_its_hedge(self, monkeypatch, record_charges):
        run = race_get(monkeypatch, record_charges, [40.0, 40.0])
        assert not run.result.is_miss
        assert run.counters == {
            "proxy.chunk_hedges": 1.0, "proxy.hits": 1.0, "proxy.puts": 1.0,
        }
        assert [(f.time_s, f.abandoned) for f in run.result.fetches] == [
            (1.2391134020618557, False),
        ]
        # The original completes; the hedge (started after the deadline and
        # the hedge's preamble) is abandoned at the same instant.
        assert run.flows == [
            (0, True, 0.002, 1.2391134020618557),
            (0, False, 1.014, 1.2391134020618557),
        ]
        assert run.sessions == [
            ("proxy-0-lambda-0003", 0.0, 0.995, 1, 0.031927835051546394),
            ("proxy-0-lambda-0003", 0.001000000000000112, 1.3940000000000001, 2,
             1.4642268041237112),
        ]

    def test_hedge_lands_first(self, monkeypatch, record_charges):
        run = race_get(monkeypatch, record_charges, [100.0, 1.0])
        assert not run.result.is_miss
        assert run.counters == {
            "proxy.chunk_hedges": 1.0, "proxy.hits": 1.0, "proxy.puts": 1.0,
        }
        # The fetch is the original's: abandoned when the hedge landed.
        assert run.result.latency_s == 1.0449278350515465
        assert [(f.time_s, f.abandoned) for f in run.result.fetches] == [
            (1.0449278350515465, False),
        ]
        assert run.flows == [
            (0, True, 1.014, 1.0449278350515465),
            (0, False, 0.002, 1.0449278350515465),
        ]
        assert run.sessions == [
            ("proxy-0-lambda-0003", 0.0, 0.995, 1, 0.031927835051546394),
            ("proxy-0-lambda-0003", 1.013, 0.18200000000000027, 2, 1.0758556701030928),
        ]

    def test_faulted_hedge_ends_the_pair_and_the_chunk_retries(self, monkeypatch, record_charges):
        """The hedge's invocation faults: the pair ends with nothing at once,
        the still-running original is abandoned, and the retry lands."""
        run = race_get(monkeypatch, record_charges, [100.0, 1.0, 1.0], faulting_invocations=(2,))
        assert not run.result.is_miss
        assert run.counters == {
            "proxy.chunk_faults": 1.0, "proxy.chunk_hedges": 1.0,
            "proxy.chunk_retries": 1.0, "proxy.hits": 1.0, "proxy.puts": 1.0,
        }
        assert run.result.latency_s == 1.0456057300298673
        assert [(f.time_s, f.abandoned) for f in run.result.fetches] == [
            (0.032927835051546506, False),
        ]
        assert run.flows == [
            (0, False, 0.002, 1.0),
            (0, True, 1.0146778949783208, 1.0456057300298673),
        ]
        assert run.sessions == [
            ("proxy-0-lambda-0003", 0.0, 1.1950000000000003, 3, 1.062855670103093),
        ]

    def test_pair_timeout_backs_off_and_retries(self, monkeypatch, record_charges):
        """Neither side lands by the hedge deadline: both are abandoned, the
        original's flow first, and the retry after the backoff lands."""
        run = race_get(monkeypatch, record_charges, [100.0, 100.0, 1.0])
        assert not run.result.is_miss
        assert run.counters == {
            "proxy.chunk_hedges": 1.0, "proxy.chunk_retries": 1.0,
            "proxy.hits": 1.0, "proxy.puts": 1.0,
        }
        assert run.result.latency_s == 2.045605730029867
        assert [(f.time_s, f.abandoned) for f in run.result.fetches] == [
            (0.03292783505154606, False),
        ]
        assert run.flows == [
            (0, False, 0.002, 2.0),
            (0, False, 1.014, 2.0),
            (0, True, 2.0146778949783206, 2.045605730029867),
        ]
        assert run.sessions == [
            ("proxy-0-lambda-0003", 0.0, 0.995, 1, 0.031927835051546394),
            ("proxy-0-lambda-0003", 0.001000000000000112, 2.194, 3, 3.017927835051546),
        ]

    def test_quorum_cancels_a_chunk_with_its_hedge_in_flight(self, monkeypatch, record_charges):
        """RS(1+1): both chunks pass their deadline and hedge; chunk 1's
        original lands first, which completes the quorum and abandons chunk
        0's original and then its hedge."""
        run = race_get(
            monkeypatch, record_charges, [100.0, 40.0, 100.0, 100.0], parity_shards=1,
        )
        assert not run.result.is_miss
        assert run.counters == {
            "proxy.chunk_hedges": 2.0, "proxy.hits": 1.0, "proxy.puts": 1.0,
        }
        assert [(f.time_s, f.abandoned) for f in run.result.fetches] == [
            (1.3051466666666667, True),
            (1.3051466666666667, False),
        ]
        assert run.flows == [
            (1, True, 0.002, 1.3051466666666667),
            (1, False, 1.014, 1.3051466666666667),
            (0, False, 0.002, 1.3051466666666667),
            (0, False, 1.014, 1.3051466666666667),
        ]
        assert run.sessions == [
            ("proxy-0-lambda-0002", 0.0, 0.995, 1, 0.031927835051546394),
            ("proxy-0-lambda-0002", 0.001000000000000112, 1.4940000000000002, 2,
             1.5962933333333331),
            ("proxy-0-lambda-0003", 0.0, 0.995, 1, 0.031927835051546394),
            ("proxy-0-lambda-0003", 0.001000000000000112, 1.4940000000000002, 2,
             1.5962933333333331),
        ]


# --------------------------------------------------------------------------- fuzzed schedules
_AT = st.floats(min_value=0.0, max_value=14.0).map(lambda value: round(value, 3))
_DURATION = st.floats(min_value=0.25, max_value=8.0).map(lambda value: round(value, 3))
_FRACTION = st.floats(min_value=0.05, max_value=1.0).map(lambda value: round(value, 3))

FAULT_SPECS = st.one_of(
    st.builds(ReclamationStorm, at_s=_AT, fraction=_FRACTION, correlated=st.booleans()),
    st.builds(LinkDegradation, at_s=_AT, duration_s=_DURATION, host_fraction=_FRACTION,
              factor=st.sampled_from([0.01, 0.1, 0.5])),
    st.builds(LinkBlackhole, at_s=_AT, duration_s=_DURATION, host_fraction=_FRACTION),
    st.builds(InvocationFaults, at_s=_AT, duration_s=_DURATION,
              failure_probability=st.sampled_from([0.1, 0.5, 1.0]),
              extra_overhead_s=st.sampled_from([0.0, 0.05])),
    st.builds(
        lambda at_s, duration_s, probability, factors: StragglerInflation(
            at_s, duration_s, probability, min(factors), max(factors)
        ),
        _AT, _DURATION, _FRACTION,
        st.tuples(st.sampled_from([1.0, 2.0, 4.0]), st.sampled_from([2.0, 8.0, 16.0])),
    ),
    st.builds(ProxyCrash, at_s=_AT, down_s=_DURATION, proxy_index=st.integers(0, 3)),
)


@st.composite
def fault_schedules(draw):
    """A valid schedule: drawn specs, each kept only if the schedule stays
    valid with it (windows over the same state may not overlap or touch)."""
    kept: tuple = ()
    for spec in draw(st.lists(FAULT_SPECS, max_size=5)):
        try:
            FaultSchedule(kept + (spec,))
        except ConfigurationError:
            continue
        kept += (spec,)
    return FaultSchedule(kept)


def fuzz_replay(schedule):
    """Four clients mixing PUTs and GETs on the hardened demo deployment."""
    deployment = InfiniCacheDeployment(demo_config(2020))
    ChaosEngine(deployment, schedule).install()
    driver = ClosedLoopDriver(deployment, backing_store=ObjectStore(), warm_pool=True)
    plans = [
        [
            op
            for round_index in range(6)
            for op in (
                ClientOp("PUT" if (client + round_index) % 3 == 0 else "GET",
                         key=f"obj-{(client + round_index) % 5:03d}", size=2_000_000),
                ClientOp("SLEEP", delay_s=2.0),
            )
        ]
        for client in range(4)
    ]
    gets = sum(op.op == "GET" for ops in plans for op in ops)
    report = driver.run(plans)
    # What is left after the deployment stopped — fault reversions, session
    # closes — drains: nothing reschedules itself forever.
    loop = deployment.simulator
    loop.run_all(max_events=100_000)
    assert len(loop.queue) == 0
    return report, gets


class TestFuzzedFaultSchedules:
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=fault_schedules())
    def test_any_valid_schedule_drains_accounts_and_repeats(self, schedule):
        report, gets = fuzz_replay(schedule)  # no exception escapes
        # A GET that neither hit, degraded nor missed would be a failure:
        # it is either unrecorded or unaccounted.
        failures = gets - len(report.samples)
        assert failures == 0
        assert report.requests == gets
        assert report.hits + report.degraded_hits + report.misses + failures == gets
        again, _ = fuzz_replay(schedule)
        assert again.fingerprint() == report.fingerprint()


# --------------------------------------------------------------------------- billing under faults
class TestBillingUnderFaults:
    SCHEDULE = FaultSchedule((
        ReclamationStorm(at_s=4.0, fraction=0.4, correlated=True),
        ReclamationStorm(at_s=8.0, fraction=0.4),
        InvocationFaults(at_s=10.0, duration_s=8.0, failure_probability=0.6),
    ))

    def _run(self, record_charges):
        config = demo_config(seed=2020)
        deployment = InfiniCacheDeployment(config)
        charges = {
            node.node_id: record_charges(node.duration_controller)
            for proxy in deployment.proxies
            for node in proxy.nodes
        }
        engine = ChaosEngine(deployment, self.SCHEDULE)
        engine.install()
        driver = ClosedLoopDriver(deployment, warm_pool=True)
        replay = driver.run(demo_plans(clients=4, rounds=10, think_s=1.0))
        return deployment, replay, charges

    def test_busy_seconds_bounded_by_wall_clock(self, record_charges):
        """Reclaim-mid-fetch must not leak billed sessions: every node's
        closed sessions stay inside the run's wall-clock span."""
        deployment, replay, charges = self._run(record_charges)
        span = replay.duration_s
        for proxy in deployment.proxies:
            for node in proxy.nodes:
                for charge in charges[node.node_id]:
                    assert charge.duration_s >= 0.0
                    assert charge.started_at >= 0.0
                    busy = sum(charge.busy_by_tenant.values())
                    assert busy <= charge.duration_s + 1e-6
                # Sessions are sequential per node: their total cannot
                # exceed the run span plus the final open cycle.
                total = sum(charge.duration_s for charge in charges[node.node_id])
                assert total <= span + BILLING_CYCLE_SECONDS

    def test_chargeback_conservation_holds_under_storm(self, record_charges):
        deployment, _replay, _charges = self._run(record_charges)
        billing = deployment.billing
        assert billing.total_cost > 0
        assert sum(billing.cost_by_tenant.values()) == pytest.approx(
            billing.total_cost
        )
        assert sum(billing.gb_seconds_by_tenant.values()) == pytest.approx(
            billing.total_gb_seconds
        )


# --------------------------------------------------------------------------- resilience report
class TestResilienceReport:
    def test_window_overlap_rules(self):
        window = FaultWindow(kind="storm", index=0, started_at=10.0, ended_at=20.0)

        class Sample:
            def __init__(self, start, finish):
                self.started_at = start
                self.finished_at = finish

        assert window.covers(Sample(9.0, 11.0))
        assert window.covers(Sample(19.0, 25.0))
        assert window.covers(Sample(12.0, 13.0))
        assert not window.covers(Sample(0.0, 9.9))
        assert not window.covers(Sample(20.1, 22.0))

    def test_report_folds_samples_into_windows(self):
        schedule = FaultSchedule((
            InvocationFaults(at_s=3.0, duration_s=10.0, failure_probability=0.5),
        ))
        result = run_scenario(schedule)
        report = result.resilience
        assert len(report.windows) == 1
        stats = report.windows[0]
        assert stats.requests > 0
        assert 0.0 <= stats.availability <= 1.0
        answered = stats.healthy_hits + stats.degraded_hits + stats.resets + stats.misses
        assert answered == stats.requests
        payload = report.to_dict()
        assert payload["windows"][0]["kind"] == "invocation"
        assert any("availability" in line for line in report.format_lines())

    def test_empty_report_defaults(self):
        from repro.faults.report import ResilienceReport

        empty = ResilienceReport()
        assert empty.worst_availability() == 1.0
        assert empty.slo_delta("p99") == 0.0
        assert empty.to_dict()["windows"] == []


# --------------------------------------------------------------------------- failure detector
def make_detector_deployment(lambdas_per_proxy=10, resilience=None):
    deployment = InfiniCacheDeployment(
        InfiniCacheConfig(
            num_proxies=1,
            lambdas_per_proxy=lambdas_per_proxy,
            lambda_memory_bytes=512 * MIB,
            data_shards=4,
            parity_shards=2,
            straggler=StragglerModel(probability=0.0),
            resilience=resilience,
            seed=11,
        )
    )
    deployment.start()
    return deployment


def kill_node(deployment, node):
    for instance in (node.primary, node.backup_peer):
        if instance is not None and instance.is_alive:
            deployment.platform.reclaim_instance(instance)


class TestFailureDetectorUnderFaults:
    def test_sweep_survives_node_lost_during_its_own_repair(self, monkeypatch):
        """A node holding surviving chunks dies while the sweep cold-starts a
        replacement: the sweep must finish without raising and heal the rest
        on subsequent passes."""
        deployment = make_detector_deployment()
        detector = FailureDetector(deployment)
        client = deployment.new_client()
        keys = [f"obj-{index:03d}" for index in range(10)]
        for key in keys:
            client.put_sized(key, 2 * MB)
        proxy = deployment.proxies[0]
        for node in proxy.nodes[:2]:
            kill_node(deployment, node)

        original = LambdaCacheNode.ensure_active
        killed: list[str] = []

        def ensure_and_kill(self, now, category="serving"):
            access = original(self, now, category)
            if category == "repair" and not killed:
                victim = next(
                    node for node in proxy.nodes
                    if node is not self and node.is_alive
                )
                killed.append(victim.node_id)
                kill_node(deployment, victim)
            return access

        monkeypatch.setattr(LambdaCacheNode, "ensure_active", ensure_and_kill)
        repaired, lost = detector.sweep_once()  # must not raise
        assert killed, "the mid-sweep kill never triggered"
        monkeypatch.setattr(LambdaCacheNode, "ensure_active", original)
        # Later sweeps converge: every object is either healed or dropped.
        for _ in range(3):
            detector.sweep_once()
        assert detector.sweep_once() == (0, 0)
        for key in keys:
            if proxy.contains(key):
                assert client.get(key).hit

    def test_nested_sweep_is_skipped_not_reentered(self, monkeypatch):
        deployment = make_detector_deployment()
        detector = FailureDetector(deployment)
        client = deployment.new_client()
        for index in range(6):
            client.put_sized(f"obj-{index:03d}", 2 * MB)
        proxy = deployment.proxies[0]
        for node in proxy.nodes[:2]:
            kill_node(deployment, node)

        original = LambdaCacheNode.ensure_active
        nested: list[tuple[int, int]] = []

        def ensure_and_reenter(self, now, category="serving"):
            access = original(self, now, category)
            if category == "repair" and not nested:
                nested.append(detector.sweep_once())
            return access

        monkeypatch.setattr(LambdaCacheNode, "ensure_active", ensure_and_reenter)
        repaired, _lost = detector.sweep_once()
        assert nested == [(0, 0)], "the nested sweep must be skipped, not run"
        assert repaired > 0
        skips = deployment.metrics.counter(
            "cluster.failure_detector.reentrant_skips"
        ).value
        assert skips == 1

    def test_transient_fault_in_one_proxy_does_not_abort_sweep(self, monkeypatch):
        deployment = make_detector_deployment()
        detector = FailureDetector(deployment)
        client = deployment.new_client()
        for index in range(6):
            client.put_sized(f"obj-{index:03d}", 2 * MB)
        proxy = deployment.proxies[0]
        for node in proxy.nodes[:2]:
            kill_node(deployment, node)
        from repro.exceptions import TransientFaultError

        def exploding_audit(now, on_loss=None):
            raise TransientFaultError("audit died mid-repair")

        monkeypatch.setattr(proxy, "audit_and_repair", exploding_audit)
        assert detector.sweep_once() == (0, 0)  # must not raise
        aborted = deployment.metrics.counter(
            "cluster.failure_detector.aborted_audits"
        ).value
        assert aborted == 1


# --------------------------------------------------------------------------- backup interruption
class TestBackupUnderFaults:
    def test_interrupted_backup_round_is_retryable(self):
        deployment = make_detector_deployment()
        client = deployment.new_client()
        for index in range(6):
            client.put_sized(f"obj-{index:03d}", 2 * MB)
        manager = deployment.backup_managers[0]
        reports = manager.backup_all(now=1.0)
        assert any(report.performed for report in reports)
        # Arm certain invocation failure: the next round is interrupted for
        # every node but never raises out of backup_all.
        from repro.utils.rng import SeededRNG

        deployment.platform.set_invocation_faults(
            failure_probability=1.0, rng=SeededRNG(99),
        )
        client.put_sized("fresh-delta", 2 * MB)
        reports = manager.backup_all(now=120.0)
        assert all(not report.performed or report.delta_chunks == 0
                   for report in reports)
        interrupted = deployment.metrics.counter("backup.interrupted_rounds").value
        assert interrupted > 0
        deployment.platform.clear_invocation_faults()
        # The unsynced delta is retried successfully on the next round.
        reports = manager.backup_all(now=240.0)
        assert any(report.performed and report.delta_chunks > 0
                   for report in reports)

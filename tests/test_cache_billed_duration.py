"""Tests for anticipatory billed-duration control."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.billed_duration import (
    BUFFER_S,
    EXTENSION_THRESHOLD,
    BilledDurationController,
    BilledSession,
    SessionCharge,
)
from repro.exceptions import ConfigurationError
from repro.faas.billing import BILLING_CYCLE_SECONDS, UNATTRIBUTED_TENANT


class TestSessionLifecycle:
    def test_first_request_opens_session(self):
        controller = BilledDurationController()
        was_active = controller.record_request(10.0, 0.01)
        assert was_active is False
        assert controller.is_active(10.05)

    def test_request_within_window_reuses_session(self, record_charges):
        controller = BilledDurationController()
        charges = record_charges(controller)
        controller.record_request(10.0, 0.01)
        was_active = controller.record_request(10.05, 0.01)
        assert was_active is True
        assert len(charges) == 0  # still open

    def test_window_expires_and_bills_one_cycle(self):
        closed = []
        controller = BilledDurationController(on_close=closed.append)
        controller.record_request(0.0, 0.01)
        controller.expire_if_due(1.0)
        assert len(closed) == 1
        charge = closed[0]
        assert charge.billed_duration_s == pytest.approx(BILLING_CYCLE_SECONDS)
        assert charge.requests_served == 1

    def test_timer_expires_just_before_cycle_end(self, record_charges):
        """The runtime returns a few ms before the 100 ms boundary so it is
        never billed for an accidental extra cycle (paper Section 3.3)."""
        controller = BilledDurationController()
        charges = record_charges(controller)
        controller.record_request(0.0, 0.01)
        controller.flush()
        charge = charges[0]
        assert charge.duration_s <= BILLING_CYCLE_SECONDS
        assert charge.billed_duration_s == pytest.approx(BILLING_CYCLE_SECONDS)

    @pytest.mark.parametrize("requests, cycles", [(1, 1), (EXTENSION_THRESHOLD, 2)])
    def test_session_ends_the_buffer_before_its_last_cycle_boundary(
        self, requests, cycles, record_charges,
    ):
        """The session lasts its window less the 5 ms buffer (inside the
        paper's 2-10 ms), so it is billed whole cycles and never one more."""
        assert 0.002 <= BUFFER_S <= 0.010
        controller = BilledDurationController()
        charges = record_charges(controller)
        for index in range(requests):
            controller.record_request(0.01 * index, 0.005)
        controller.flush()
        (charge,) = charges
        assert charge.duration_s == pytest.approx(cycles * BILLING_CYCLE_SECONDS - BUFFER_S)
        assert charge.billed_duration_s == pytest.approx(cycles * BILLING_CYCLE_SECONDS)

    def test_anticipation_extends_by_one_cycle(self):
        """Two requests inside one cycle extend the window by a full cycle."""
        assert EXTENSION_THRESHOLD == 2
        controller = BilledDurationController()
        controller.record_request(0.0, 0.01)
        controller.record_request(0.05, 0.01)
        # Window should now extend past the first cycle.
        assert controller.is_active(0.15)

    def test_no_anticipation_with_single_request(self):
        controller = BilledDurationController()
        controller.record_request(0.0, 0.01)
        assert not controller.is_active(0.11)

    def test_long_request_covers_multiple_cycles(self):
        closed = []
        controller = BilledDurationController(on_close=closed.append)
        controller.record_request(0.0, 0.35)
        controller.expire_if_due(1.0)
        assert closed[0].billed_duration_s >= 0.35
        assert closed[0].billed_duration_s == pytest.approx(
            round(closed[0].billed_duration_s / BILLING_CYCLE_SECONDS) * BILLING_CYCLE_SECONDS
        )

    def test_new_session_after_expiry(self, record_charges):
        controller = BilledDurationController()
        charges = record_charges(controller)
        controller.record_request(0.0, 0.01)
        controller.record_request(5.0, 0.01)  # far outside the first window
        assert len(charges) == 1
        controller.flush()
        assert len(charges) == 2

    def test_flush_closes_open_session(self, record_charges):
        controller = BilledDurationController()
        charges = record_charges(controller)
        controller.record_request(0.0, 0.01)
        controller.flush()
        assert len(charges) == 1
        controller.flush()  # idempotent
        assert len(charges) == 1

    def test_total_billed_seconds(self, record_charges):
        controller = BilledDurationController()
        charges = record_charges(controller)
        controller.record_request(0.0, 0.01)
        controller.record_request(10.0, 0.01)
        controller.flush()
        billed = sum(charge.billed_duration_s for charge in charges)
        assert billed == pytest.approx(2 * BILLING_CYCLE_SECONDS)


class TestCategories:
    def test_warmup_session_keeps_category(self):
        closed = []
        controller = BilledDurationController(on_close=closed.append)
        controller.record_request(0.0, 0.001, category="warmup")
        controller.flush()
        assert closed[0].category == "warmup"

    def test_serving_overrides_warmup_in_mixed_window(self):
        closed = []
        controller = BilledDurationController(on_close=closed.append)
        controller.record_request(0.0, 0.001, category="warmup")
        controller.record_request(0.01, 0.02, category="serving")
        controller.flush()
        assert closed[0].category == "serving"


class TestValidation:
    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf"), float("-inf")])
    def test_bad_service_time_fails_at_the_call_and_opens_nothing(self, bad, record_charges):
        controller = BilledDurationController()
        charges = record_charges(controller)
        with pytest.raises(ConfigurationError):
            controller.record_request(0.0, bad)
        assert controller.current is None
        controller.flush()
        assert charges == []

    def test_infinite_attribution_weight_fails_at_the_call(self):
        controller = BilledDurationController()
        with pytest.raises(ConfigurationError):
            controller.record_request(0.0, 0.01, attribution={"a": float("inf"), "b": 1.0})


class TestBillingEconomics:
    def test_idle_node_costs_nothing(self, record_charges):
        """No requests -> no sessions -> zero billed time: the pay-per-use
        property the whole paper is built on."""
        controller = BilledDurationController()
        charges = record_charges(controller)
        controller.expire_if_due(1e6)
        controller.flush()
        assert len(charges) == 0
        assert sum(charge.billed_duration_s for charge in charges) == 0.0

    def test_batched_requests_cheaper_than_spread_requests(self, record_charges):
        """Requests landing in one window share a billing cycle, spread
        requests each pay their own — the incentive for the anticipatory
        extension heuristic."""
        batched = BilledDurationController()
        batched_charges = record_charges(batched)
        for i in range(5):
            batched.record_request(0.0 + i * 0.01, 0.005)
        batched.flush()

        spread = BilledDurationController()
        spread_charges = record_charges(spread)
        for i in range(5):
            spread.record_request(i * 10.0, 0.005)
        spread.flush()

        assert sum(charge.billed_duration_s for charge in batched_charges) < sum(
            charge.billed_duration_s for charge in spread_charges
        )


class TestTenantAttribution:
    def test_busy_time_tagged_per_tenant(self, record_charges):
        controller = BilledDurationController()
        charges = record_charges(controller)
        controller.record_request(0.0, 0.02, attribution="media")
        controller.record_request(0.01, 0.01, attribution="api")
        controller.record_request(0.02, 0.02, attribution="media")
        controller.flush()
        charge = charges[0]
        assert charge.busy_by_tenant["media"] == pytest.approx(0.04)
        assert charge.busy_by_tenant["api"] == pytest.approx(0.01)

    def test_untagged_work_is_unattributed(self, record_charges):
        from repro.faas.billing import UNATTRIBUTED_TENANT

        controller = BilledDurationController()
        charges = record_charges(controller)
        controller.record_request(0.0, 0.01)
        controller.flush()
        charge = charges[0]
        assert charge.busy_by_tenant == {UNATTRIBUTED_TENANT: pytest.approx(0.01)}

    def test_weighted_attribution_splits_busy_time(self, record_charges):
        controller = BilledDurationController()
        charges = record_charges(controller)
        controller.record_request(0.0, 0.03, attribution={"a": 2.0, "b": 1.0})
        controller.flush()
        charge = charges[0]
        assert charge.busy_by_tenant["a"] == pytest.approx(0.02)
        assert charge.busy_by_tenant["b"] == pytest.approx(0.01)

    def test_attribution_survives_across_sessions(self, record_charges):
        controller = BilledDurationController()
        charges = record_charges(controller)
        controller.record_request(0.0, 0.01, attribution="media")
        controller.record_request(10.0, 0.01, attribution="api")  # new session
        controller.flush()
        assert list(charges[0].busy_by_tenant) == ["media"]
        assert list(charges[1].busy_by_tenant) == ["api"]


class TestLazySessionWatchdog:
    """The billed-session close event uses a lazy deadline, not cancel+push.

    Every request extends its node's billing window; the old idiom cancelled
    and rescheduled the close event on each extension, so a closed-loop run
    produced roughly one tombstone per chunk operation just for session
    watching.  The lazy ``DeadlineTimer`` extends with a field write — the
    per-label profiler must show *zero* cancellations for the watchdog
    label across a run with many extensions.
    """

    def test_closed_loop_run_never_cancels_the_watchdog(self):
        from repro.cache.config import InfiniCacheConfig, StragglerModel
        from repro.cache.deployment import InfiniCacheDeployment
        from repro.utils.units import MIB
        from repro.workload.replay import ClosedLoopDriver

        config = InfiniCacheConfig(
            num_proxies=2,
            lambdas_per_proxy=8,
            lambda_memory_bytes=1536 * MIB,
            data_shards=4,
            parity_shards=2,
            flow_arbiter="incremental",
            straggler=StragglerModel(probability=0.05),
            seed=2020,
        )
        deployment = InfiniCacheDeployment(config)
        seeder = deployment.new_client("seeder")
        clients, rounds, size = 8, 6, 2_000_000
        for index in range(clients):
            for obj in range(2):
                seeder.put_sized(f"k/{index}/{obj}", size)
        plans = [
            [(f"k/{index}/{r % 2}", size) for r in range(rounds)]
            for index in range(clients)
        ]
        deployment.simulator.enable_profiling()
        report = ClosedLoopDriver(deployment).run(plans)
        profile = deployment.simulator.disable_profiling()

        armed = profile.scheduled.get("billing.session_close", 0)
        assert armed > 0
        # Far more window extensions happened than watchdog arms (every one
        # of the ~requests * chunks operations extends a window), yet the
        # lazy timer never cancelled a single close event.  The eager idiom
        # cancelled on every extension beyond the first per session.
        assert report.requests * config.total_chunks > 4 * armed
        assert profile.cancelled.get("billing.session_close", 0) == 0
        # Flow-finish timers are lazy too: cancellations come only from
        # genuinely abandoned flows (quorum losers), never from re-aims, so
        # they stay strictly below the number of finish events armed.
        assert (
            profile.cancelled.get("flow.finish", 0)
            < profile.scheduled.get("flow.finish", 0)
        )


# ---------------------------------------------------------------------- PR 22
# ``record_request`` / ``_close_current`` were rewritten for speed.  The
# oracle is a literal transcription of the controller at commit 154a472 —
# its dict round trips, its ``max``/``min`` and all; keep it verbatim.
def _parent_shares(attribution):
    if attribution:
        weights = {t: w for t, w in attribution.items() if w > 0.0}
        total = sum(weights.values())
        if total > 0.0:
            return {tenant: weight / total for tenant, weight in weights.items()}
    return {UNATTRIBUTED_TENANT: 1.0}


def _parent_ceil(duration_s):
    return max(1, math.ceil(round(duration_s / BILLING_CYCLE_SECONDS, 9))) * (
        BILLING_CYCLE_SECONDS
    )


class _ParentController:
    def __init__(self, buffer_s, extension_threshold):
        self.buffer_s = buffer_s
        self.extension_threshold = extension_threshold
        self.current = None
        self.closed = []

    def _close_current(self):
        session = self.current
        if session is None:
            return
        duration = session["window_end"] - session["started_at"] - self.buffer_s
        active_seconds = session["window_end"] - session["started_at"]
        duration = max(duration, min(session["busy_seconds"], active_seconds - self.buffer_s))
        self.closed.append(
            (
                session["started_at"], duration, _parent_ceil(duration),
                session["requests_served"], session["category"],
                list(dict(session["busy_by_tenant"]).items()),
            )
        )
        self.current = None

    def record_request(self, now, service_time_s, category, attribution):
        was_active = self.current is not None and now < self.current["window_end"]
        if not was_active:
            self._close_current()
            self.current = session = {
                "started_at": now, "window_end": now + BILLING_CYCLE_SECONDS,
                "busy_seconds": 0.0, "requests_served": 0, "category": category,
                "busy_by_tenant": {},
            }
        else:
            session = self.current
            if category == "serving":
                session["category"] = "serving"
        session["requests_served"] += 1
        session["busy_seconds"] += service_time_s
        if isinstance(attribution, str):
            attribution = {attribution: 1.0}
        attributed = {
            tenant: service_time_s * share
            for tenant, share in _parent_shares(attribution).items()
        }
        for tenant, busy in attributed.items():
            session["busy_by_tenant"][tenant] = (
                session["busy_by_tenant"].get(tenant, 0.0) + busy
            )
        finish = now + service_time_s
        cycles = int(finish // BILLING_CYCLE_SECONDS) + 1
        aligned_end = cycles * BILLING_CYCLE_SECONDS
        session["window_end"] = max(session["window_end"], aligned_end)
        if session["requests_served"] >= self.extension_threshold:
            session["window_end"] = max(
                session["window_end"], aligned_end + BILLING_CYCLE_SECONDS
            )
        return was_active


_tenant_weights = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
_request = st.tuples(
    # Gap to the previous request: inside the window, at its edge, far past it.
    st.one_of(
        st.sampled_from([0.0, 0.05, 0.095, 0.1, 0.2, 60.0]),
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    ),
    st.one_of(
        st.sampled_from([0.0, 0.001, 0.1, 0.30000000000000004]),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    ),
    st.sampled_from(["serving", "warmup", "backup"]),
    st.one_of(
        st.none(),
        st.sampled_from(["a", "b", UNATTRIBUTED_TENANT]),
        st.just({}),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), _tenant_weights, max_size=3),
    ),
)


class TestSessionsMatchTheParentArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_request, min_size=1, max_size=40))
    def test_every_closed_session_is_bit_equal(self, requests):
        billed = []
        controller = BilledDurationController(on_close=billed.append)
        oracle = _ParentController(0.005, 2)
        now = 0.0
        for gap, service_time_s, category, attribution in requests:
            now += gap
            assert controller.record_request(
                now, service_time_s, category, attribution
            ) == oracle.record_request(now, service_time_s, category, attribution)
            assert controller.current.window_end == oracle.current["window_end"]
            assert controller.current.busy_seconds == oracle.current["busy_seconds"]
        controller.flush()
        oracle._close_current()
        assert [
            (
                charge.started_at, charge.duration_s, charge.billed_duration_s,
                charge.requests_served, charge.category,
                list(charge.busy_by_tenant.items()),
            )
            for charge in billed
        ] == oracle.closed
        assert controller.current is None

    def test_a_closed_charge_is_not_touched_by_the_next_session(self, record_charges):
        controller = BilledDurationController()
        charges = record_charges(controller)
        controller.record_request(0.0, 0.01, attribution="a")
        controller.record_request(5.0, 0.02, attribution="b")
        controller.flush()
        first, second = charges
        assert first.busy_by_tenant == {"a": 0.01}
        assert second.busy_by_tenant == {"b": 0.02}
        assert first.busy_by_tenant is not second.busy_by_tenant

    def test_record_shapes_keep_their_fields_and_keywords(self):
        session = BilledSession(started_at=1.0, window_end=1.1)
        assert (session.busy_seconds, session.requests_served, session.category) == (
            0.0, 0, "serving",
        )
        assert session.busy_by_tenant == {} and (session.started_at, session.window_end) == (1.0, 1.1)
        charge = SessionCharge(
            started_at=1.0, duration_s=0.095, billed_duration_s=0.1,
            requests_served=1, category="warmup",
        )
        assert charge.busy_by_tenant == {}

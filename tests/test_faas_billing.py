"""Tests for the Lambda billing model."""

import math
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.faas.billing import (
    BILLING_CYCLE_SECONDS,
    UNATTRIBUTED_TENANT,
    BillingModel,
    PRICE_PER_GB_SECOND,
    PRICE_PER_INVOCATION,
    InvocationCharge,
    attribution_shares,
    ceil_to_billing_cycle,
)
from repro.utils.units import GIB, MIB


class TestCeilToBillingCycle:
    def test_rounds_up(self):
        assert ceil_to_billing_cycle(0.050) == pytest.approx(0.1)
        assert ceil_to_billing_cycle(0.101) == pytest.approx(0.2)
        assert ceil_to_billing_cycle(0.999) == pytest.approx(1.0)

    def test_exact_cycle_not_rounded_further(self):
        assert ceil_to_billing_cycle(0.2) == pytest.approx(0.2)

    def test_zero_duration_still_one_cycle(self):
        assert ceil_to_billing_cycle(0.0) == pytest.approx(BILLING_CYCLE_SECONDS)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ceil_to_billing_cycle(-0.1)


class TestLambdaPricing:
    def test_defaults_match_paper(self):
        assert PRICE_PER_INVOCATION == pytest.approx(0.02 / 1_000_000)
        assert PRICE_PER_GB_SECOND == pytest.approx(0.0000166667)


class TestBillingModel:
    def test_single_invocation_charge(self):
        billing = BillingModel()
        charge = billing.charge_invocation(1 * GIB, 0.050)
        assert charge.billed_duration_s == pytest.approx(0.1)
        assert charge.invocation_fee == pytest.approx(0.02 / 1_000_000)
        assert charge.duration_fee == pytest.approx(0.1 * 1.0 * 0.0000166667)
        assert charge.total == pytest.approx(charge.invocation_fee + charge.duration_fee)

    def test_memory_scales_duration_fee(self):
        billing = BillingModel()
        small = billing.charge_invocation(1 * GIB, 0.1)
        large = billing.charge_invocation(2 * GIB, 0.1)
        assert large.duration_fee == pytest.approx(2 * small.duration_fee)

    def test_accumulation(self):
        billing = BillingModel()
        for _ in range(10):
            billing.charge_invocation(1 * GIB, 0.1)
        assert billing.total_invocations == 10
        assert billing.total_billed_seconds == pytest.approx(1.0)
        assert billing.total_cost == pytest.approx(10 * (0.02e-6 + 0.1 * 0.0000166667))

    def test_categories(self):
        billing = BillingModel()
        billing.charge_invocation(1 * GIB, 0.1, category="serving")
        billing.charge_invocation(1 * GIB, 0.1, category="warmup")
        billing.charge_invocation(1 * GIB, 0.1, category="warmup")
        breakdown = billing.breakdown()
        assert breakdown["warmup"] == pytest.approx(2 * breakdown["serving"])
        assert breakdown["total"] == pytest.approx(billing.total_cost)

    def test_tenant_breakdown_rows_sum_to_the_account(self):
        billing = BillingModel()
        billing.charge_invocation(1 * GIB, 0.1, attribution={"a": 3.0, "b": 1.0})
        billing.charge_invocation(1 * GIB, 0.25, attribution={"b": 1.0})
        billing.charge_invocation(1 * GIB, 0.1)
        rows = billing.tenant_breakdown()
        assert list(rows) == sorted(["a", "b", UNATTRIBUTED_TENANT])
        assert sum(row["cost"] for row in rows.values()) == pytest.approx(billing.total_cost)
        assert sum(row["gb_seconds"] for row in rows.values()) == pytest.approx(
            billing.total_gb_seconds
        )
        assert sum(row["invocations"] for row in rows.values()) == pytest.approx(3.0)
        assert rows["a"]["invocations"] == pytest.approx(0.75)
        assert rows["b"]["invocations"] == pytest.approx(1.25)

    def test_reset(self):
        billing = BillingModel()
        billing.charge_invocation(1 * GIB, 0.1)
        billing.reset()
        assert billing.total_cost == 0.0
        assert billing.total_invocations == 0
        assert billing.breakdown() == {"total": 0.0}

    def test_paper_hourly_warmup_cost(self):
        """Equation 5 sanity check: warming 400 x 1.5 GiB functions once a
        minute costs a few cents per hour, not dollars."""
        billing = BillingModel()
        memory = int(1.5 * GIB)
        for _ in range(400 * 60):
            billing.charge_invocation(memory, 0.001, category="warmup")
        assert 0.05 < billing.total_cost < 0.15


# ---------------------------------------------------------------------- PR 22
# ``charge_invocation`` was rewritten for speed; every accumulated float has
# to come out of the same expression in the same order.  The oracle below is
# a literal transcription of the arithmetic at commit 154a472 — keep it
# verbatim, it is the specification.
def _parent_attribution_shares(attribution):
    if attribution:
        weights = {t: w for t, w in attribution.items() if w > 0.0}
        total = sum(weights.values())
        if total > 0.0:
            return {tenant: weight / total for tenant, weight in weights.items()}
    return {UNATTRIBUTED_TENANT: 1.0}


class _ParentLedger:
    def __init__(self, pricing):
        self.pricing = pricing
        self.total_invocations = 0
        self.total_billed_seconds = 0.0
        self.total_gb_seconds = 0.0
        self.total_cost = 0.0
        self.cost_by_category = {}
        self.cost_by_tenant = {}
        self.gb_seconds_by_tenant = {}
        self.invocation_share_by_tenant = {}

    def charge_invocation(self, memory_bytes, duration_s, category, attribution):
        billed = max(1, math.ceil(round(duration_s / BILLING_CYCLE_SECONDS, 9))) * (
            BILLING_CYCLE_SECONDS
        )
        memory_gb = memory_bytes / GIB
        invocation_fee = self.pricing.price_per_invocation
        duration_fee = billed * memory_gb * self.pricing.price_per_gb_second
        total = invocation_fee + duration_fee
        self.total_invocations += 1
        self.total_billed_seconds += billed
        self.total_gb_seconds += billed * memory_gb
        self.total_cost += total
        self.cost_by_category[category] = self.cost_by_category.get(category, 0.0) + total
        for tenant, share in _parent_attribution_shares(attribution).items():
            self.cost_by_tenant[tenant] = self.cost_by_tenant.get(tenant, 0.0) + share * total
            self.gb_seconds_by_tenant[tenant] = (
                self.gb_seconds_by_tenant.get(tenant, 0.0) + share * billed * memory_gb
            )
            self.invocation_share_by_tenant[tenant] = (
                self.invocation_share_by_tenant.get(tenant, 0.0) + share
            )
        return invocation_fee, duration_fee, billed


_TENANTS = ("a", "b", "c", "d")
_weights = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_attributions = st.one_of(
    st.none(),
    st.just({}),
    st.dictionaries(st.sampled_from(_TENANTS), _weights, min_size=1, max_size=1),
    st.dictionaries(st.sampled_from(_TENANTS), _weights, min_size=2, max_size=4),
    st.dictionaries(st.sampled_from(_TENANTS), st.just(0.0), min_size=1, max_size=3),
)
_charges = st.tuples(
    st.sampled_from([128 * MIB, 256 * MIB, 1536 * MIB, 3008 * MIB]),
    st.one_of(
        st.sampled_from([0.0, 0.001, 0.1, 0.2, 0.30000000000000004]),
        st.floats(min_value=0.0, max_value=900.0, allow_nan=False),
    ),
    st.sampled_from(["serving", "warmup", "backup"]),
    _attributions,
)


class TestChargeInvocationMatchesTheParentArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_charges, min_size=1, max_size=30))
    def test_every_total_and_ledger_is_bit_equal(self, charges):
        billing = BillingModel()
        oracle = _ParentLedger(types.SimpleNamespace(
            price_per_invocation=0.02 / 1_000_000, price_per_gb_second=0.0000166667,
        ))
        for memory_bytes, duration_s, category, attribution in charges:
            charge = billing.charge_invocation(memory_bytes, duration_s, category, attribution)
            assert tuple(charge) == oracle.charge_invocation(
                memory_bytes, duration_s, category, attribution
            )
            assert charge.total == charge.invocation_fee + charge.duration_fee
        for name in (
            "total_invocations", "total_billed_seconds", "total_gb_seconds", "total_cost",
        ):
            assert getattr(billing, name) == getattr(oracle, name), name
        for name in (
            "cost_by_category", "cost_by_tenant",
            "gb_seconds_by_tenant", "invocation_share_by_tenant",
        ):
            # ``==`` on the item lists: values bit for bit, keys in order.
            assert list(getattr(billing, name).items()) == list(
                getattr(oracle, name).items()
            ), name
        # Conservation: chargeback sums to the bill.
        assert math.isfinite(sum(billing.cost_by_tenant.values()))
        assert sum(billing.cost_by_tenant.values()) == pytest.approx(
            billing.total_cost, rel=1e-9
        )

    def test_the_unattributed_fallback_is_a_fresh_dict_each_time(self):
        assert attribution_shares(None) == {UNATTRIBUTED_TENANT: 1.0}
        assert attribution_shares(None) is not attribution_shares({})


#: Every function memory size an experiment in the registry deploys
#: (Figure 11's sweep, Figure 4/8's 256 MiB, the 1536 MiB pools).
_REGISTRY_MEMORY_MIB = (128, 256, 512, 1024, 1536, 2048, 3008)


def _ledger(billing):
    """Every total as ``float.hex`` and every ledger as its item list."""
    return (
        billing.total_invocations,
        float.hex(billing.total_billed_seconds),
        float.hex(billing.total_gb_seconds),
        float.hex(billing.total_cost),
        *(
            [(key, float.hex(value)) for key, value in ledger.items()]
            for ledger in (
                billing.cost_by_category, billing.cost_by_tenant,
                billing.gb_seconds_by_tenant, billing.invocation_share_by_tenant,
            )
        ),
    )


class TestChargeInvocationsIsTheRepeatedSingleCharge:
    @pytest.mark.parametrize("duration_s", [0.0, 0.001, 0.1, 0.123])
    @pytest.mark.parametrize("memory_mib", _REGISTRY_MEMORY_MIB)
    def test_bit_equal_to_count_single_charges(self, memory_mib, duration_s):
        bulk, single = BillingModel(), BillingModel()
        # A prior attributed charge: the totals start off a round number and
        # the tenant ledgers already hold a key before the unattributed one.
        for billing in (bulk, single):
            billing.charge_invocation(1536 * MIB, 0.05, "serving", {"a": 1.0, "b": 2.0})
        for count in (1, 150, 7):
            bulk.charge_invocations(memory_mib * MIB, duration_s, count, "warmup")
            for _ in range(count):
                single.charge_invocation(memory_mib * MIB, duration_s, "warmup")
            assert _ledger(bulk) == _ledger(single)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(_REGISTRY_MEMORY_MIB),
            st.one_of(
                st.sampled_from([0.0, 0.001, 0.1, 0.123]),
                st.floats(min_value=0.0, max_value=900.0, allow_nan=False),
            ),
            st.integers(min_value=1, max_value=40),
            st.sampled_from(["serving", "warmup", "backup"]),
        ),
        min_size=1, max_size=12,
    ))
    def test_interleaved_runs_match_the_loop(self, runs):
        bulk, single = BillingModel(), BillingModel()
        for memory_mib, duration_s, count, category in runs:
            bulk.charge_invocations(memory_mib * MIB, duration_s, count, category)
            for _ in range(count):
                single.charge_invocation(memory_mib * MIB, duration_s, category)
        assert _ledger(bulk) == _ledger(single)

    @pytest.mark.parametrize(
        "memory_bytes, duration_s, count",
        [
            (1 * GIB, float("nan"), 3), (1 * GIB, float("inf"), 3), (1 * GIB, -0.1, 3),
            (0, 0.1, 3), (-1 * GIB, 0.1, 3), (1 * GIB, 0.1, 0), (1 * GIB, 0.1, -1),
        ],
    )
    def test_bad_input_books_nothing(self, memory_bytes, duration_s, count):
        billing = BillingModel()
        billing.charge_invocation(1 * GIB, 0.1, "serving")
        before = _ledger(billing)
        with pytest.raises(ConfigurationError):
            billing.charge_invocations(memory_bytes, duration_s, count, "warmup")
        assert _ledger(billing) == before


class TestInvocationChargeShape:
    def test_field_names_keyword_construction_and_reexport(self):
        from repro.faas import InvocationCharge as reexported

        charge = InvocationCharge(invocation_fee=1.0, duration_fee=2.0, billed_duration_s=0.1)
        assert reexported is InvocationCharge
        assert (charge.invocation_fee, charge.duration_fee, charge.billed_duration_s) == (
            1.0, 2.0, 0.1,
        )
        assert charge.total == 3.0
        with pytest.raises(AttributeError):
            charge.duration_fee = 5.0


class TestNonFiniteInputFailsAtTheCall:
    # 1.7e308 is finite but its cycle count is not.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -0.1, 1.7e308])
    def test_ceil_to_billing_cycle_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            ceil_to_billing_cycle(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -0.1])
    def test_charge_invocation_rejects_the_duration_and_books_nothing(self, bad):
        billing = BillingModel()
        with pytest.raises(ConfigurationError):
            billing.charge_invocation(1 * GIB, bad)
        assert billing.total_invocations == 0 and billing.breakdown() == {"total": 0.0}

    @pytest.mark.parametrize("memory_bytes", [0, -1, -3 * GIB])
    def test_non_positive_memory_rejected(self, memory_bytes):
        billing = BillingModel()
        with pytest.raises(ConfigurationError):
            billing.charge_invocation(memory_bytes, 0.1)
        assert billing.total_invocations == 0 and billing.total_cost == 0.0

    @pytest.mark.parametrize(
        "weights",
        [
            {"a": float("inf"), "b": 1.0},
            {"a": float("inf")},
            {"a": float("inf"), "b": float("inf")},
            {"a": 1.7e308, "b": 1.7e308},  # finite weights, infinite sum
        ],
    )
    def test_infinite_weights_rejected(self, weights):
        with pytest.raises(ConfigurationError):
            attribution_shares(weights)
        billing = BillingModel()
        with pytest.raises(ConfigurationError):
            billing.charge_invocation(1 * GIB, 0.1, attribution=weights)

    def test_nan_and_non_positive_weights_are_dropped_not_rejected(self):
        # ``w > 0.0`` is false for NaN, zero, negatives and -inf alike.
        weights = {"a": float("nan"), "b": 3.0, "c": 0.0, "d": -2.0, "e": float("-inf"), "f": 1.0}
        assert attribution_shares(weights) == {"b": 0.75, "f": 0.25}
        assert attribution_shares({"a": float("nan")}) == {UNATTRIBUTED_TENANT: 1.0}

    def test_chargeback_sums_to_the_bill_after_rejected_charges(self):
        billing = BillingModel()
        billing.charge_invocation(1 * GIB, 0.25, attribution={"a": 1.0, "b": 3.0})
        for bad in ({"a": float("inf"), "b": 1.0}, None):
            with pytest.raises(ConfigurationError):
                billing.charge_invocation(
                    1 * GIB, 0.1 if bad else float("nan"), attribution=bad
                )
        billing.charge_invocation(2 * GIB, 0.1, "warmup")
        by_tenant = sum(billing.cost_by_tenant.values())
        assert math.isfinite(by_tenant)
        assert by_tenant == pytest.approx(billing.total_cost, rel=1e-9)
        assert sum(billing.gb_seconds_by_tenant.values()) == pytest.approx(
            billing.total_gb_seconds, rel=1e-9
        )

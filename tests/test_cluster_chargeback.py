"""Chargeback tests: per-tenant GB-second attribution and bill conservation."""

import pytest

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cluster import (
    AutoscalerConfig,
    InfiniCacheCluster,
    TenantQuota,
    UNATTRIBUTED_TENANT,
)
from repro.exceptions import TenantError
from repro.faas.billing import BillingModel
from repro.utils.units import GIB, MB, MIB


def make_cluster(**config_overrides) -> InfiniCacheCluster:
    defaults = dict(
        num_proxies=2,
        lambdas_per_proxy=8,
        lambda_memory_bytes=256 * MIB,
        data_shards=4,
        parity_shards=2,
        min_lambdas_per_proxy=6,
        max_lambdas_per_proxy=24,
        straggler=StragglerModel(probability=0.0),
        seed=13,
    )
    defaults.update(config_overrides)
    cluster = InfiniCacheCluster(
        InfiniCacheConfig(**defaults),
        autoscaler_config=AutoscalerConfig(interval_s=15.0),
    )
    cluster.start()
    return cluster


class TestBillingAttribution:
    def test_attribution_splits_pro_rata(self):
        billing = BillingModel()
        charge = billing.charge_invocation(
            1 * GIB, 0.1, attribution={"a": 3.0, "b": 1.0}
        )
        assert billing.cost_by_tenant["a"] == pytest.approx(0.75 * charge.total)
        assert billing.cost_by_tenant["b"] == pytest.approx(0.25 * charge.total)
        assert billing.gb_seconds_by_tenant["a"] == pytest.approx(0.075)
        assert billing.gb_seconds_by_tenant["b"] == pytest.approx(0.025)

    def test_missing_or_zero_attribution_is_unattributed(self):
        billing = BillingModel()
        billing.charge_invocation(1 * GIB, 0.1)
        billing.charge_invocation(1 * GIB, 0.1, attribution={})
        billing.charge_invocation(1 * GIB, 0.1, attribution={"a": 0.0})
        assert set(billing.cost_by_tenant) == {UNATTRIBUTED_TENANT}
        assert billing.cost_by_tenant[UNATTRIBUTED_TENANT] == pytest.approx(
            billing.total_cost
        )

    def test_ledger_conserves_totals(self):
        billing = BillingModel()
        billing.charge_invocation(1 * GIB, 0.25, attribution={"a": 1.0, "b": 2.0})
        billing.charge_invocation(2 * GIB, 0.05, attribution={"b": 1.0})
        billing.charge_invocation(1 * GIB, 0.1)
        assert sum(billing.cost_by_tenant.values()) == pytest.approx(billing.total_cost)
        assert sum(billing.gb_seconds_by_tenant.values()) == pytest.approx(
            billing.total_gb_seconds
        )

    def test_reset_clears_tenant_ledgers(self):
        billing = BillingModel()
        billing.charge_invocation(1 * GIB, 0.1, attribution={"a": 1.0})
        billing.reset()
        assert billing.cost_by_tenant == {}
        assert billing.gb_seconds_by_tenant == {}
        assert billing.total_gb_seconds == 0.0


class TestClusterChargeback:
    def _drive(self, cluster: InfiniCacheCluster) -> None:
        media = cluster.register_tenant("media")
        api = cluster.register_tenant("api", TenantQuota(max_bytes=80 * MB))
        now = 0.5
        for index in range(40):
            cluster.run_until(now)
            media.put_sized(f"video-{index:03d}", 6 * MB)
            if index % 2 == 0:
                api.put_sized(f"item-{index:03d}", 1 * MB)
            media.get(f"video-{max(0, index - 3):03d}")
            now += 2.0
        # Run past warm-up and backup ticks so maintenance costs accrue too.
        cluster.run_until(now + 400.0)

    def test_chargeback_sums_to_cluster_bill(self):
        cluster = make_cluster()
        self._drive(cluster)
        cluster.stop()
        report = cluster.chargeback_report()
        total = cluster.total_cost()
        assert total > 0
        assert sum(row["cost"] for row in report.values()) == pytest.approx(total)
        billing = cluster.deployment.billing
        assert sum(row["gb_seconds"] for row in report.values()) == pytest.approx(
            billing.total_gb_seconds
        )
        assert sum(row["bill_share"] for row in report.values()) == pytest.approx(1.0)

    def test_busier_tenant_pays_more(self):
        cluster = make_cluster()
        self._drive(cluster)
        cluster.stop()
        report = cluster.chargeback_report()
        assert report["media"]["cost"] > report["api"]["cost"]
        assert report["media"]["gb_seconds"] > 0

    def test_every_registered_tenant_gets_a_row(self):
        cluster = make_cluster()
        cluster.register_tenant("idle")
        cluster.stop()
        report = cluster.chargeback_report()
        assert report["idle"]["cost"] == 0.0
        assert report["idle"]["gb_seconds"] == 0.0

    def test_billed_gauges_exported(self):
        cluster = make_cluster()
        self._drive(cluster)
        cluster.stop()
        cluster.chargeback_report()
        gauges = cluster.metrics.gauges()
        assert gauges["tenant.media.billed_gb_seconds"] > 0
        assert gauges["tenant.media.billed_cost"] > 0

    def test_separator_in_request_key_rejected(self):
        cluster = make_cluster()
        media = cluster.register_tenant("media")
        with pytest.raises(TenantError):
            media.put_sized("spoof::other-tenant-key", 1 * MB)
        with pytest.raises(TenantError):
            media.get("spoof::other-tenant-key")
        with pytest.raises(TenantError):
            media.invalidate("spoof::other")
        with pytest.raises(TenantError):
            media.exists("spoof::other")
        cluster.stop()


@pytest.fixture(scope="class")
def policy_comparison():
    """``autoscale_policies`` at its golden scale, built once per class."""
    from repro.experiments import registry

    return registry.build("autoscale_policies", "golden")


class TestChargebackExperiments:
    def test_cluster_scale_conservation(self):
        from repro.experiments import cluster_scale

        result = cluster_scale.run(
            tenants=cluster_scale.default_tenants(40), duration_s=90.0
        )
        assert result.chargeback_total_cost == pytest.approx(result.total_cost)
        report = cluster_scale.format_report(result)
        assert "chargeback conservation" in report

    def test_policy_comparison_reports_both_policies(self, policy_comparison):
        from repro.experiments import autoscale_policies

        result = policy_comparison
        assert set(result.runs) == {"reactive", "predictive", "predictive_trend"}
        for run_result in result.runs.values():
            assert run_result.chargeback_total_cost == pytest.approx(
                run_result.total_cost
            )
        report = autoscale_policies.format_report(result)
        assert "reactive" in report and "predictive" in report

    def test_every_policy_replays_one_schedule(self, policy_comparison):
        """The comparison's premise: every policy serves the same requests —
        the same arrival instants, tenants and keys — and throttles the same
        ones, so the policies differ only in how they size the pool."""
        result = policy_comparison
        schedules = {
            policy: sorted(
                (sample.started_at, sample.client_id, sample.key)
                for sample in run_result.replay_report.samples
            )
            for policy, run_result in result.runs.items()
        }
        issued = {
            policy: {
                tenant_id: (outcome.requests_issued, outcome.throttled)
                for tenant_id, outcome in run_result.tenants.items()
            }
            for policy, run_result in result.runs.items()
        }
        reactive = schedules.pop("reactive")
        assert reactive and all(schedule == reactive for schedule in schedules.values())
        assert sum(throttled for _issued, throttled in issued["reactive"].values()) > 0
        assert all(counts == issued["reactive"] for counts in issued.values())

"""End-to-end tests for the orchestrated cluster and its routing layer."""

import pytest

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.namespacing import owner_of
from repro.cluster import (
    AutoscalerConfig,
    InfiniCacheCluster,
    TenantQuota,
)
from repro.exceptions import (
    ConfigurationError,
    QuotaExceededError,
    RateLimitedError,
    TenantError,
)
from repro.utils.rng import SeededRNG
from repro.utils.units import MB, MIB


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
        seed=5,
    )
    defaults.update(config_overrides)
    cluster = InfiniCacheCluster(
        InfiniCacheConfig(**defaults),
        autoscaler_config=AutoscalerConfig(interval_s=15.0),
    )
    cluster.start()
    return cluster


class TestTenantDataPath:
    def test_real_payload_round_trip(self):
        cluster = make_cluster()
        media = cluster.register_tenant("media")
        payload = bytes(range(256)) * 4096
        put = media.put("blob", payload)
        assert put.key == "blob"  # namespace is stripped from results
        got = media.get("blob")
        assert got.hit and got.value == payload
        cluster.stop()

    def test_namespace_isolation(self):
        cluster = make_cluster()
        alpha = cluster.register_tenant("alpha")
        beta = cluster.register_tenant("beta")
        alpha.put_sized("shared-key", 1 * MB)
        assert alpha.exists("shared-key")
        assert not beta.exists("shared-key")
        assert not beta.get("shared-key").hit
        # beta writing the same name does not clobber alpha's object.
        beta.put_sized("shared-key", 2 * MB)
        assert alpha.get("shared-key").size == 1 * MB
        cluster.stop()

    def test_invalidate_frees_tenant_bytes(self):
        cluster = make_cluster()
        # Quotas are parity-inclusive: an 8 MB object occupies 12 MB of
        # stored stripe bytes under the (4+2) code.
        media = cluster.register_tenant("media", TenantQuota(max_bytes=14 * MB))
        media.put_sized("a", 8 * MB)
        with pytest.raises(QuotaExceededError):
            media.put_sized("b", 8 * MB)
        assert media.invalidate("a")
        media.put_sized("b", 8 * MB)
        cluster.stop()

    def test_rate_limited_tenant(self):
        cluster = make_cluster()
        api = cluster.register_tenant(
            "api", TenantQuota(max_requests_per_s=1.0, burst_requests=2)
        )
        api.put_sized("k0", 1 * MB)
        api.put_sized("k1", 1 * MB)
        with pytest.raises(RateLimitedError):
            api.put_sized("k2", 1 * MB)
        cluster.run_until(10.0)
        api.put_sized("k2", 1 * MB)  # bucket refilled on the sim clock
        cluster.stop()

    def test_unregistered_tenant_rejected(self):
        cluster = make_cluster()
        with pytest.raises(TenantError):
            cluster.router.put_sized("ghost", "k", 1 * MB)
        with pytest.raises(TenantError):
            cluster.router.get("ghost", "k")
        cluster.stop()

    def test_eviction_reconciles_other_tenants_usage(self):
        # One proxy with a tiny pool: tenant B's inserts evict tenant A's
        # objects, and A's byte accounting must follow.
        cluster = make_cluster(
            num_proxies=1, lambdas_per_proxy=6, min_lambdas_per_proxy=6,
            max_lambdas_per_proxy=6, lambda_memory_bytes=128 * MIB,
        )
        a = cluster.register_tenant("a")
        b = cluster.register_tenant("b")
        for index in range(8):
            a.put_sized(f"a-{index}", 40 * MB)
        before = cluster.tenant_report()["a"]["bytes_stored"]
        for index in range(8):
            b.put_sized(f"b-{index}", 40 * MB)
        after = cluster.tenant_report()["a"]["bytes_stored"]
        assert after < before
        cluster.stop()


    def test_rolled_back_put_keeps_gauge_equal_to_node_contents(self):
        """A PUT the proxy rolls back under faults stores nothing — and wipes
        the version it was overwriting — so the tenant is charged nothing."""
        cluster = make_cluster()
        media = cluster.register_tenant("media")
        deployment = cluster.deployment
        loop = deployment.simulator

        def put(key):
            task = loop.spawn(media.put_sized_process(key, 2 * MB, deployment.request_env))
            return loop.run_until_complete(task)

        def bytes_on_nodes():
            return sum(
                node.peek_chunk(chunk_id).size
                for proxy in deployment.proxies
                for node in proxy.nodes
                for chunk_id in node.chunk_ids()
                if owner_of(chunk_id) == "media"
            )

        def gauge():
            return cluster.tenant_report()["media"]["bytes_stored"]

        assert put("a").complete
        assert gauge() == bytes_on_nodes() > 0
        cluster.run_until(loop.now + 30.0)  # let the nodes' billed sessions lapse
        deployment.platform.set_invocation_faults(
            failure_probability=1.0, rng=SeededRNG(99)
        )
        for key in ("b", "a"):  # a fresh key, then an overwrite
            result = put(key)
            assert not result.complete and result.key == key
            assert not media.exists(key)
            assert gauge() == bytes_on_nodes()
        assert gauge() == 0
        assert cluster.tenant_report()["media"]["puts"] == 1
        assert cluster.router.client.puts == 1
        cluster.stop()


class TestOrchestration:
    def test_autoscaler_reacts_during_run_until(self):
        cluster = make_cluster(lambda_memory_bytes=192 * MIB)
        media = cluster.register_tenant("media")
        now = 1.0
        for index in range(120):
            cluster.run_until(now)
            media.put_sized(f"obj-{index:04d}", 10 * MB)
            now += 1.0
        assert sum(cluster.pool_sizes().values()) > 16
        scale_ups = cluster.metrics.counters()["cluster.autoscaler.scale_ups"]
        assert scale_ups > 0
        cluster.stop()

    def test_membership_change_mid_run(self):
        cluster = make_cluster()
        media = cluster.register_tenant("media")
        keys = [f"doc-{index}" for index in range(30)]
        for key in keys:
            media.put_sized(key, 2 * MB)
        cluster.add_proxy()
        assert len(cluster.deployment.proxies) == 3
        assert all(media.get(key).hit for key in keys)
        cluster.remove_proxy("proxy-0")
        assert len(cluster.deployment.proxies) == 2
        assert all(media.get(key).hit for key in keys)
        cluster.stop()

    def test_describe_and_report(self):
        cluster = make_cluster()
        cluster.register_tenant("media")
        description = cluster.describe()
        assert description["tenants"] == ["media"]
        assert description["pool_sizes"] == {"proxy-0": 8, "proxy-1": 8}
        assert description["autoscaler"]["min_nodes"] == 6
        assert description["autoscaler"]["max_nodes"] == 24
        cluster.stop()

    def test_rebalance_costs_are_categorised(self):
        cluster = make_cluster()
        media = cluster.register_tenant("media")
        for index in range(30):
            media.put_sized(f"obj-{index}", 4 * MB)
        cluster.add_proxy()
        cluster.stop()
        assert cluster.cost_breakdown().get("rebalance", 0.0) > 0.0


class TestClusterScaleExperiment:
    def test_quick_run_reports_all_tenants(self):
        from repro.experiments import cluster_scale

        specs = [
            cluster_scale.TenantSpec(
                tenant_id="media", requests=40, num_objects=20, object_size=8 * MB,
            ),
            cluster_scale.TenantSpec(
                tenant_id="api", requests=40, num_objects=5, object_size=1 * MB,
                quota=TenantQuota(max_requests_per_s=0.5, burst_requests=2),
            ),
        ]
        result = cluster_scale.run(tenants=specs, duration_s=120.0, seed=3)
        assert set(result.tenants) == {"media", "api"}
        media = result.tenants["media"]
        assert media.requests_issued == 40
        assert 0.0 <= media.hit_ratio <= 1.0
        assert result.tenants["api"].throttled > 0
        assert result.total_cost > 0
        report = cluster_scale.format_report(result)
        assert "media" in report and "api" in report
        assert "pool size" in report

    def test_run_rejects_tenant_mixes_it_cannot_replay(self):
        from repro.experiments import cluster_scale

        media = cluster_scale.TenantSpec(
            tenant_id="media", requests=4, num_objects=2, object_size=1 * MB,
        )
        with pytest.raises(ConfigurationError, match="duplicate tenant ids"):
            cluster_scale.run(tenants=[media, media], duration_s=10.0)
        with pytest.raises(ConfigurationError, match="at least one tenant"):
            cluster_scale.run(tenants=[], duration_s=10.0)

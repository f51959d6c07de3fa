"""Tests for the client library (GET/PUT, encoding, consistent hashing)."""

import pytest

from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.cache.ledger import export_object
from repro.exceptions import ConfigurationError
from repro.utils.units import MB, MIB


def build_deployment(num_proxies: int = 1, lambdas: int = 16) -> InfiniCacheDeployment:
    config = InfiniCacheConfig(
        num_proxies=num_proxies,
        lambdas_per_proxy=lambdas,
        lambda_memory_bytes=1536 * MIB,
        data_shards=4,
        parity_shards=2,
        straggler=StragglerModel(probability=0.0),
        seed=3,
    )
    deployment = InfiniCacheDeployment(config)
    deployment.start()
    return deployment


def payload(size: int = 400_000) -> bytes:
    return bytes(i % 256 for i in range(size))


class TestPutGetRoundtrip:
    def test_real_bytes_roundtrip(self, client):
        data = payload()
        put = client.put("photo", data)
        assert put.size == len(data)
        assert put.latency_s > 0
        get = client.get("photo")
        assert get.hit
        assert get.value == data
        assert get.size == len(data)

    def test_roundtrip_of_odd_sizes(self, client):
        for size in (1, 7, 4093, 100_001):
            key = f"odd-{size}"
            data = payload(size)
            client.put(key, data)
            assert client.get(key).value == data

    @pytest.mark.parametrize(
        "wrap", [bytearray, lambda data: memoryview(bytearray(data))],
        ids=["bytearray", "memoryview"],
    )
    def test_bytes_like_values_are_stored_as_immutable_bytes(self, client, deployment, wrap):
        """Every stored payload is ``bytes`` or a read-only view over a
        ``bytes`` object, and mutating the caller's buffer after the PUT
        changes nothing the cache serves."""
        data = payload(4093)
        value = wrap(data)
        client.put("buffer", value)
        _descriptor, stored = export_object(deployment.proxies[0], "buffer")
        views = [chunk.payload for chunk in stored if type(chunk.payload) is memoryview]
        assert len(views) == 3  # three full 1024-byte data shards, then the tail
        assert all(type(chunk.payload) in (bytes, memoryview) for chunk in stored)
        for view in views:
            assert view.readonly and type(view.obj) is bytes
            with pytest.raises(TypeError):
                view[0] = 0
        value[:] = bytes(len(value))
        assert client.get("buffer").value == data

    def test_bytes_values_are_stored_without_a_copy(self, client, deployment):
        data = payload(4096)
        client.put("zero-copy", data)
        _descriptor, stored = export_object(deployment.proxies[0], "zero-copy")
        assert [type(chunk.payload) for chunk in stored] == [memoryview] * 4 + [bytes] * 2
        assert all(chunk.payload.obj is data for chunk in stored[:4])
        assert client.get("zero-copy").value == data

    def test_sized_objects_have_no_payload(self, client):
        client.put_sized("big", 50 * MB)
        result = client.get("big")
        assert result.hit
        assert result.value is None
        assert result.size == 50 * MB
        assert result.latency_s > 0

    def test_miss_for_unknown_key(self, client):
        result = client.get("never-inserted")
        assert not result.hit
        assert result.latency_s == 0.0

    def test_exists(self, client):
        assert not client.exists("k")
        client.put("k", payload(100))
        assert client.exists("k")

    def test_invalidate(self, client):
        client.put("k", payload(100))
        assert client.invalidate("k") is True
        assert not client.get("k").hit
        assert client.invalidate("k") is False

    def test_overwrite_returns_new_value(self, client):
        client.put("k", b"version-1" * 100)
        client.put("k", b"version-2" * 100)
        assert client.get("k").value == b"version-2" * 100

    def test_hit_ratio_tracking(self, client):
        client.put("a", payload(100))
        client.get("a")
        client.get("missing")
        assert client.hit_ratio() == pytest.approx(0.5)

    def test_empty_key_and_value_rejected(self, client):
        with pytest.raises(ConfigurationError):
            client.put("", b"data")
        with pytest.raises(ConfigurationError):
            client.put("k", b"")
        with pytest.raises(ConfigurationError):
            client.put_sized("k", 0)
        with pytest.raises(ConfigurationError):
            client.get("")


class TestEncodingBehaviour:
    def test_chunks_spread_over_distinct_nodes(self, client):
        put = client.put("spread", payload(600_000))
        assert len(put.node_ids) == 6
        assert len(set(put.node_ids)) == 6

    def test_decode_flag_false_when_data_chunks_arrive(self, client):
        """With no stragglers all data chunks arrive among the first d, so the
        fast path avoids RS decoding."""
        client.put("obj", payload(600_000))
        result = client.get("obj")
        assert result.hit
        # decoded may be True occasionally if a parity chunk beat a data chunk;
        # with zero straggler probability and uniform nodes it should not be.
        assert result.decoded is False

    def test_latency_includes_encode_cost(self, client):
        small = client.put("small", payload(10_000))
        large = client.put("large", payload(4_000_000))
        assert large.latency_s > small.latency_s


class TestMultiProxyDeployment:
    def test_keys_distribute_over_proxies(self):
        deployment = build_deployment(num_proxies=3, lambdas=8)
        try:
            client = deployment.new_client()
            used_proxies = set()
            for i in range(60):
                result = client.put_sized(f"obj-{i}", 1 * MB)
                used_proxies.add(result.proxy_id)
            assert len(used_proxies) == 3
        finally:
            deployment.stop()

    def test_same_key_same_proxy_across_clients(self):
        deployment = build_deployment(num_proxies=3, lambdas=8)
        try:
            client_a = deployment.new_client("a")
            client_b = deployment.new_client("b")
            put = client_a.put_sized("shared-object", 2 * MB)
            get = client_b.get("shared-object")
            assert get.hit
            assert get.proxy_id == put.proxy_id
        finally:
            deployment.stop()

    def test_client_requires_proxies(self, deployment):
        from repro.cache.client import InfiniCacheClient

        with pytest.raises(ConfigurationError):
            InfiniCacheClient([], deployment.config, deployment.simulator.clock)

"""Tests for the network model (shared NICs, transfer timing)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.network.topology import HostNic, NetworkFabric
from repro.network.transfer import BASE_LATENCY_S, TransferModel
from repro.utils.units import MB


class TestHostNic:
    def test_effective_bandwidth_divides_among_flows(self):
        nic = HostNic(host_id="vm-0", capacity_bps=200 * MB)
        assert nic.effective_bandwidth(1) == 200 * MB
        assert nic.effective_bandwidth(4) == 50 * MB

    def test_effective_bandwidth_uses_registered_flows(self):
        nic = HostNic(host_id="vm-0", capacity_bps=100 * MB)
        nic.acquire()
        nic.acquire()
        assert nic.effective_bandwidth() == 50 * MB
        nic.release()
        assert nic.effective_bandwidth() == 100 * MB

    def test_release_without_acquire_rejected(self):
        nic = HostNic(host_id="vm-0", capacity_bps=MB)
        with pytest.raises(ConfigurationError):
            nic.release()

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            HostNic(host_id="vm-0", capacity_bps=0)


class TestNetworkFabric:
    def test_host_created_once(self):
        fabric = NetworkFabric()
        nic_a = fabric.host("vm-1", 100 * MB)
        nic_b = fabric.host("vm-1", 999 * MB)
        assert nic_a is nic_b
        assert nic_a.capacity_bps == 100 * MB

    def test_proxy_share(self):
        fabric = NetworkFabric(proxy_uplink_bps=1000.0)
        assert fabric.proxy_share(1) == 1000.0
        assert fabric.proxy_share(4) == 250.0
        assert fabric.proxy_share(0) == 1000.0


class TestTransferModel:
    def test_bottleneck_is_function_bandwidth_when_alone(self):
        model = TransferModel()
        timing = model.chunk_transfer_timing(
            chunk_bytes=10 * MB,
            function_bandwidth_bps=100 * MB,
            host_capacity_bps=200 * MB,
            host_id="vm-0",
            flows_on_host=1,
            concurrent_request_streams=1,
        )
        assert timing.bandwidth_bps == 100 * MB
        assert timing.total_s == pytest.approx(BASE_LATENCY_S + 0.1)

    def test_bottleneck_moves_to_shared_host_nic(self):
        model = TransferModel()
        timing = model.chunk_transfer_timing(
            chunk_bytes=10 * MB,
            function_bandwidth_bps=100 * MB,
            host_capacity_bps=200 * MB,
            host_id="vm-0",
            flows_on_host=10,
            concurrent_request_streams=1,
        )
        assert timing.bandwidth_bps == pytest.approx(20 * MB)

    def test_more_hosts_is_faster(self):
        """The Figure 4 effect: spreading flows over more hosts lowers latency."""
        model = TransferModel()
        crowded = model.chunk_transfer_timing(
            chunk_bytes=10 * MB, function_bandwidth_bps=60 * MB,
            host_capacity_bps=200 * MB, host_id="vm-0",
            flows_on_host=6, concurrent_request_streams=11,
        )
        spread = model.chunk_transfer_timing(
            chunk_bytes=10 * MB, function_bandwidth_bps=60 * MB,
            host_capacity_bps=200 * MB, host_id="vm-1",
            flows_on_host=1, concurrent_request_streams=11,
        )
        assert spread.total_s < crowded.total_s

    def test_proxy_uplink_can_be_bottleneck(self):
        model = TransferModel()
        model.fabric.proxy_uplink_bps = 100 * MB
        timing = model.chunk_transfer_timing(
            chunk_bytes=10 * MB, function_bandwidth_bps=100 * MB,
            host_capacity_bps=1000 * MB, host_id="vm-0",
            flows_on_host=1, concurrent_request_streams=10,
        )
        assert timing.bandwidth_bps == pytest.approx(10 * MB)

    def test_describe(self):
        description = TransferModel().describe()
        assert "base_latency_ms" in description
        assert "proxy_uplink_MBps" in description

    def test_describe_reports_the_one_millisecond_base_latency(self):
        assert BASE_LATENCY_S == 0.001
        assert TransferModel().describe()["base_latency_ms"] == pytest.approx(1.0)

    def test_zero_byte_chunk_pays_only_the_base_latency(self):
        timing = TransferModel().chunk_transfer_timing(
            chunk_bytes=0, function_bandwidth_bps=100 * MB,
            host_capacity_bps=200 * MB, host_id="vm-0",
            flows_on_host=1, concurrent_request_streams=1,
        )
        assert timing.transfer_s == 0.0
        assert timing.total_s == BASE_LATENCY_S

    def test_doubling_bandwidth_halves_the_transfer_not_the_latency(self):
        model = TransferModel()
        slow, fast = (
            model.chunk_transfer_timing(
                chunk_bytes=10 * MB, function_bandwidth_bps=bandwidth,
                host_capacity_bps=1000 * MB, host_id="vm-0",
                flows_on_host=1, concurrent_request_streams=1,
            )
            for bandwidth in (50 * MB, 100 * MB)
        )
        assert fast.transfer_s == pytest.approx(slow.transfer_s / 2)
        assert fast.latency_s == slow.latency_s == BASE_LATENCY_S

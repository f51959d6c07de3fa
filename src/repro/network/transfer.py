"""Per-request transfer-time estimation.

:class:`TransferModel` answers one question for the cache simulation: given a
chunk of B bytes moving between a Lambda node (on some VM host, with some
memory-dependent bandwidth cap) and the proxy, while K sibling chunks of the
same request are in flight and the chunk's host carries C co-located flows,
how long does the transfer take?

The model is deliberately simple — fixed latency plus the bottleneck of three
bandwidth caps (function cap, shared host NIC share, shared proxy uplink
share) — because that is sufficient to reproduce the *shapes* in Figures 4,
11, and 12: bigger functions are faster up to a plateau, spreading chunks
over more hosts is faster, and throughput scales with clients until the
proxies saturate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.topology import NetworkFabric
from repro.utils.units import MB, MILLISECOND

#: Fixed per-chunk latency (TCP + proxy forwarding).
BASE_LATENCY_S = 1 * MILLISECOND


@dataclass(frozen=True)
class TransferTiming:
    """Breakdown of one chunk transfer's timing."""

    latency_s: float
    bandwidth_bps: float
    transfer_s: float

    @property
    def total_s(self) -> float:
        """End-to-end time for this chunk."""
        return self.latency_s + self.transfer_s


class TransferModel:
    """Estimates chunk transfer times over the simulated fabric."""

    def __init__(self, fabric: NetworkFabric | None = None) -> None:
        """Create a transfer model over ``fabric`` (a fresh NIC registry if omitted)."""
        self.fabric = fabric or NetworkFabric()

    def chunk_transfer_timing(
        self,
        chunk_bytes: int,
        function_bandwidth_bps: float,
        host_capacity_bps: float,
        host_id: str,
        flows_on_host: int,
        concurrent_request_streams: int,
    ) -> TransferTiming:
        """Timing for one chunk moving between a Lambda node and the proxy.

        Args:
            chunk_bytes: payload size.
            function_bandwidth_bps: the function's own bandwidth cap (memory
                dependent, see :mod:`repro.faas.limits`).
            host_capacity_bps: total NIC capacity of the function's VM host.
            host_id: identifier of the VM host (for the shared-NIC registry).
            flows_on_host: number of chunk flows sharing that host NIC right
                now, including this one.
            concurrent_request_streams: number of chunk streams sharing the
                proxy uplink right now, including this one.

        Returns:
            A :class:`TransferTiming` whose ``bandwidth_bps`` is the binding
            bottleneck among the three caps.
        """
        nic = self.fabric.host(host_id, host_capacity_bps)
        host_share = nic.effective_bandwidth(max(flows_on_host, 1))
        proxy_share = self.fabric.proxy_share(max(concurrent_request_streams, 1))
        bandwidth = min(function_bandwidth_bps, host_share, proxy_share)
        transfer_s = chunk_bytes / bandwidth
        return TransferTiming(
            latency_s=BASE_LATENCY_S,
            bandwidth_bps=bandwidth,
            transfer_s=transfer_s,
        )

    def describe(self) -> dict[str, float]:
        """Model parameters, for experiment reports."""
        return {
            "base_latency_ms": BASE_LATENCY_S / MILLISECOND,
            "proxy_uplink_MBps": self.fabric.proxy_uplink_bps / MB,
        }

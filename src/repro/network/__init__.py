"""Network model for the simulated AWS substrate.

The paper's performance results hinge on a few network facts:

* Lambda functions only make *outbound* TCP connections; the proxy accepts
  them (this constraint shapes the whole architecture but not the timing
  model).
* A Lambda function's bandwidth grows with its configured memory — the
  authors measured roughly 50-160 MB/s from 128 MB to 3008 MB functions.
* Multiple functions packed on one VM host *share* that host's NIC, which is
  the contention effect behind Figure 4.

:class:`~repro.network.topology.HostNic` models the shared per-host uplink;
:class:`~repro.network.transfer.TransferModel` turns it into per-chunk
timing estimates, and :class:`~repro.network.flows.FlowNetwork` shares
bandwidth between the flows of the event-driven request path.
"""

from repro.network.flows import FlowInterval, FlowNetwork, FlowTrace, ReferenceFlowNetwork
from repro.network.topology import HostNic, NetworkFabric
from repro.network.transfer import TransferModel

__all__ = [
    "FlowInterval",
    "FlowNetwork",
    "FlowTrace",
    "HostNic",
    "NetworkFabric",
    "ReferenceFlowNetwork",
    "TransferModel",
]

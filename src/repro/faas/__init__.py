"""Simulated Function-as-a-Service platform (an AWS Lambda stand-in).

The paper treats AWS Lambda as a black box with a handful of externally
observable behaviours; this package reimplements exactly those behaviours so
the cache above it faces the same constraints:

* configurable memory 128-3008 MB in 64 MB steps, CPU and network bandwidth
  scaling with memory (:mod:`repro.faas.limits`);
* per-invocation fee plus duration billed in 100 ms cycles of GB-seconds
  (:mod:`repro.faas.billing`);
* functions placed onto ~3 GB VM hosts by a greedy bin-packing heuristic, so
  small functions share a host NIC (:mod:`repro.faas.host`);
* warm instances cached between invocations, cold starts on first use, and
  provider-initiated reclamation following the empirical patterns of
  Figures 8-9 (:mod:`repro.faas.reclamation`);
* only outbound connections; concurrent invocations of one function create
  peer replicas (auto-scaling), which the backup protocol relies on
  (:mod:`repro.faas.platform`).
"""

from repro.faas.billing import InvocationCharge
from repro.faas.platform import InvocationResult

__all__ = [
    "InvocationCharge",
    "InvocationResult",
]

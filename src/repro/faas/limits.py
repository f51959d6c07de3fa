"""AWS Lambda resource limits and memory-proportional scaling rules.

Numbers come straight from the paper (Section 2.2 and Section 5 setup):

* memory configurable from 128 MB to 3008 MB in 64 MB increments;
* maximum execution time of 900 seconds;
* no inbound TCP connections (enforced by the platform API shape, not here);
* measured function-to-EC2 bandwidth of roughly 50 MB/s for the smallest
  functions up to about 160 MB/s for 3008 MB functions;
* Lambda-hosting VMs have about 3 GB of memory, so a >= 1536 MB function gets
  a host to itself.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.utils.units import MB, MIB

#: Smallest configurable function memory (bytes).
MIN_MEMORY_BYTES = 128 * MIB

#: Largest configurable function memory (bytes).
MAX_MEMORY_BYTES = 3008 * MIB

#: Memory must be a multiple of this step.
MEMORY_STEP_BYTES = 64 * MIB

#: Hard cap on a single invocation's duration (seconds).
MAX_EXECUTION_SECONDS = 900.0

#: Memory of the VM hosts that run Lambda functions (bytes).  The paper
#: reports "approximately 3 GB"; we use 3008 MiB so one maximal function
#: exactly fills a host.
HOST_MEMORY_BYTES = 3008 * MIB

#: Host NIC capacity (bytes/second).  Chosen so a single co-located 256 MB
#: function pair exhibits the contention visible in Figure 4 while a lone
#: 3008 MB function can reach its ~160 MB/s ceiling.
HOST_NIC_BANDWIDTH = 200 * MB

#: Measured per-function bandwidth endpoints from the paper's iperf3 runs.
MIN_FUNCTION_BANDWIDTH = 50 * MB
MAX_FUNCTION_BANDWIDTH = 160 * MB

#: Average warm-invocation overhead observed by the authors (seconds).
WARM_INVOCATION_OVERHEAD = 0.013

#: Cold-start penalty (seconds).  The paper does not rely on a precise value
#: (cold starts are not billed); 150 ms is in the range reported for Go
#: runtimes by the measurement study the paper cites.
COLD_START_OVERHEAD = 0.150

#: Share of a function's configured memory the Go runtime, connection
#: buffers and the CLOCK bookkeeping take before any chunk is cached.
RUNTIME_OVERHEAD_FRACTION = 0.10


def validate_memory_bytes(memory_bytes: int) -> int:
    """Validate and return a function memory size.

    Raises:
        ConfigurationError: if the size is out of range or not a multiple of
            the 64 MB step.
    """
    if memory_bytes < MIN_MEMORY_BYTES or memory_bytes > MAX_MEMORY_BYTES:
        raise ConfigurationError(
            f"Lambda memory must be between {MIN_MEMORY_BYTES} and {MAX_MEMORY_BYTES} bytes, "
            f"got {memory_bytes}"
        )
    if memory_bytes % MEMORY_STEP_BYTES != 0:
        raise ConfigurationError(
            f"Lambda memory must be a multiple of {MEMORY_STEP_BYTES} bytes, got {memory_bytes}"
        )
    return int(memory_bytes)


def bandwidth_for_memory(memory_bytes: int) -> float:
    """Network bandwidth (bytes/s) available to a function of this size.

    Linear interpolation between the measured 50 MB/s (128 MB function) and
    160 MB/s (3008 MB function) endpoints reported in the paper's setup.
    """
    validate_memory_bytes(memory_bytes)
    span = MAX_MEMORY_BYTES - MIN_MEMORY_BYTES
    fraction = (memory_bytes - MIN_MEMORY_BYTES) / span
    return MIN_FUNCTION_BANDWIDTH + fraction * (MAX_FUNCTION_BANDWIDTH - MIN_FUNCTION_BANDWIDTH)


def usable_cache_bytes(memory_bytes: int) -> int:
    """Memory available for cached chunks after :data:`RUNTIME_OVERHEAD_FRACTION`.

    The paper sizes pools with the full configured value, so the overhead is
    kept small.
    """
    validate_memory_bytes(memory_bytes)
    return int(memory_bytes * (1.0 - RUNTIME_OVERHEAD_FRACTION))

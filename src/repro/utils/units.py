"""Byte and time unit constants and formatting helpers.

Conventions used throughout the library:

* **Sizes** are plain ``int`` bytes.  Decimal constants (``MB``) are used for
  workload object sizes to match the paper's "10 MB", "100 MB" phrasing;
  binary constants (``MiB``) are used for Lambda memory configuration because
  AWS sizes function memory in binary megabytes.
* **Times** are ``float`` seconds of simulated time.  Constants such as
  :data:`MILLISECOND` make call sites read naturally
  (``timeout = 100 * MILLISECOND``).
"""

from __future__ import annotations

# --- byte units (decimal, as in the paper's object sizes) -------------------
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

# --- byte units (binary, as in AWS memory configuration) --------------------
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

# --- time units (seconds) ----------------------------------------------------
MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0

def format_bytes(num_bytes: float) -> str:
    """Render a byte count with a human-friendly decimal suffix.

    >>> format_bytes(1_500_000)
    '1.50 MB'
    >>> format_bytes(512)
    '512 B'
    """
    value = float(num_bytes)
    for suffix, factor in (("TB", 1e12), ("GB", GB), ("MB", MB), ("KB", KB)):
        if abs(value) >= factor:
            return f"{value / factor:.2f} {suffix}"
    return f"{int(value)} B"


def format_duration(seconds: float) -> str:
    """Render a duration in the most natural unit.

    >>> format_duration(0.0421)
    '42.1 ms'
    >>> format_duration(7260)
    '2.02 h'
    """
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < MINUTE:
        return f"{seconds:.2f} s"
    if seconds < HOUR:
        return f"{seconds / MINUTE:.2f} min"
    if seconds < DAY:
        return f"{seconds / HOUR:.2f} h"
    return f"{seconds / DAY:.2f} d"

"""Observability: request tracing, trace export, critical-path analysis,
and the metric primitives (:mod:`repro.obs.metrics`, imported by name).

The package is deliberately dependency-light — it reads the sim clock and
nothing else — so any component can emit spans without import cycles, and a
disabled tracer costs one no-op call per span boundary.
"""

from repro.obs.critical_path import analyze, format_summary
from repro.obs.export import (
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, SpanTracer

__all__ = [
    "analyze",
    "format_summary",
    "to_chrome_trace",
    "to_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "NULL_SPAN",
    "NULL_TRACER",
    "SpanTracer",
]

"""Shared utilities: byte/time unit helpers, statistics, deterministic RNG."""

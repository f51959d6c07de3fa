"""Baseline systems InfiniCache is compared against in the paper.

* :mod:`repro.baselines.pricing` — price tables for ElastiCache instance
  types and S3, plus the Lambda prices re-exported for convenience.
* :mod:`repro.baselines.elasticache` — a Redis-like in-memory cache: one
  single-threaded node per instance (large I/Os are serialised, the reason
  the 1-node deployment loses to InfiniCache in Figure 11f), optional
  scale-out clustering over multiple nodes, LRU eviction, and hourly
  capacity-based billing.
* :mod:`repro.baselines.s3` — the backing object store used for the miss
  path and for the Figure 15/16 comparison: high first-byte latency and a
  bandwidth-bound transfer, billed per request and per GB-month (the paper's
  tenant-side comparison focuses on the cache cost, but the model keeps the
  accounting anyway).
"""

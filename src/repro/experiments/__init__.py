"""Experiment reproductions: one module per table/figure of the paper.

Every module exposes a ``run(...)`` function that returns plain data
structures (lists of rows / dicts of series) plus a ``format_report(...)``
helper that renders them as a text table.  The parameters each is run with
are declared once, per named scale (``golden`` / ``quick`` / ``report`` /
``paper``), in :mod:`repro.experiments.registry`; ``build(name, scale)``
there is how the runner and the tests obtain a result.  Paper settings
are module constants; ``run()`` takes what a scale varies.

| Module | Paper artefact |
|---|---|
| :mod:`repro.experiments.figure1`  | Fig. 1(a-d) trace characteristics |
| :mod:`repro.experiments.figure4`  | Fig. 4 latency vs #VM hosts touched |
| :mod:`repro.experiments.figure8`  | Fig. 8 reclaims over 24 h |
| :mod:`repro.experiments.figure9`  | Fig. 9 reclaims-per-minute distribution |
| :mod:`repro.experiments.figure11` | Fig. 11 microbenchmark latencies |
| :mod:`repro.experiments.figure12` | Fig. 12 throughput scalability |
| :mod:`repro.experiments.production` | shared 50-hour trace replay used by Figs. 13-16 & Table 1 |
| :mod:`repro.experiments.figure13` | Fig. 13 cost and cost breakdown |
| :mod:`repro.experiments.figure14` | Fig. 14 fault-tolerance activity timeline |
| :mod:`repro.experiments.figure15` | Fig. 15 latency CDFs vs ElastiCache / S3 |
| :mod:`repro.experiments.figure16` | Fig. 16 normalised latency by object size |
| :mod:`repro.experiments.figure17` | Fig. 17 hourly cost vs access rate |
| :mod:`repro.experiments.table1`   | Table 1 WSS / throughput / hit ratios |
| :mod:`repro.experiments.availability` | Section 4.3 availability numbers |

Beyond the paper:

| Module | Study |
|---|---|
| :mod:`repro.experiments.chaos_availability` | availability under the canonical fault storm, per hardening level |
| :mod:`repro.experiments.cluster_scale` | a multi-tenant mix against the orchestrated autoscaling cluster of :mod:`repro.cluster` |
| :mod:`repro.experiments.autoscale_policies` | the same mix once per autoscaler policy: cost vs. miss rate |

:mod:`repro.experiments.perf` is the simulator's own performance harness
(``python -m repro perf``), not an experiment.
"""


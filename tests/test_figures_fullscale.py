"""Full quick-scale figure regenerations, marked ``slow``.

The golden suite (``test_golden_figures.py``) pins every experiment at the
``golden`` scale so it runs on each PR; this module runs the whole registry
end to end at the ``quick`` scale ``python -m repro`` publishes — minutes
of CPU — and is therefore excluded from the tier-1 suite.  (The ``paper``
scale remains a manual, hours-long run, Figure 12's excepted.)  Run this
module explicitly with::

    PYTHONPATH=src python -m pytest tests/test_figures_fullscale.py --runslow
"""

from __future__ import annotations

import pytest

from repro.experiments import runner
from repro.experiments.registry import build, names

pytestmark = pytest.mark.slow


class TestFullScaleFigureRuns:
    def test_run_all_regenerates_every_report(self, tmp_path):
        reports = runner.run_all(
            output_dir=tmp_path / "results",
            fingerprints_path=tmp_path / "fingerprints.json",
        )
        assert list(reports) == names()
        for name in reports:
            assert (tmp_path / "results" / f"{name}.txt").exists()
        assert (tmp_path / "fingerprints.json").exists()

    def test_figure12_full_sweep_scales_to_ten_clients(self):
        result = build("figure12", "paper")
        ordered = [result.throughput_bps[c] for c in sorted(result.throughput_bps)]
        assert ordered[-1] > ordered[0]
        assert len(result.fingerprints) == len(result.throughput_bps)

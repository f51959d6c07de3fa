"""Shared fixtures and command-line options for the test suite.

Options:

* ``--update-golden`` — regenerate the golden differential-replay files
  under ``tests/golden/`` instead of comparing against them (see
  ``tests/test_golden_figures.py`` and the ``check_golden`` fixture below).
* ``--runslow`` — also run tests marked ``@pytest.mark.slow`` (the
  full-scale figure regenerations), which are excluded from the tier-1
  suite by default.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cache.billed_duration import BilledDurationController, SessionCharge
from repro.cache.config import InfiniCacheConfig, StragglerModel
from repro.cache.deployment import InfiniCacheDeployment
from repro.utils.rng import SeededRNG
from repro.utils.units import MIB


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate tests/golden/*.json instead of asserting against them",
    )
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run tests marked slow (full-scale figure regenerations)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: full-scale figure runs excluded from the tier-1 suite"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow full-scale run; use --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def check_golden(request):
    """``check(name, payload)``: compare ``payload`` against
    ``tests/golden/<name>.json``, or rewrite it under ``--update-golden``.
    With ``entry=key`` the payload is that one key of the file, so a file
    of many pins (``report_scale.json``) says which of them moved."""

    def check(name: str, payload, entry: str | None = None) -> None:
        path = GOLDEN_DIR / f"{name}.json"
        if request.config.getoption("--update-golden"):
            if entry is not None:
                pinned = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
                payload = {**pinned, entry: payload}
            path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            pytest.skip(f"regenerated {path.name}")
        assert path.exists(), f"missing golden file {path}; regenerate with --update-golden"
        golden = json.loads(path.read_text(encoding="utf-8"))
        if entry is not None:
            golden = golden.get(entry)
        assert payload == golden, (
            f"{entry or name} drifted from its golden pin; if the change is "
            "intentional, regenerate with --update-golden and commit the diff"
        )

    return check


@pytest.fixture
def record_charges():
    """``record(controller)``: a list that receives every
    :class:`~repro.cache.billed_duration.SessionCharge` the controller
    closes from now on, in close order, ahead of its own ``on_close``.

    The controller keeps no closed session, so a test that checks them
    wraps each node's ``node.duration_controller`` (or a bare controller)
    before the run.
    """

    def record(controller: BilledDurationController) -> list[SessionCharge]:
        charges: list[SessionCharge] = []
        forward = controller.on_close

        def on_close(charge: SessionCharge) -> None:
            charges.append(charge)
            if forward is not None:
                forward(charge)

        controller.on_close = on_close
        return charges

    return record


@pytest.fixture
def rng() -> SeededRNG:
    """A deterministic RNG for tests."""
    return SeededRNG(1234)


@pytest.fixture
def small_config() -> InfiniCacheConfig:
    """A small deployment configuration that keeps tests fast."""
    return InfiniCacheConfig(
        num_proxies=1,
        lambdas_per_proxy=16,
        lambda_memory_bytes=1536 * MIB,
        data_shards=4,
        parity_shards=2,
        backup_enabled=True,
        straggler=StragglerModel(probability=0.0),
        seed=99,
    )


@pytest.fixture
def deployment(small_config) -> InfiniCacheDeployment:
    """A started small deployment (no reclamation)."""
    built = InfiniCacheDeployment(small_config)
    built.start()
    yield built
    built.stop()


@pytest.fixture
def client(deployment):
    """A client bound to the small deployment."""
    return deployment.new_client("test-client")

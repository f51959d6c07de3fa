"""Tests for the virtual simulation clock."""

import pytest

from repro.exceptions import SimulationError
from repro.sim import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(10.0).now == 10.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(-1.0)

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now == 2.5

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.0)
        clock.advance(0.5)
        assert clock.now == pytest.approx(1.5)

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(SimulationError):
            clock.advance(-0.1)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(7.0)
        assert clock.now == 7.0

    def test_advance_to_now_is_noop(self):
        clock = SimClock(3.0)
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_past_rejected(self):
        clock = SimClock(5.0)
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)

    def test_repr_mentions_time(self):
        clock = SimClock(1.5)
        assert "1.5" in repr(clock)

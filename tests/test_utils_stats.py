"""Tests for the statistics helpers."""

import math

import pytest

from repro.utils.stats import cdf_points, percentile, summarize


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5

    def test_extremes(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestCdfPoints:
    def test_empty(self):
        assert list(cdf_points([])) == []

    def test_sorted_and_reaches_one(self):
        points = cdf_points([3, 1, 2])
        assert [value for value, _ in points] == [1, 2, 3]
        assert points[-1][1] == pytest.approx(1.0)

    def test_fractions_are_monotone(self):
        points = cdf_points([5, 5, 1, 9])
        fractions = [fraction for _, fraction in points]
        assert fractions == sorted(fractions)

    def test_single_value(self):
        assert list(cdf_points([7.0])) == [(7.0, 1.0)]


class TestSummarize:
    def test_empty_returns_nans(self):
        summary = summarize([])
        assert summary["count"] == 0
        assert math.isnan(summary["mean"])

    def test_basic_summary(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary["count"] == 5
        assert summary["mean"] == 3
        assert summary["min"] == 1
        assert summary["max"] == 5
        assert summary["p50"] == 3

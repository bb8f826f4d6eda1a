"""Percentiles, geometric means and the baseline ratio on hand-computed
inputs."""

import math

import pytest

from bench.stats import (MIN_TAIL_SAMPLES, best_baseline_ratio, geomean,
                         median, percentile)


def test_percentile_is_reported_only_with_ten_samples_beyond():
    assert MIN_TAIL_SAMPLES == 10
    hundred = list(range(1, 101))
    assert percentile(hundred, 90) == 90      # 10 samples above
    assert percentile(hundred, 91) is None    # 9 samples above
    assert percentile(list(range(1, 21)), 50) == 10
    assert percentile(list(range(1, 20)), 50) is None
    thousand = list(range(1000))
    assert percentile(thousand, 99) == 989
    assert percentile(thousand[:-1], 99) is None
    assert percentile([], 50) is None


def test_percentile_ignores_input_order():
    assert percentile(list(range(100, 0, -1)), 90) == 90


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0] * 50, 100)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_geomean():
    assert geomean([1, 4, 16]) == pytest.approx(4.0)
    assert geomean([2, 8]) == pytest.approx(4.0)
    assert geomean(iter([5.0])) == pytest.approx(5.0)
    for bad in ([], [1.0, 0.0], [2.0, -1.0]):
        with pytest.raises(ValueError):
            geomean(bad)


def test_best_baseline_ratio():
    rows = [{"hybrid": 10, "sabre": 20, "qaim": 5},
            {"hybrid": 9, "sabre": 3, "qaim": 30}]
    # Row ratios 10/5 = 2 and 9/3 = 3.
    assert best_baseline_ratio(rows, "hybrid", ("sabre", "qaim")) == \
        pytest.approx(math.sqrt(6.0))
    assert best_baseline_ratio(rows[:1], "hybrid", ("sabre",)) == \
        pytest.approx(0.5)

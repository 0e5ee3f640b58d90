import math

import pytest

from stats import percentile


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(list(range(999)), 0.99)
    with pytest.raises(ValueError):
        percentile(list(range(99)), 0.9)


def test_failures_count_as_infinitely_slow():
    values = [1.0] * 80 + [math.inf] * 20
    assert percentile(values, 0.5) == 1.0
    assert percentile(values, 0.9) == math.inf

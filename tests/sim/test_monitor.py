"""Statistics helpers: TimeWeightedStat, percentile."""

import pytest

from repro.sim import TimeWeightedStat
from repro.sim.monitor import percentile


class TestTimeWeightedStat:
    def test_constant_signal(self):
        s = TimeWeightedStat(initial=3)
        assert s.mean(10) == 3

    def test_step_signal(self):
        s = TimeWeightedStat()
        s.update(5, 2)  # 0 for [0,5), 2 afterwards
        assert s.mean(10) == 1

    def test_current_value(self):
        s = TimeWeightedStat()
        s.update(1, 7)
        assert s.current == 7

    def test_backwards_time_rejected(self):
        s = TimeWeightedStat()
        s.update(5, 1)
        with pytest.raises(ValueError):
            s.update(4, 1)
        with pytest.raises(ValueError):
            s.mean(3)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 25) == 2.5

    def test_bounds(self):
        data = [3, 1, 2]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_single_element(self):
        assert percentile([42], 77) == 42

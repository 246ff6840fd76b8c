"""Tests for the SampleSet container."""

import numpy as np
import pytest

from repro.annealer.sampleset import Sample, SampleSet
from repro.exceptions import DeviceError


def _make_sampleset():
    return SampleSet(
        states=np.array([[1], [0], [1], [0]]),
        variables=[0],
        read_energies=np.array([5.0, 3.0, 4.0, 3.0]),
        gauge_indices=np.array([0, 0, 1, 1]),
        per_read_time_ms=0.376,
        programming_time_ms=1.0,
    )


class TestSampleSet:
    def test_len_and_iteration(self):
        sampleset = _make_sampleset()
        assert len(sampleset) == 4
        assert sampleset.num_reads == 4
        assert [s.read_index for s in sampleset] == [0, 1, 2, 3]
        assert sampleset[2].energy == 4.0

    def test_samples_are_views_of_the_arrays(self):
        sampleset = _make_sampleset()
        assert sampleset[2] == Sample(assignment={0: 1}, energy=4.0, read_index=2, gauge_index=1)
        assert sampleset[-1].read_index == 3
        with pytest.raises(IndexError):
            sampleset[4]

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(DeviceError):
            SampleSet(states=np.zeros((2, 1)), variables=[0, 1], read_energies=np.zeros(2))
        with pytest.raises(DeviceError):
            SampleSet(states=np.zeros((2, 1)), variables=[0], read_energies=np.zeros(3))

    def test_best_breaks_ties_by_read_order(self):
        sampleset = _make_sampleset()
        best = sampleset.best()
        assert best.energy == 3.0
        assert best.read_index == 1

    def test_best_after_prefix(self):
        sampleset = _make_sampleset()
        assert sampleset.best_after(1).energy == 5.0
        assert sampleset.best_after(2).energy == 3.0
        assert sampleset.best_after(100).energy == 3.0

    def test_best_after_invalid(self):
        with pytest.raises(DeviceError):
            _make_sampleset().best_after(0)

    def test_best_of_empty_raises(self):
        with pytest.raises(DeviceError):
            SampleSet().best()

    def test_energies_in_read_order(self):
        assert _make_sampleset().energies() == [5.0, 3.0, 4.0, 3.0]

    def test_device_time_accounting(self):
        sampleset = _make_sampleset()
        assert sampleset.device_time_ms(1) == pytest.approx(1.0 + 0.376)
        assert sampleset.device_time_ms() == pytest.approx(1.0 + 4 * 0.376)
        assert sampleset.device_time_ms(100) == pytest.approx(1.0 + 4 * 0.376)

    def test_trajectory_is_monotone(self):
        trajectory = _make_sampleset().trajectory()
        assert len(trajectory) == 4
        costs = [cost for _, cost in trajectory]
        assert costs == [5.0, 3.0, 3.0, 3.0]
        times = [time for time, _ in trajectory]
        assert times == sorted(times)

    def test_negative_timing_rejected(self):
        with pytest.raises(DeviceError):
            SampleSet(per_read_time_ms=-1.0)

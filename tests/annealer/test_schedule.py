"""Tests for annealing schedules."""

import numpy as np
import pytest

from repro.annealer.schedule import (
    AnnealingSchedule,
    default_ladders,
    default_schedule_for,
    geometric_beta_schedule,
    linear_beta_schedule,
)
from repro.exceptions import DeviceError


class TestAnnealingSchedule:
    def test_num_sweeps(self):
        schedule = AnnealingSchedule(betas=(0.1, 0.5, 1.0))
        assert schedule.num_sweeps == 3

    def test_as_array(self):
        schedule = AnnealingSchedule(betas=(0.1, 0.2))
        assert np.allclose(schedule.as_array(), [0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(DeviceError):
            AnnealingSchedule(betas=())

    def test_nonpositive_rejected(self):
        with pytest.raises(DeviceError):
            AnnealingSchedule(betas=(0.1, 0.0))


class TestGeometricSchedule:
    def test_endpoints(self):
        schedule = geometric_beta_schedule(0.1, 10.0, 5)
        assert schedule.betas[0] == pytest.approx(0.1)
        assert schedule.betas[-1] == pytest.approx(10.0)
        assert schedule.num_sweeps == 5

    def test_monotone_increasing(self):
        schedule = geometric_beta_schedule(0.1, 10.0, 20)
        betas = schedule.as_array()
        assert np.all(np.diff(betas) > 0)

    def test_single_sweep(self):
        schedule = geometric_beta_schedule(0.1, 10.0, 1)
        assert schedule.betas == (10.0,)

    def test_invalid_arguments(self):
        with pytest.raises(DeviceError):
            geometric_beta_schedule(0.0, 1.0, 10)
        with pytest.raises(DeviceError):
            geometric_beta_schedule(0.1, 1.0, 0)


class TestLinearSchedule:
    def test_uniform_spacing(self):
        schedule = linear_beta_schedule(1.0, 5.0, 5)
        assert np.allclose(np.diff(schedule.as_array()), 1.0)

    def test_single_sweep(self):
        assert linear_beta_schedule(0.5, 2.0, 1).betas == (2.0,)

    def test_invalid(self):
        with pytest.raises(DeviceError):
            linear_beta_schedule(-1.0, 1.0, 5)


class TestDefaultSchedule:
    def test_hot_start_scales_with_weight(self):
        small = default_schedule_for(1.0, 10)
        large = default_schedule_for(100.0, 10)
        assert large.betas[0] < small.betas[0]

    def test_cold_end_freezes_unit_moves(self):
        schedule = default_schedule_for(10.0, 50)
        assert schedule.betas[-1] >= 10.0

    def test_zero_weight_handled(self):
        schedule = default_schedule_for(0.0, 5)
        assert schedule.num_sweeps == 5
        assert all(beta > 0 for beta in schedule.betas)


def _scalar_default_schedule(max_abs_weight, num_sweeps):
    """The default ladder of one problem, computed with Python floats."""
    max_abs_weight = max(max_abs_weight, 1e-9)
    beta_start = 0.7 / max_abs_weight
    beta_end = 20.0 / max(1e-9, min(1.0, max_abs_weight)) if max_abs_weight < 1.0 else 20.0
    return geometric_beta_schedule(beta_start, max(beta_end, beta_start * 10.0), num_sweeps)


class TestDefaultLadders:
    @pytest.mark.parametrize("num_sweeps", [1, 2, 7, 100, 200])
    def test_batched_columns_equal_per_problem_ladders(self, num_sweeps):
        rng = np.random.default_rng(5)
        weights = np.concatenate(
            [rng.uniform(1e-3, 60.0, 300), rng.exponential(1.0, 300), [0.0, 1e-12, 0.5, 1.0, 2.0]]
        )
        table = default_ladders(weights, num_sweeps)
        assert table.shape == (num_sweeps, weights.size)
        for column, weight in enumerate(weights.tolist()):
            expected = _scalar_default_schedule(weight, num_sweeps).as_array()
            assert table[:, column].tobytes() == expected.tobytes()
            assert default_schedule_for(weight, num_sweeps).as_array().tobytes() == expected.tobytes()

    def test_rejects_nonpositive_sweeps(self):
        with pytest.raises(DeviceError):
            default_ladders([1.0], 0)

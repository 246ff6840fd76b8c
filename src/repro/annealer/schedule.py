"""Annealing temperature schedules.

The classical simulated-annealing sampler sweeps the inverse temperature
``beta`` from a hot start to a cold end.  The default geometric schedule
mirrors common practice (and D-Wave's ``neal`` default); a linear
schedule is provided for the schedule-sensitivity ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import DeviceError

__all__ = [
    "AnnealingSchedule",
    "default_ladders",
    "default_schedule_for",
    "geometric_beta_schedule",
    "linear_beta_schedule",
]


@dataclass(frozen=True)
class AnnealingSchedule:
    """A fixed sequence of inverse temperatures, one per sweep."""

    betas: tuple

    def __post_init__(self) -> None:
        if not self.betas:
            raise DeviceError("an annealing schedule needs at least one sweep")
        if any(beta <= 0 for beta in self.betas):
            raise DeviceError("all inverse temperatures must be positive")

    @property
    def num_sweeps(self) -> int:
        """Number of sweeps in the schedule."""
        return len(self.betas)

    def as_array(self) -> np.ndarray:
        """The schedule as a numpy array."""
        return np.asarray(self.betas, dtype=float)


def geometric_beta_schedule(
    beta_start: float, beta_end: float, num_sweeps: int
) -> AnnealingSchedule:
    """Geometrically interpolated schedule from ``beta_start`` to ``beta_end``."""
    if beta_start <= 0 or beta_end <= 0:
        raise DeviceError("inverse temperatures must be positive")
    if num_sweeps <= 0:
        raise DeviceError("num_sweeps must be positive")
    if num_sweeps == 1:
        return AnnealingSchedule(betas=(beta_end,))
    betas = np.geomspace(beta_start, beta_end, num_sweeps)
    return AnnealingSchedule(betas=tuple(float(b) for b in betas))


def linear_beta_schedule(
    beta_start: float, beta_end: float, num_sweeps: int
) -> AnnealingSchedule:
    """Linearly interpolated schedule from ``beta_start`` to ``beta_end``."""
    if beta_start <= 0 or beta_end <= 0:
        raise DeviceError("inverse temperatures must be positive")
    if num_sweeps <= 0:
        raise DeviceError("num_sweeps must be positive")
    if num_sweeps == 1:
        return AnnealingSchedule(betas=(beta_end,))
    betas = np.linspace(beta_start, beta_end, num_sweeps)
    return AnnealingSchedule(betas=tuple(float(b) for b in betas))


def default_ladders(max_abs_weights: Sequence[float] | np.ndarray, num_sweeps: int) -> np.ndarray:
    """The default geometric ladders of many problems, shape ``(num_sweeps, k)``.

    Column ``i`` is the ladder for a problem whose largest absolute
    weight is ``max_abs_weights[i]``: the hot end accepts moves of the
    order of that weight with ~50 % probability; the cold end freezes
    single-unit moves.  ``np.geomspace`` works element by element, so
    one call over arrays of start and end betas gives every column the
    floats a call per problem gives.
    """
    if num_sweeps <= 0:
        raise DeviceError("num_sweeps must be positive")
    weights = np.maximum(np.asarray(max_abs_weights, dtype=float), 1e-9)
    beta_start = 0.7 / weights
    beta_end = np.maximum(np.where(weights < 1.0, 20.0 / weights, 20.0), beta_start * 10.0)
    if num_sweeps == 1:
        return beta_end[None, :]
    return np.geomspace(beta_start, beta_end, num_sweeps)


def default_schedule_for(max_abs_weight: float, num_sweeps: int = 100) -> AnnealingSchedule:
    """A geometric schedule scaled to the problem's weight magnitude (see :func:`default_ladders`)."""
    return AnnealingSchedule(betas=tuple(default_ladders([max_abs_weight], num_sweeps)[:, 0].tolist()))


def check_schedule_length(schedule: AnnealingSchedule | None, num_sweeps: int) -> None:
    """Reject an explicit schedule whose length contradicts ``num_sweeps``."""
    if schedule is not None and schedule.num_sweeps != num_sweeps:
        raise DeviceError(f"schedule has {schedule.num_sweeps} sweeps, but num_sweeps is {num_sweeps}")

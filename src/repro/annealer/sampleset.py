"""Containers for annealing results.

A :class:`SampleSet` holds the read-outs of one call to the device
simulator in read order (the order matters: the experiment harness
reconstructs "best solution after k reads" trajectories from it) together
with the device-time accounting.  The reads are stored as one state
matrix; :class:`Sample` objects, with their per-read assignment
dictionary, are only built when a caller iterates or indexes the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional

import numpy as np

from repro.exceptions import DeviceError

__all__ = ["Sample", "SampleSet"]

Variable = Hashable


@dataclass(frozen=True)
class Sample:
    """One annealing read-out.

    Attributes
    ----------
    assignment:
        The binary value of every problem variable.
    energy:
        Energy of the assignment under the submitted QUBO.
    read_index:
        Zero-based position of the read within the request.
    gauge_index:
        Index of the gauge transformation batch that produced the read.
    """

    assignment: Dict[Variable, int]
    energy: float
    read_index: int
    gauge_index: int = 0


@dataclass
class SampleSet:
    """All read-outs of one sampling request, in read order.

    Attributes
    ----------
    states:
        ``(num_reads, n)`` int8 matrix of 0/1 values, one row per read.
    variables:
        The variable of each column of :attr:`states`.
    read_energies:
        Energy of each read under the submitted QUBO.
    gauge_indices:
        Gauge batch of each read (all zeros when omitted).
    """

    states: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int8))
    variables: List[Variable] = field(default_factory=list)
    read_energies: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gauge_indices: Optional[np.ndarray] = None
    per_read_time_ms: float = 0.0
    programming_time_ms: float = 0.0
    info: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.per_read_time_ms < 0 or self.programming_time_ms < 0:
            raise DeviceError("timing values must be non-negative")
        self.states = np.asarray(self.states, dtype=np.int8)
        self.variables = list(self.variables)
        self.read_energies = np.asarray(self.read_energies, dtype=float)
        num_reads = len(self.states)
        if self.gauge_indices is None:
            self.gauge_indices = np.zeros(num_reads, dtype=np.int64)
        self.gauge_indices = np.asarray(self.gauge_indices, dtype=np.int64)
        if (
            self.states.ndim != 2
            or self.states.shape[1] != len(self.variables)
            or self.read_energies.shape != (num_reads,)
            or self.gauge_indices.shape != (num_reads,)
        ):
            raise DeviceError(
                f"inconsistent sample set: states {self.states.shape} over "
                f"{len(self.variables)} variables, {self.read_energies.shape} energies, "
                f"{self.gauge_indices.shape} gauge indices"
            )

    # ------------------------------------------------------------------ #
    # Collection interface
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[Sample]:
        return (self[index] for index in range(len(self)))

    def __getitem__(self, index: int) -> Sample:
        index = range(len(self))[index]
        return Sample(
            assignment=dict(zip(self.variables, self.states[index].tolist())),
            energy=float(self.read_energies[index]),
            read_index=index,
            gauge_index=int(self.gauge_indices[index]),
        )

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    @property
    def num_reads(self) -> int:
        """Number of read-outs contained."""
        return len(self)

    def best(self) -> Sample:
        """The lowest-energy sample (first one wins ties)."""
        if not len(self):
            raise DeviceError("the sample set is empty")
        return self.best_after(len(self))

    def best_after(self, num_reads: int) -> Sample:
        """The lowest-energy sample among the first ``num_reads`` read-outs."""
        if num_reads <= 0:
            raise DeviceError("num_reads must be positive")
        prefix = self.read_energies[:num_reads]
        if not prefix.size:
            raise DeviceError("the sample set is empty")
        return self[int(np.argmin(prefix))]

    def energies(self) -> List[float]:
        """Energies in read order."""
        return self.read_energies.tolist()

    def device_time_ms(self, num_reads: int | None = None) -> float:
        """Device time consumed by the first ``num_reads`` reads (all by default).

        Programming/initialisation time is included once.
        """
        count = self.num_reads if num_reads is None else min(num_reads, self.num_reads)
        return self.programming_time_ms + count * self.per_read_time_ms

    def trajectory(self) -> List[tuple]:
        """Best energy after each read as ``(device_time_ms, energy)`` pairs."""
        best = np.minimum.accumulate(self.read_energies).tolist()
        return [(self.device_time_ms(index + 1), energy) for index, energy in enumerate(best)]

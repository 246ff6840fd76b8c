"""Analog noise model of the simulated annealing device.

Real annealers implement weights as analog magnetic fields; programming
them is imprecise and small static biases remain even after calibration.
The device simulator models this as

* a *static* per-qubit bias field (drawn once per device instance) —
  the systematic bias that gauge transformations are meant to average out,
* *programming noise* on every field and coupling, redrawn for every
  gauge batch (independent control errors per programming cycle).

Both are expressed relative to the largest absolute weight of the
submitted problem so the noise level tracks the device's analog range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Sequence, Tuple

import numpy as np

from repro.exceptions import DeviceError
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["NoiseModel"]

Variable = Hashable


@dataclass(frozen=True)
class NoiseModel:
    """Relative noise magnitudes of the simulated device.

    Attributes
    ----------
    static_bias_fraction:
        Standard deviation of the static per-qubit bias, as a fraction of
        the problem's largest absolute weight.
    programming_noise_fraction:
        Standard deviation of the per-programming-cycle perturbation of
        every field and coupling, as a fraction of the largest weight.
    """

    static_bias_fraction: float = 0.005
    programming_noise_fraction: float = 0.0025

    def __post_init__(self) -> None:
        if self.static_bias_fraction < 0 or self.programming_noise_fraction < 0:
            raise DeviceError("noise fractions must be non-negative")

    @property
    def is_noiseless(self) -> bool:
        """Whether the model introduces no perturbation at all."""
        return self.static_bias_fraction == 0 and self.programming_noise_fraction == 0

    def static_bias(
        self, qubits: Sequence[int], seed: SeedLike = None
    ) -> Dict[int, float]:
        """Draw the static per-qubit bias field for a device instance."""
        rng = ensure_rng(seed)
        if self.static_bias_fraction == 0:
            return {q: 0.0 for q in qubits}
        values = rng.normal(0.0, self.static_bias_fraction, size=len(qubits))
        return {q: float(v) for q, v in zip(qubits, values)}

    def perturb(
        self,
        h: np.ndarray,
        j: np.ndarray,
        static_bias: np.ndarray,
        scale: float,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Static bias plus fresh programming noise on Ising arrays.

        ``h`` holds the fields, ``j`` the couplings and ``static_bias``
        the bias of each field's qubit; ``scale`` is the problem's
        largest absolute weight, and all noise magnitudes are relative
        to it.  Returns new ``(h, j)`` arrays.  Programming noise draws
        one normal per field, then one per coupling, so the stream
        matches a per-term loop over the fields and then the couplings.
        """
        if scale < 0:
            raise DeviceError("scale must be non-negative")
        h = h + scale * static_bias
        if self.programming_noise_fraction:
            h = h + scale * rng.normal(0.0, self.programming_noise_fraction, size=h.size)
            j = j + scale * rng.normal(0.0, self.programming_noise_fraction, size=j.size)
        return h, j

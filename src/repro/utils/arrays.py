"""Small NumPy helpers shared by the array hot paths."""

from __future__ import annotations

import numpy as np

__all__ = ["concat_ranges"]


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concat(arange(s, s + l) for s, l in zip(starts, lengths))``, vectorised."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(starts - offsets, lengths)

"""Annealing device simulation.

The paper runs its physical QUBOs on a D-Wave 2X quantum annealer.  This
package substitutes that hardware with a software device model:

* :class:`SimulatedAnnealingSampler` — a vectorised single-flip
  Metropolis annealer over QUBO models (the classical stand-in for the
  quantum annealing dynamics, in the spirit of D-Wave's ``neal``),
* :class:`FusionWindow` — the one annealing kernel every sample runs
  through: a fused colour-class sweep over one or many jobs, each a
  group of one or many QUBO blocks,
* :class:`DWaveSamplerSimulator` — the device facade: it only accepts
  problems that respect the Chimera topology, models per-qubit bias
  noise, applies gauge (spin-reversal) transforms per batch of reads and
  reports *device time* using the paper's timing constants
  (129 us anneal + 247 us read-out per sample).
"""

from repro.annealer.schedule import AnnealingSchedule, geometric_beta_schedule, linear_beta_schedule
from repro.annealer.sampleset import Sample, SampleSet
from repro.annealer.compile import (
    CompileCache,
    CompiledQUBO,
    compile_qubo,
    default_compile_cache,
)
from repro.annealer.simulated_annealing import SimulatedAnnealingSampler
from repro.annealer.fusion import FusionGroup, FusionWindow
from repro.annealer.noise import NoiseModel
from repro.annealer.device import DWaveSamplerSimulator, ProgrammedAnneal

__all__ = [
    "AnnealingSchedule",
    "geometric_beta_schedule",
    "linear_beta_schedule",
    "Sample",
    "SampleSet",
    "CompileCache",
    "CompiledQUBO",
    "compile_qubo",
    "default_compile_cache",
    "SimulatedAnnealingSampler",
    "FusionGroup",
    "FusionWindow",
    "NoiseModel",
    "DWaveSamplerSimulator",
    "ProgrammedAnneal",
]

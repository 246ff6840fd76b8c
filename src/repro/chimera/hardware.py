"""Device specifications for the D-Wave annealers referenced in the paper.

The :class:`DWaveSpec` bundles the topology dimensions with the timing
constants of the annealing cycle.  The paper's experiments use the
D-Wave 2X defaults: 129 microseconds of annealing plus 247 microseconds
of read-out per run (376 microseconds per sample), 1000 runs per test
case split into 10 gauge batches of 100 runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.chimera.topology import ChimeraGraph
from repro.exceptions import TopologyError
from repro.utils.rng import SeedLike

__all__ = ["DWaveSpec", "DWAVE_2X", "DWAVE_TWO"]


@dataclass(frozen=True)
class DWaveSpec:
    """Static description of a D-Wave annealer generation.

    Attributes
    ----------
    name:
        Marketing name of the machine generation.
    cell_rows / cell_cols / shore:
        Chimera dimensions.
    functional_qubits:
        Number of working qubits on the specific machine used in the
        paper (1097 of 1152 for the D-Wave 2X at NASA Ames).
    anneal_time_us / readout_time_us:
        Per-run annealing and read-out durations in microseconds.
    default_num_reads / default_num_gauges:
        Paper defaults: 1000 reads split into 10 gauge transformations.
    """

    name: str
    cell_rows: int
    cell_cols: int
    shore: int = 4
    functional_qubits: int | None = None
    anneal_time_us: float = 129.0
    readout_time_us: float = 247.0
    default_num_reads: int = 1000
    default_num_gauges: int = 10

    def __post_init__(self) -> None:
        if self.cell_rows <= 0 or self.cell_cols <= 0 or self.shore <= 0:
            raise TopologyError("device dimensions must be positive")
        if self.anneal_time_us <= 0 or self.readout_time_us < 0:
            raise TopologyError("device timing constants must be positive")
        total = self.total_qubits
        if self.functional_qubits is not None and not 0 < self.functional_qubits <= total:
            raise TopologyError(
                f"functional_qubits must be in (0, {total}], got {self.functional_qubits}"
            )

    @property
    def total_qubits(self) -> int:
        """Number of qubit sites of the full topology."""
        return self.cell_rows * self.cell_cols * 2 * self.shore

    @property
    def num_broken_qubits(self) -> int:
        """Number of broken qubit sites implied by ``functional_qubits``."""
        if self.functional_qubits is None:
            return 0
        return self.total_qubits - self.functional_qubits

    @property
    def time_per_read_us(self) -> float:
        """Anneal + read-out duration of one annealing run, in microseconds."""
        return self.anneal_time_us + self.readout_time_us

    @property
    def time_per_read_ms(self) -> float:
        """Anneal + read-out duration of one annealing run, in milliseconds."""
        return self.time_per_read_us / 1000.0

    def build_topology(self, seed: SeedLike = None, perfect: bool = False) -> ChimeraGraph:
        """Construct the Chimera topology for this device.

        Parameters
        ----------
        seed:
            Seed for sampling the broken-qubit sites (ignored when
            ``perfect`` is true or the spec has no broken qubits).
        perfect:
            Build the defect-free topology regardless of
            ``functional_qubits``.

        The defect-free graph is built once per device shape and shared
        by every caller: a :class:`ChimeraGraph` is never mutated after
        construction (:meth:`~ChimeraGraph.with_defects` returns a new
        graph), so sharing it is safe.
        """
        from repro.chimera.defects import sample_broken_qubits

        if perfect or self.num_broken_qubits == 0:
            return _defect_free_topology(self.cell_rows, self.cell_cols, self.shore)
        broken = sample_broken_qubits(self.total_qubits, self.num_broken_qubits, seed=seed)
        return ChimeraGraph(
            self.cell_rows, self.cell_cols, self.shore, broken_qubits=broken
        )


@lru_cache(maxsize=16)
def _defect_free_topology(rows: int, cols: int, shore: int) -> ChimeraGraph:
    """The shared defect-free Chimera graph of one device shape."""
    return ChimeraGraph(rows, cols, shore)


#: The machine evaluated in the paper: 1152 qubit sites, 1097 functional.
DWAVE_2X = DWaveSpec(
    name="D-Wave 2X",
    cell_rows=12,
    cell_cols=12,
    shore=4,
    functional_qubits=1097,
)

#: The 512-qubit predecessor referenced in related work (Section 8).
DWAVE_TWO = DWaveSpec(
    name="D-Wave Two",
    cell_rows=8,
    cell_cols=8,
    shore=4,
    functional_qubits=509,
)

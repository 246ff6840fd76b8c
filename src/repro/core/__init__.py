"""The paper's core contribution: solving MQO on a quantum annealer.

``repro.core`` wires the substrates together following Algorithm 1 of the
paper:

1. :mod:`repro.core.logical` — transform an MQO instance into a QUBO
   energy formula over one binary variable per plan (Section 4).
2. :mod:`repro.core.physical` — transform the logical QUBO into a
   physical QUBO over qubits of a Chimera topology, given a
   minor-embedding (Section 5).
3. :mod:`repro.core.pipeline` — run the annealing device (simulator) on
   the physical QUBO and map read-outs back to MQO solutions.
4. :mod:`repro.core.complexity` — the qubit-count analysis of Section 6
   and the capacity projections behind Figure 7.
"""

from repro.core.logical import LogicalMapping, LogicalMappingConfig, map_mqo_to_qubo
from repro.core.physical import PhysicalMapping, PhysicalMappingConfig, embed_logical_qubo
from repro.core.pipeline import QuantumMQO, QuantumMQOResult
from repro.core.decomposition import ParallelDecomposition
from repro.core.complexity import (
    CapacityPoint,
    capacity_frontier,
    clustered_pattern_qubits,
    logical_qubit_lower_bound,
    max_queries_for_qubits,
    native_pattern_qubits,
)

__all__ = [
    "LogicalMapping",
    "LogicalMappingConfig",
    "map_mqo_to_qubo",
    "PhysicalMapping",
    "PhysicalMappingConfig",
    "embed_logical_qubo",
    "QuantumMQO",
    "QuantumMQOResult",
    "ParallelDecomposition",
    "CapacityPoint",
    "capacity_frontier",
    "clustered_pattern_qubits",
    "native_pattern_qubits",
    "logical_qubit_lower_bound",
    "max_queries_for_qubits",
]

"""repro — Multiple Query Optimization on a (simulated) adiabatic quantum annealer.

A from-scratch reproduction of Trummer & Koch, "Multiple Query
Optimization on the D-Wave 2X Adiabatic Quantum Computer" (VLDB 2016).

The public API groups into five layers:

* :mod:`repro.mqo` — the MQO problem model and workload generators,
* :mod:`repro.qubo` — the QUBO/Ising substrate,
* :mod:`repro.chimera` / :mod:`repro.embedding` — the hardware topology
  and minor-embedding patterns (TRIAD, clustered, per-cell packing),
* :mod:`repro.core` — the paper's contribution: logical and physical
  mappings plus the end-to-end :class:`~repro.core.pipeline.QuantumMQO`
  pipeline and the qubit-complexity analysis,
* :mod:`repro.annealer` / :mod:`repro.baselines` /
  :mod:`repro.experiments` — the device simulator, the classical
  competitors and the evaluation harness for every table and figure.

Quick start::

    from repro import MQOProblem, QuantumMQO

    problem = MQOProblem(
        plans_per_query=[[2.0, 4.0], [3.0, 1.0]],
        savings={(1, 2): 5.0},
    )
    result = QuantumMQO(seed=0).solve(problem, num_reads=100)
    print(result.best_solution.cost, sorted(result.best_solution.selected_plans))
"""

from repro.exceptions import (
    AdmissionError,
    DeviceCapacityError,
    DeviceError,
    DuplicateSolverError,
    EmbeddingError,
    EmbeddingNotFoundError,
    InvalidProblemError,
    InvalidSolutionError,
    ProtocolError,
    QUBOError,
    ReproError,
    ServerError,
    ServiceError,
    SolverError,
    TopologyError,
    UnknownSolverError,
)
from repro.mqo import (
    MQOGeneratorConfig,
    MQOProblem,
    MQOSolution,
    Plan,
    Query,
    generate_chimera_native_problem,
    generate_clustered_problem,
    generate_paper_testcase,
    generate_random_problem,
)
from repro.qubo import IsingModel, QUBOModel, ising_to_qubo, qubo_to_ising, solve_bruteforce
from repro.chimera import DWAVE_2X, DWAVE_TWO, ChimeraGraph, DWaveSpec
from repro.embedding import (
    ClusteredEmbedder,
    Embedding,
    GreedyEmbedder,
    NativeClusteredEmbedder,
    TriadEmbedder,
)
from repro.core import (
    DecomposedQuantumMQO,
    DecompositionResult,
    LogicalMapping,
    LogicalMappingConfig,
    PhysicalMapping,
    PhysicalMappingConfig,
    QuantumMQO,
    QuantumMQOResult,
    capacity_frontier,
    embed_logical_qubo,
    map_mqo_to_qubo,
)
from repro.annealer import (
    CompileCache,
    CompiledQUBO,
    DWaveSamplerSimulator,
    NoiseModel,
    SimulatedAnnealingSampler,
    compile_qubo,
)
from repro.baselines import (
    AnytimeSolver,
    GeneticAlgorithmSolver,
    GreedyConstructiveSolver,
    IntegerProgrammingMQOSolver,
    IntegerProgrammingQUBOSolver,
    IteratedHillClimbing,
    SolverTrajectory,
)
from repro.service import (
    PortfolioResult,
    PortfolioScheduler,
    QuantumAnnealingSolver,
    ResultCache,
    ServiceFrontend,
    SolveRequest,
    SolveResult,
    SolverCapabilities,
    SolverRegistry,
    default_registry,
)

__version__ = "1.5.0"

from repro.server import (  # noqa: E402 — needs __version__ for the hello frame
    ServerConfig,
    ServerHandle,
    SolverClient,
    SolverServer,
    run_server_in_thread,
)
from repro.workloads import (  # noqa: E402
    ArrivalProcess,
    ScenarioSpec,
    WorkloadFamily,
    WorkloadSuite,
    get_family,
    get_suite,
    list_families,
    list_suites,
    workload_family,
)
from repro.bench import (  # noqa: E402
    BenchOrchestrator,
    BenchRunConfig,
    validate_bench_document,
)
from repro.obs import (  # noqa: E402
    MetricsRegistry,
    Tracer,
    configure_tracer,
    get_registry,
    get_tracer,
    render_prometheus,
    write_ndjson,
)

__all__ = [
    # workloads + bench
    "ArrivalProcess",
    "ScenarioSpec",
    "WorkloadFamily",
    "WorkloadSuite",
    "get_family",
    "get_suite",
    "list_families",
    "list_suites",
    "workload_family",
    "BenchOrchestrator",
    "BenchRunConfig",
    "validate_bench_document",
    # obs
    "Tracer",
    "get_tracer",
    "configure_tracer",
    "MetricsRegistry",
    "get_registry",
    "render_prometheus",
    "write_ndjson",
    # server
    "SolverServer",
    "ServerConfig",
    "ServerHandle",
    "SolverClient",
    "run_server_in_thread",
    # service
    "ServiceFrontend",
    "SolverRegistry",
    "SolverCapabilities",
    "default_registry",
    "PortfolioScheduler",
    "PortfolioResult",
    "ResultCache",
    "SolveRequest",
    "SolveResult",
    "QuantumAnnealingSolver",
    # exceptions
    "ReproError",
    "InvalidProblemError",
    "InvalidSolutionError",
    "QUBOError",
    "TopologyError",
    "EmbeddingError",
    "EmbeddingNotFoundError",
    "DeviceError",
    "DeviceCapacityError",
    "SolverError",
    "ServiceError",
    "UnknownSolverError",
    "DuplicateSolverError",
    "ServerError",
    "ProtocolError",
    "AdmissionError",
    # mqo
    "Plan",
    "Query",
    "MQOProblem",
    "MQOSolution",
    "MQOGeneratorConfig",
    "generate_random_problem",
    "generate_clustered_problem",
    "generate_chimera_native_problem",
    "generate_paper_testcase",
    # qubo
    "QUBOModel",
    "IsingModel",
    "qubo_to_ising",
    "ising_to_qubo",
    "solve_bruteforce",
    # hardware / embedding
    "ChimeraGraph",
    "DWaveSpec",
    "DWAVE_2X",
    "DWAVE_TWO",
    "Embedding",
    "TriadEmbedder",
    "ClusteredEmbedder",
    "NativeClusteredEmbedder",
    "GreedyEmbedder",
    # core
    "LogicalMapping",
    "LogicalMappingConfig",
    "map_mqo_to_qubo",
    "PhysicalMapping",
    "PhysicalMappingConfig",
    "embed_logical_qubo",
    "QuantumMQO",
    "QuantumMQOResult",
    "DecomposedQuantumMQO",
    "DecompositionResult",
    "capacity_frontier",
    # annealer
    "DWaveSamplerSimulator",
    "SimulatedAnnealingSampler",
    "CompileCache",
    "CompiledQUBO",
    "compile_qubo",
    "NoiseModel",
    # baselines
    "AnytimeSolver",
    "SolverTrajectory",
    "IteratedHillClimbing",
    "GeneticAlgorithmSolver",
    "GreedyConstructiveSolver",
    "IntegerProgrammingMQOSolver",
    "IntegerProgrammingQUBOSolver",
    "__version__",
]

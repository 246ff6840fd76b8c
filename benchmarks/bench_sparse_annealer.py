"""Sparse vs dense annealing hot path on a 512-variable Chimera QUBO.

The PR's claim: compiling QUBOs to CSR flat arrays and sweeping with
gather/CSR kernels makes the simulated annealer ≥5x faster and ≥10x
smaller in memory than the historical dense ``(n, n)`` implementation on
Chimera-shaped problems (degree ≤ 6), at equal seeds and sweeps.

Four exhibits, all through the one annealing kernel:

* wall clock of the sparse kernel vs a faithful reimplementation of
  the pre-PR dense sampler (dense matrix, ``np.where`` Metropolis),
* compiled-problem memory: sparse arrays vs the dense coupling matrix,
* gauge-batch amortisation: ten service-sized gauge batches annealed as
  one group of ten blocks vs ten solo calls,
* the same comparison at ``paper-classes`` size: ten blocks of 1152
  variables (the full D-Wave 2X), 11 reads, 100 sweeps.

Results are persisted as JSON (``benchmark_results/sparse_annealer.json``)
so regressions are machine-checkable; `docs/annealer.md` quotes these
numbers.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np

from repro.annealer.compile import CompileCache, compile_qubo, greedy_coloring
from repro.annealer.schedule import default_schedule_for
from repro.annealer.simulated_annealing import SimulatedAnnealingSampler
from repro.chimera.topology import ChimeraGraph
from repro.qubo.random_qubo import random_chimera_qubo

NUM_SWEEPS = 64
NUM_READS = 32
SEED = 20160909
REPEATS = 5


class OldDenseSampler:
    """Faithful reimplementation of the pre-PR dense annealing hot path.

    Dense ``(n, n)`` coupling matrix, ``(num_reads, n)`` state layout,
    and the historical ``np.where``-based Metropolis step (which
    evaluates ``exp`` on every lane).  Kept here, not in the library, so
    the benchmark always races the new code against the true baseline.
    """

    def __init__(self, num_sweeps: int) -> None:
        self.num_sweeps = num_sweeps

    def sample_states(self, qubo, num_reads: int, seed) -> np.ndarray:
        """Anneal ``num_reads`` reads and return the final state matrix."""
        variables = qubo.variables
        index = {var: i for i, var in enumerate(variables)}
        n = len(variables)
        linear = np.zeros(n)
        coupling = np.zeros((n, n))
        adjacency = [[] for _ in range(n)]
        for var, weight in qubo.linear.items():
            linear[index[var]] = weight
        for (u, v), weight in qubo.quadratic.items():
            i, j = index[u], index[v]
            coupling[i, j] += weight
            coupling[j, i] += weight
            adjacency[i].append(j)
            adjacency[j].append(i)
        classes = [np.asarray(cls, dtype=int) for cls in greedy_coloring(adjacency)]
        max_abs = max(float(np.max(np.abs(linear))), float(np.max(np.abs(coupling))))
        rng = np.random.default_rng(seed)
        states = rng.integers(0, 2, size=(num_reads, n)).astype(float)
        betas = default_schedule_for(max_abs, self.num_sweeps).as_array()
        for beta in betas:
            for color_class in classes:
                local_field = linear[color_class] + states @ coupling[:, color_class]
                current = states[:, color_class]
                delta = (1.0 - 2.0 * current) * local_field
                accept = np.where(
                    delta <= 0.0, 1.0, np.exp(-beta * np.clip(delta, 0.0, 700.0))
                )
                flips = rng.random(size=current.shape) < accept
                states[:, color_class] = np.where(flips, 1.0 - current, current)
        return states


def _best_of(callable_, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _fused_vs_looped(topology, num_reads, num_sweeps, num_blocks=10, repeats=3):
    """Best-of wall clock: ``num_blocks`` blocks as one group vs one call each."""
    blocks = [random_chimera_qubo(topology.edges(), topology.qubits, seed=s) for s in range(num_blocks)]
    sampler = SimulatedAnnealingSampler(num_sweeps=num_sweeps)
    sampler.sample_block_states(blocks, num_reads=2, seed=0)  # warm up the structure cache

    def run_fused():
        return sampler.sample_block_states(blocks, num_reads=num_reads, seed=SEED)

    def run_looped():
        return [sampler.sample_states(block, num_reads=num_reads, seed=SEED) for block in blocks]

    return _best_of(run_fused, repeats=repeats), _best_of(run_looped, repeats=repeats)


def bench_sparse_annealer(benchmark, save_exhibit):
    topology = ChimeraGraph(8, 8)  # 512 qubits, degree <= 6
    qubo = random_chimera_qubo(topology.edges(), topology.qubits, seed=7)
    assert qubo.num_variables == 512

    sparse = SimulatedAnnealingSampler(
        num_sweeps=NUM_SWEEPS, compile_cache=CompileCache(maxsize=0)
    )
    old_dense = OldDenseSampler(num_sweeps=NUM_SWEEPS)

    def run_sparse():
        return sparse.sample_states(qubo, num_reads=NUM_READS, seed=SEED)

    def run_old_dense():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the old path warns on exp overflow
            return old_dense.sample_states(qubo, NUM_READS, SEED)

    run_sparse(), run_old_dense()  # warm up numpy/scipy kernels
    sparse_s = _best_of(run_sparse)
    dense_s = _best_of(run_old_dense)
    benchmark.pedantic(run_sparse, rounds=1, iterations=1)
    speedup = dense_s / sparse_s

    compiled = compile_qubo(qubo)
    dense_bytes = compiled.num_variables**2 * 8
    sparse_bytes = compiled.nbytes_sparse()
    memory_ratio = dense_bytes / sparse_bytes

    # Gauge-batch amortisation: 10 same-structure blocks fused vs looped.
    small_topology = ChimeraGraph(3, 3)  # service-sized problems: dispatch-bound
    fused_s, looped_s = _fused_vs_looped(small_topology, NUM_READS, NUM_SWEEPS)
    paper_fused_s, paper_looped_s = _fused_vs_looped(ChimeraGraph(12, 12), 11, 100)

    record = {
        "variables": compiled.num_variables,
        "interactions": qubo.num_interactions,
        "num_sweeps": NUM_SWEEPS,
        "num_reads": NUM_READS,
        "sparse_ms": round(sparse_s * 1000, 2),
        "dense_ms": round(dense_s * 1000, 2),
        "speedup": round(speedup, 2),
        "sparse_bytes": sparse_bytes,
        "dense_bytes": dense_bytes,
        "memory_ratio": round(memory_ratio, 2),
        "gauge_batch_fused_ms": round(fused_s * 1000, 2),
        "gauge_batch_looped_ms": round(looped_s * 1000, 2),
        "gauge_batch_speedup": round(looped_s / fused_s, 2),
        "paper_batch_fused_ms": round(paper_fused_s * 1000, 2),
        "paper_batch_looped_ms": round(paper_looped_s * 1000, 2),
        "paper_batch_speedup": round(paper_looped_s / paper_fused_s, 2),
    }
    results_dir = Path(__file__).resolve().parent.parent / "benchmark_results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "sparse_annealer.json").write_text(json.dumps(record, indent=2))

    lines = ["Sparse vs dense annealing hot path (512-variable Chimera QUBO)", ""]
    lines += [f"  {key:>22}: {value}" for key, value in record.items()]
    save_exhibit("sparse_annealer", "\n".join(lines))

    assert speedup >= 5.0, f"sparse hot path too slow vs dense baseline: {record}"
    assert memory_ratio >= 10.0, f"sparse arrays too large vs dense matrix: {record}"

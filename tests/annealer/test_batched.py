"""Tests for block-diagonal batched annealing.

A batch of QUBOs anneals as one group with many blocks through
:meth:`SimulatedAnnealingSampler.sample_block_states`, the entry point
the device's gauge batching uses.
"""

import numpy as np
import pytest

from repro.annealer.compile import CompileCache
from repro.annealer.simulated_annealing import SimulatedAnnealingSampler
from repro.chimera.topology import ChimeraGraph
from repro.exceptions import DeviceError
from repro.qubo.bruteforce import solve_bruteforce
from repro.qubo.model import QUBOModel
from repro.qubo.random_qubo import random_chimera_qubo, random_qubo


def _sample_blocks(qubos, num_reads, seed, num_sweeps, compile_cache=None):
    """Per block: one assignment dict per read and the reads' energies."""
    sampler = SimulatedAnnealingSampler(num_sweeps=num_sweeps, compile_cache=compile_cache)
    block_states, compiled = sampler.sample_block_states(qubos, num_reads=num_reads, seed=seed)
    results = []
    for states, block in zip(block_states, compiled):
        assignments = [{var: int(value) for var, value in zip(block.variables, row)} for row in states]
        results.append((assignments, [float(e) for e in block.energies(states)]))
    return results


class TestBatchedAnnealer:
    def test_single_block_matches_plain_sampler(self):
        """With one block the batch is the plain solo sample."""
        qubo = random_qubo(9, density=0.5, seed=3)
        assignments, energies = SimulatedAnnealingSampler(num_sweeps=40).sample(qubo, num_reads=6, seed=42)
        ((block_assignments, block_energies),) = _sample_blocks([qubo], 6, 42, 40)
        assert block_assignments == assignments
        assert np.allclose(block_energies, energies)

    def test_energies_consistent_per_block(self):
        topology = ChimeraGraph(2, 2)
        qubos = [random_chimera_qubo(topology.edges(), topology.qubits, seed=s) for s in range(3)] + [
            random_qubo(5, density=0.7, seed=1)
        ]
        results = _sample_blocks(qubos, 4, 0, 30)
        assert len(results) == 4
        for qubo, (assignments, energies) in zip(qubos, results):
            assert len(assignments) == 4
            for assignment, energy in zip(assignments, energies):
                assert qubo.energy(assignment) == pytest.approx(energy, abs=1e-9)

    def test_finds_optima_of_small_blocks(self):
        qubos = [random_qubo(8, density=0.5, seed=s) for s in range(3)]
        results = _sample_blocks(qubos, 20, 7, 200)
        for qubo, (_assignments, energies) in zip(qubos, results):
            _opt, opt_energy = solve_bruteforce(qubo)
            assert min(energies) == pytest.approx(opt_energy, abs=1e-9)

    def test_deterministic_given_seed(self):
        qubos = [random_qubo(6, density=0.5, seed=s) for s in range(2)]
        assert _sample_blocks(qubos, 3, 5, 25) == _sample_blocks(qubos, 3, 5, 25)

    def test_blocks_with_different_weight_scales_keep_own_schedule(self):
        """A huge-weight block must not melt a small-weight block's anneal."""
        small = QUBOModel(linear={0: -1.0, 1: 1.0}, quadratic={(0, 1): -2.0})
        huge = QUBOModel(linear={0: 1e6, 1: 1e6}, quadratic={(0, 1): -3e6})
        results = _sample_blocks([small, huge], 10, 2, 150)
        _opt_small, e_small = solve_bruteforce(small)
        _opt_huge, e_huge = solve_bruteforce(huge)
        assert min(results[0][1]) == pytest.approx(e_small, abs=1e-9)
        assert min(results[1][1]) == pytest.approx(e_huge, abs=1e-6)

    def test_shared_structure_compiles_once(self):
        cache = CompileCache(maxsize=8)
        topology = ChimeraGraph(2, 2)
        qubos = [random_chimera_qubo(topology.edges(), topology.qubits, seed=s) for s in range(5)]
        _sample_blocks(qubos, 2, 0, 5, compile_cache=cache)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 4

    def test_empty_inputs_rejected(self):
        sampler = SimulatedAnnealingSampler(num_sweeps=5)
        with pytest.raises(DeviceError):
            sampler.sample_block_states([], num_reads=1)
        with pytest.raises(DeviceError):
            sampler.sample_block_states([random_qubo(3, seed=0)], num_reads=0)
        with pytest.raises(DeviceError):
            sampler.sample_block_states([QUBOModel()], num_reads=1)

    def test_invalid_sweeps_rejected(self):
        with pytest.raises(DeviceError):
            SimulatedAnnealingSampler(num_sweeps=0)


class TestDeviceGaugeBatching:
    def test_fused_and_sequential_sample_same_distribution(self):
        """Gauge batches annealed as one group find the optimum of a small native problem."""
        from repro.annealer.device import DWaveSamplerSimulator
        from repro.annealer.noise import NoiseModel
        from repro.chimera.hardware import DWAVE_2X

        topology = ChimeraGraph(1, 2)
        qubo = random_chimera_qubo(topology.edges(), topology.qubits, seed=5)
        _opt, opt_energy = solve_bruteforce(qubo)
        device = DWaveSamplerSimulator(
            spec=DWAVE_2X,
            topology=topology,
            noise=NoiseModel(0.0, 0.0),
            num_sweeps=150,
            seed=3,
        )
        sample_set = device.sample_qubo(qubo, num_reads=30, num_gauges=5)
        assert sample_set.num_reads == 30
        assert sample_set.best().energy == pytest.approx(opt_energy, abs=1e-9)

    def test_gauge_indices_preserved_in_fused_mode(self):
        from repro.annealer.device import DWaveSamplerSimulator
        from repro.annealer.noise import NoiseModel
        from repro.chimera.hardware import DWAVE_2X

        topology = ChimeraGraph(1, 2)
        qubo = random_chimera_qubo(topology.edges(), topology.qubits, seed=1)
        device = DWaveSamplerSimulator(
            spec=DWAVE_2X,
            topology=topology,
            noise=NoiseModel(0.0, 0.0),
            num_sweeps=10,
            seed=0,
        )
        sample_set = device.sample_qubo(qubo, num_reads=10, num_gauges=4)
        assert [s.read_index for s in sample_set] == list(range(10))
        assert {s.gauge_index for s in sample_set} == set(range(4))

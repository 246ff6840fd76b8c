"""Property tests: the annealing kernel must reproduce the dense oracle.

The kernel (:class:`~repro.annealer.fusion.FusionWindow`, reached here
through :class:`SimulatedAnnealingSampler`) sweeps class-contiguous
slices of a permuted state tensor with CSR fields; ``oracles.dense_anneal``
gathers each class out of a plain state matrix and takes its field from
the dense coupling matrix.  Both draw the same random numbers in the
same order, so for equal seeds they must produce identical states
(``np.array_equal``), up to floating-point ties of measure zero — on
random dense-ish QUBOs, on Chimera-structured ones and on groups of many
blocks cooling on their own ladders.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_anneal

import repro.annealer.fusion as fusion
from repro.annealer.compile import CompileCache
from repro.annealer.simulated_annealing import SimulatedAnnealingSampler
from repro.chimera.topology import ChimeraGraph
from repro.qubo.model import QUBOModel
from repro.qubo.random_qubo import random_chimera_qubo, random_qubo


def _kernel(num_sweeps):
    """A sampler with a cold compile cache."""
    return SimulatedAnnealingSampler(num_sweeps=num_sweeps, compile_cache=CompileCache(maxsize=0))


def _assert_equivalent(qubo, num_reads, seed, num_sweeps):
    states, compiled = _kernel(num_sweeps).sample_states(qubo, num_reads=num_reads, seed=seed)
    (expected,) = dense_anneal([qubo], num_reads, seed, num_sweeps)
    assert np.array_equal(states, expected)
    energies = compiled.energies(states)
    for row, energy in zip(states, energies):
        assignment = {var: int(value) for var, value in zip(compiled.variables, row)}
        assert qubo.energy(assignment) == pytest.approx(energy, abs=1e-9)


class TestSparseDenseEquivalence:
    @given(
        num_variables=st.integers(min_value=1, max_value=18),
        density=st.floats(min_value=0.0, max_value=1.0),
        qubo_seed=st.integers(min_value=0, max_value=2**31 - 1),
        sample_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_qubos(self, num_variables, density, qubo_seed, sample_seed):
        qubo = random_qubo(num_variables, density=density, seed=qubo_seed)
        _assert_equivalent(qubo, num_reads=4, seed=sample_seed, num_sweeps=25)

    @given(
        qubo_seed=st.integers(min_value=0, max_value=2**31 - 1),
        sample_seed=st.integers(min_value=0, max_value=2**31 - 1),
        edge_probability=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_chimera_structured_qubos(self, qubo_seed, sample_seed, edge_probability):
        topology = ChimeraGraph(2, 2)
        qubo = random_chimera_qubo(
            topology.edges(),
            topology.qubits,
            edge_probability=edge_probability,
            seed=qubo_seed,
        )
        _assert_equivalent(qubo, num_reads=5, seed=sample_seed, num_sweeps=30)

    @given(
        block_seeds=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=5),
        scales=st.lists(st.sampled_from([1e-2, 1.0, 1e3]), min_size=5, max_size=5),
        num_reads=st.integers(min_value=1, max_value=6),
        num_sweeps=st.integers(min_value=1, max_value=30),
        sample_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_group_of_blocks_with_own_ladders(self, block_seeds, scales, num_reads, num_sweeps, sample_seed):
        """One group of many blocks: each block cools on its own beta ladder."""
        topology = ChimeraGraph(1, 2)
        qubos = [
            random_qubo(1 + seed % 9, density=0.6, weight_range=(-scale, scale), seed=seed)
            if seed % 3
            else random_chimera_qubo(topology.edges(), topology.qubits, seed=seed)
            for seed, scale in zip(block_seeds, scales)
        ]
        block_states, _compiled = _kernel(num_sweeps).sample_block_states(
            qubos, num_reads=num_reads, seed=sample_seed
        )
        expected = dense_anneal(qubos, num_reads, sample_seed, num_sweeps)
        assert len(block_states) == len(expected) == len(qubos)
        for ours, theirs in zip(block_states, expected):
            assert np.array_equal(ours, theirs)

    def test_large_weights_no_overflow_warning(self):
        qubo = random_qubo(8, density=0.8, weight_range=(-1e6, 1e6), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_equivalent(qubo, num_reads=4, seed=1, num_sweeps=30)

    def test_identical_with_warm_structure_cache(self):
        """Cache hits must not change the sampled states."""
        topology = ChimeraGraph(2, 2)
        qubo = random_chimera_qubo(topology.edges(), topology.qubits, seed=3)
        cold = _kernel(30)
        warm = SimulatedAnnealingSampler(num_sweeps=30, compile_cache=CompileCache(maxsize=4))
        warm.sample(qubo, num_reads=2, seed=0)  # populate the structure cache
        a_cold = cold.sample(qubo, num_reads=5, seed=11)
        a_warm = warm.sample(qubo, num_reads=5, seed=11)
        assert a_cold[0] == a_warm[0]
        assert a_cold[1] == a_warm[1]

    def test_initial_states_respected_by_both_backends(self):
        """Given start states replace the initial draw in kernel and oracle alike."""
        qubo = random_qubo(6, density=0.5, seed=2)
        initial = np.zeros((3, 6))
        states, _ = _kernel(20).sample_states(qubo, num_reads=3, seed=7, initial_states=initial)
        (expected,) = dense_anneal([qubo], 3, 7, 20, initial_states=initial)
        assert np.array_equal(states, expected)

    def test_without_the_raw_csr_kernel(self, monkeypatch):
        """scipy's public CSR product stands in when its raw kernel is missing."""
        topology = ChimeraGraph(2, 2)
        qubos = [random_chimera_qubo(topology.edges(), topology.qubits, seed=s) for s in range(3)]
        qubos.append(QUBOModel(linear={0: -1.0, 1: 2.0}))  # a class without couplings

        def groups():
            return [
                fusion.FusionGroup(qubos=qubos, num_reads=5, rng=np.random.default_rng(4), num_sweeps=12),
                fusion.FusionGroup(qubos=qubos[:1], num_reads=2, rng=np.random.default_rng(5), num_sweeps=30),
            ]

        fast = fusion.FusionWindow().sample(groups())
        monkeypatch.setattr(fusion, "_csr_matvecs", None)
        fallback = fusion.FusionWindow().sample(groups())
        for (ours, _), (theirs, _) in zip(fallback, fast):
            for a, b in zip(ours, theirs):
                assert np.array_equal(a, b)

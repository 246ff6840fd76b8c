"""The array-native anneal path against the dictionary oracles.

The device programs gauge batches and reads out their reads, and the
pipeline decodes those reads, on whole arrays.  ``oracles.py`` states the same steps term
by term and read by read; these tests check the array path against it on
random Chimera-native QUBOs, with device noise on and off:

* programming gives the same weights (``==``, not approximately) and
  leaves the generator at the same position,
* read-out gives the same per-read assignments and gauge indices, with
  energies equal to 1e-9 relative,
* decoding gives the same broken-chain flags, raw and repaired solutions
  for every chain read-out strategy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import decode_reads, program_gauges, read_out

from repro.annealer.device import DWaveSamplerSimulator
from repro.annealer.noise import NoiseModel
from repro.annealer.sampleset import SampleSet
from repro.chimera.hardware import DWaveSpec
from repro.chimera.topology import ChimeraGraph
from repro.core.physical import PhysicalMappingConfig
from repro.core.pipeline import QuantumMQO
from repro.embedding.unembed import ChainReadout
from repro.mqo.generator import generate_paper_testcase
from repro.qubo.model import QUBOModel

SPEC = DWaveSpec(name="oracle-2x2", cell_rows=2, cell_cols=2)
TOPOLOGY = ChimeraGraph(2, 2, broken_qubits=[3, 17])
NOISE_MODELS = {
    "ideal": NoiseModel(0.0, 0.0),
    "default": NoiseModel(),
    "strong": NoiseModel(0.05, 0.02),
}


def _chimera_qubo(seed: int, as_arrays: bool) -> QUBOModel:
    """A random QUBO on a random subset of the topology's qubits and couplers.

    Qubits and couplers are inserted in random order and couplers in
    random orientation, so the array path must recover the dictionary
    path's accumulation order from the data rather than assume it.
    """
    rng = np.random.default_rng(seed)
    qubits = [q for q in TOPOLOGY.qubits if rng.random() < 0.7] or [TOPOLOGY.qubits[0]]
    rng.shuffle(qubits)
    chosen = set(qubits)
    edges = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u, v in TOPOLOGY.edges()
        if u in chosen and v in chosen and rng.random() < 0.6
    ]
    rng.shuffle(edges)
    linear = np.round(rng.normal(0.0, 2.0, size=len(qubits)), 3)
    weights = np.round(rng.normal(0.0, 2.0, size=len(edges)), 3)
    offset = float(rng.normal())
    if as_arrays:
        position = {q: i for i, q in enumerate(qubits)}
        pairs = np.array([(position[u], position[v]) for u, v in edges], dtype=np.int64)
        return QUBOModel.from_arrays(qubits, linear, pairs.reshape(-1, 2), weights, offset)
    qubo = QUBOModel(offset=offset)
    for qubit, weight in zip(qubits, linear.tolist()):
        qubo.add_linear(qubit, weight)
    for (u, v), weight in zip(edges, weights.tolist()):
        qubo.add_quadratic(u, v, weight)
    return qubo


def _device(noise: str, device_seed: int, **kwargs) -> DWaveSamplerSimulator:
    return DWaveSamplerSimulator(
        spec=SPEC, topology=TOPOLOGY, noise=NOISE_MODELS[noise], seed=device_seed, **kwargs
    )


def _oracle_bias(noise: str, device_seed: int):
    """The static bias the device drew (topology given: its first draw)."""
    return NOISE_MODELS[noise].static_bias(TOPOLOGY.qubits, seed=device_seed)


request_shapes = dict(
    qubo_seed=st.integers(min_value=0, max_value=10_000),
    as_arrays=st.booleans(),
    noise=st.sampled_from(sorted(NOISE_MODELS)),
    device_seed=st.integers(min_value=0, max_value=1_000),
    request_seed=st.integers(min_value=0, max_value=1_000),
    num_reads=st.integers(min_value=1, max_value=12),
    num_gauges=st.integers(min_value=1, max_value=5),
)


class TestProgramming:
    @settings(max_examples=60, deadline=None)
    @given(**request_shapes)
    def test_weights_and_stream_match_the_dict_conversions(
        self, qubo_seed, as_arrays, noise, device_seed, request_seed, num_reads, num_gauges
    ):
        qubo = _chimera_qubo(qubo_seed, as_arrays)
        programmed = _device(noise, device_seed).program_anneal(
            qubo, num_reads=num_reads, num_gauges=num_gauges, seed=request_seed
        )
        oracle_rng = np.random.default_rng(request_seed)
        expected = program_gauges(
            qubo,
            NOISE_MODELS[noise],
            _oracle_bias(noise, device_seed),
            min(num_reads, num_gauges),
            oracle_rng,
        )
        assert len(programmed.programmed_qubos) == len(expected)
        variables = qubo.variables
        for gauge_row, ours, (gauge, theirs) in zip(
            programmed.gauges, programmed.programmed_qubos, expected
        ):
            assert gauge_row.tolist() == [gauge.factor(var) for var in variables]
            assert ours.variables == theirs.variables
            assert ours.linear == theirs.linear
            assert ours.quadratic == theirs.quadratic
            assert list(ours.quadratic) == list(theirs.quadratic)
            assert ours.offset == theirs.offset
            # Same variable order and edge list: the annealer compiles both
            # onto one cached structure.
            for mine, reference in zip(ours.to_arrays()[1:], theirs.to_arrays()[1:]):
                assert np.array_equal(mine, reference)
        assert programmed.rng.bit_generator.state == oracle_rng.bit_generator.state


class TestReadOut:
    @settings(max_examples=40, deadline=None)
    @given(**request_shapes, states_seed=st.integers(min_value=0, max_value=1_000))
    def test_reads_match_per_read_dicts(
        self, qubo_seed, as_arrays, noise, device_seed, request_seed, num_reads, num_gauges,
        states_seed,
    ):
        qubo = _chimera_qubo(qubo_seed, as_arrays)
        device = _device(noise, device_seed)
        programmed = device.program_anneal(
            qubo, num_reads=num_reads, num_gauges=num_gauges, seed=request_seed
        )
        expected_gauges = [
            gauge
            for gauge, _ in program_gauges(
                qubo,
                NOISE_MODELS[noise],
                _oracle_bias(noise, device_seed),
                len(programmed.batch_sizes),
                np.random.default_rng(request_seed),
            )
        ]
        # Blocks carry spare rows, as fused blocks padded to the largest batch do.
        rng = np.random.default_rng(states_seed)
        block_states = [
            rng.integers(0, 2, size=(max(programmed.batch_sizes), len(qubo))).astype(float)
            for _ in programmed.batch_sizes
        ]
        sample_set = device.assemble_samples(
            programmed, device.batch_assignments(programmed, block_states)
        )
        expected = read_out(
            qubo, expected_gauges, block_states, qubo.variables, programmed.batch_sizes
        )
        assert len(sample_set) == len(expected) == num_reads
        for sample, (assignment, energy, gauge_index) in zip(sample_set, expected):
            assert sample.assignment == assignment
            assert sample.gauge_index == gauge_index
            assert sample.energy == pytest.approx(energy, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("noise", sorted(NOISE_MODELS))
    def test_annealed_reads_match_dict_programming(self, noise):
        """Same programmed weights, same stream: the annealed reads agree too."""
        qubo = _chimera_qubo(7, as_arrays=False)
        device = _device(noise, 5, num_sweeps=20)
        sample_set = device.sample_qubo(qubo, num_reads=9, num_gauges=3, seed=11)

        rng = np.random.default_rng(11)
        programmed = program_gauges(qubo, NOISE_MODELS[noise], _oracle_bias(noise, 5), 3, rng)
        gauges = [gauge for gauge, _ in programmed]
        block_states, _ = device.batched_sampler.sample_block_states(
            [programmed_qubo for _, programmed_qubo in programmed], num_reads=3, seed=rng
        )
        expected = read_out(qubo, gauges, block_states, qubo.variables, [3, 3, 3])
        assert [sample.assignment for sample in sample_set] == [read[0] for read in expected]


class TestDecode:
    @settings(max_examples=25, deadline=None)
    @given(
        readout=st.sampled_from(list(ChainReadout)),
        problem_seed=st.integers(min_value=0, max_value=500),
        states_seed=st.integers(min_value=0, max_value=500),
        flip_probability=st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_collect_result_matches_per_read_decode(
        self, readout, problem_seed, states_seed, flip_probability
    ):
        problem = generate_paper_testcase(4, 3, seed=problem_seed)
        pipeline = QuantumMQO(
            physical_config=PhysicalMappingConfig(readout=readout), seed=problem_seed
        )
        prepared = pipeline.prepare(problem)
        physical = prepared.physical
        qubits = physical.physical_qubo.variables
        column = {qubit: i for i, qubit in enumerate(qubits)}

        # Consistent chains from random logical reads, then random qubit flips.
        rng = np.random.default_rng(states_seed)
        logical = rng.integers(0, 2, size=(24, problem.num_plans))
        states = np.zeros((24, len(qubits)), dtype=np.int8)
        for plan in range(problem.num_plans):
            for qubit in physical.embedding.chain(plan):
                states[:, column[qubit]] = logical[:, plan]
        states ^= (rng.random(states.shape) < flip_probability).astype(np.int8)

        sample_set = SampleSet(states=states, variables=qubits, read_energies=np.zeros(24))
        result = pipeline._collect_result(problem, prepared.mapping, physical, sample_set, 0.0)
        expected = decode_reads(
            prepared.mapping, physical, [sample.assignment for sample in sample_set]
        )

        assert result.num_broken_chain_reads == sum(broken for broken, _, _ in expected)
        assert result.num_invalid_reads == sum(not raw.is_valid for _, raw, _ in expected)
        best = min(expected, key=lambda read: (not read[1].is_valid, read[1].cost))[1]
        assert result.best_raw_solution.selected_plans == best.selected_plans
        running = np.minimum.accumulate([repaired.cost for _, _, repaired in expected])
        assert [cost for _, cost in result.trajectory] == pytest.approx(running.tolist(), rel=1e-12)
        assert result.best_solution.cost == pytest.approx(running[-1], rel=1e-12)

"""Tests for the vectorised batch chain read-out."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import resolve_chains_batch

from repro.embedding.base import Embedding
from repro.embedding.unembed import ChainGather, ChainReadout, resolve_chains
from repro.exceptions import EmbeddingError


def _embedding():
    return Embedding({"a": (0, 4), "b": (1,), "c": (2, 5, 6)})


def _random_samples(qubit_order, num_reads, seed):
    rng = np.random.default_rng(seed)
    states = rng.integers(0, 2, size=(num_reads, len(qubit_order)))
    dicts = [
        {qubit: int(states[r, i]) for i, qubit in enumerate(qubit_order)}
        for r in range(num_reads)
    ]
    return states, dicts


class TestChainGather:
    def test_matches_scalar_resolution_all_readouts(self):
        embedding = _embedding()
        qubit_order = [0, 1, 2, 4, 5, 6]
        states, dicts = _random_samples(qubit_order, num_reads=32, seed=1)
        for readout in ChainReadout:
            batch_assignments, batch_broken = resolve_chains_batch(
                states, qubit_order, embedding, readout
            )
            for row, (assignment, broken) in enumerate(zip(batch_assignments, batch_broken)):
                expected_assignment, expected_broken = resolve_chains(
                    dicts[row], embedding, readout
                )
                assert assignment == expected_assignment, (readout, row)
                assert broken == expected_broken, (readout, row)

    def test_majority_tie_resolves_to_one(self):
        embedding = Embedding({"x": (0, 1)})
        states = np.array([[1, 0]])
        assignments, broken = resolve_chains_batch(states, [0, 1], embedding)
        assert assignments[0] == {"x": 1}
        assert broken == [True]

    def test_discard_blanks_broken_reads(self):
        embedding = Embedding({"x": (0, 1), "y": (2,)})
        states = np.array([[1, 0, 1], [1, 1, 0]])
        assignments, broken = resolve_chains_batch(
            states, [0, 1, 2], embedding, ChainReadout.DISCARD
        )
        assert assignments[0] == {}
        assert broken[0] is True
        assert assignments[1] == {"x": 1, "y": 0}
        assert broken[1] is False

    def test_missing_qubit_rejected(self):
        embedding = _embedding()
        with pytest.raises(EmbeddingError):
            ChainGather(embedding, [0, 1, 2])  # chains also use 4, 5, 6

    def test_non_binary_values_rejected(self):
        embedding = Embedding({"x": (0,)})
        with pytest.raises(EmbeddingError):
            resolve_chains_batch(np.array([[2]]), [0], embedding)

    def test_non_2d_states_rejected(self):
        embedding = Embedding({"x": (0,)})
        gather = ChainGather(embedding, [0])
        with pytest.raises(EmbeddingError):
            gather.resolve(np.array([1, 0]))


def _prepared_physical(num_queries=4, seed=1):
    from repro.core.pipeline import QuantumMQO
    from repro.mqo.generator import generate_paper_testcase

    problem = generate_paper_testcase(num_queries, 2, seed=seed)
    return QuantumMQO(seed=0).prepare(problem).physical


class TestPhysicalMappingBatchReadout:
    def test_unembed_samples_matches_scalar(self):
        physical = _prepared_physical()
        qubits = physical.physical_qubo.variables
        states, dicts = _random_samples(qubits, num_reads=16, seed=3)
        logical, broken = physical.unembed_samples(states, qubits)
        variables = physical.logical_qubo.variables
        for sample_dict, row, row_broken in zip(dicts, logical, broken):
            expected_assignment, expected_broken = physical.unembed_sample(sample_dict)
            assert dict(zip(variables, row.tolist())) == expected_assignment
            assert row_broken == expected_broken

    def test_empty_batch(self):
        physical = _prepared_physical(num_queries=2, seed=0)
        qubits = physical.physical_qubo.variables
        logical, broken = physical.unembed_samples(np.zeros((0, len(qubits))), qubits)
        assert logical.shape == (0, physical.logical_qubo.num_variables)
        assert broken.shape == (0,)


class TestPreparedMismatchGuard:
    def test_solve_rejects_foreign_preparation(self):
        from repro.core.pipeline import QuantumMQO
        from repro.exceptions import InvalidProblemError
        from repro.mqo.generator import generate_paper_testcase

        pipeline = QuantumMQO(seed=0)
        problem_a = generate_paper_testcase(3, 2, seed=1)
        problem_b = generate_paper_testcase(4, 2, seed=2)
        prepared_a = pipeline.prepare(problem_a)
        with pytest.raises(InvalidProblemError):
            pipeline.solve(problem_b, num_reads=5, prepared=prepared_a)


class TestChainGatherColumns:
    """The vectorised column lookup against a ``qubit -> column`` dict."""

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.lists(st.sampled_from([0, 1, 2, 4, 5, 6, 9]), min_size=6, max_size=12),
        variables=st.one_of(st.none(), st.permutations(["a", "b", "c"]).map(lambda v: v[:2])),
    )
    def test_columns_match_position_dict(self, order, variables):
        embedding = _embedding()
        position = {qubit: column for column, qubit in enumerate(order)}
        names = embedding.variables if variables is None else variables
        chains = [embedding.chain(var) for var in names]
        if any(q not in position for chain in chains for q in chain):
            with pytest.raises(EmbeddingError, match="qubit order is missing qubit"):
                ChainGather(embedding, order, variables)
            return
        gather = ChainGather(embedding, order, variables)
        assert gather.flat.tolist() == [position[q] for chain in chains for q in chain]
        assert gather.lengths.tolist() == [len(chain) for chain in chains]

    def test_missing_qubit_reported_before_unknown_variable(self):
        embedding = _embedding()
        with pytest.raises(EmbeddingError, match="missing qubit 0 of the chain for 'a'"):
            ChainGather(embedding, [4, 1], ["a", "zz"])
        with pytest.raises(EmbeddingError, match="variable 'zz' is not embedded"):
            ChainGather(embedding, [0, 4, 1], ["b", "zz", "a"])

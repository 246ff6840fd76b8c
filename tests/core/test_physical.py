"""Tests for the physical mapping (logical QUBO -> qubit weights, Section 5)."""

import itertools

import pytest

from repro.core.logical import LogicalMapping
from repro.core.physical import PhysicalMappingConfig, embed_logical_qubo
from repro.embedding.base import Embedding
from repro.embedding.triad import TriadEmbedder
from repro.embedding.unembed import ChainReadout
from repro.exceptions import EmbeddingError
from repro.qubo.bruteforce import solve_bruteforce
from repro.qubo.model import QUBOModel


def _embedded_mapping(topology, num_queries=8, plans_per_query=3, seed=7):
    """A co-generated (problem, embedding) pair plus its logical mapping."""
    from repro.workloads.embedded import generate_embedded_testcase

    testcase = generate_embedded_testcase(num_queries, plans_per_query, topology, seed=seed)
    return LogicalMapping(testcase.problem), testcase.embedding


class TestConfig:
    def test_invalid_epsilon(self):
        with pytest.raises(EmbeddingError):
            PhysicalMappingConfig(chain_strength_epsilon=0.0)

    def test_invalid_uniform_strength(self):
        with pytest.raises(EmbeddingError):
            PhysicalMappingConfig(uniform_chain_strength=-1.0)


class TestWeightPlacement:
    def test_linear_weights_distributed_over_chains(self, small_chimera):
        logical = QUBOModel(linear={"a": 6.0, "b": -4.0}, quadratic={("a", "b"): 1.0})
        chains = {"a": (0, 4), "b": (1,)}  # qubit 0/1 left column, 4 right column
        embedding = Embedding(chains)
        physical = embed_logical_qubo(logical, embedding, small_chimera)
        # Chain "a" has 2 qubits: each gets 3.0 plus possibly chain terms.
        strength_a = physical.chain_strengths["a"]
        assert physical.physical_qubo.get_linear(0) == pytest.approx(3.0 + strength_a)
        assert physical.physical_qubo.get_linear(4) == pytest.approx(3.0 + strength_a)
        assert physical.physical_qubo.get_linear(1) == pytest.approx(-4.0)

    def test_quadratic_weight_on_single_coupler(self, small_chimera):
        logical = QUBOModel(quadratic={("a", "b"): 2.5})
        embedding = Embedding({"a": (0,), "b": (4,)})
        physical = embed_logical_qubo(logical, embedding, small_chimera)
        assert physical.physical_qubo.get_quadratic(0, 4) == pytest.approx(2.5)
        assert physical.interaction_couplers[("a", "b")] in {(0, 4), (4, 0)}

    def test_chain_coupler_gets_minus_two_strength(self, small_chimera):
        logical = QUBOModel(linear={"a": 1.0})
        embedding = Embedding({"a": (0, 4)})
        physical = embed_logical_qubo(logical, embedding, small_chimera)
        strength = physical.chain_strengths["a"]
        assert physical.physical_qubo.get_quadratic(0, 4) == pytest.approx(-2.0 * strength)

    def test_missing_chain_rejected(self, small_chimera):
        logical = QUBOModel(linear={"a": 1.0, "b": 1.0})
        embedding = Embedding({"a": (0,)})
        with pytest.raises(EmbeddingError):
            embed_logical_qubo(logical, embedding, small_chimera)

    def test_missing_coupler_rejected(self, small_chimera):
        logical = QUBOModel(quadratic={("a", "b"): 1.0})
        embedding = Embedding({"a": (0,), "b": (1,)})  # same column: no coupler
        with pytest.raises(EmbeddingError):
            embed_logical_qubo(logical, embedding, small_chimera)

    def test_offset_preserved(self, small_chimera):
        logical = QUBOModel(linear={"a": 1.0}, offset=7.5)
        embedding = Embedding({"a": (0,)})
        physical = embed_logical_qubo(logical, embedding, small_chimera)
        assert physical.physical_qubo.offset == 7.5


class TestChainStrength:
    def test_uniform_chain_strength_override(self, small_chimera):
        logical = QUBOModel(linear={"a": 2.0})
        embedding = Embedding({"a": (0, 4)})
        config = PhysicalMappingConfig(uniform_chain_strength=9.0)
        physical = embed_logical_qubo(logical, embedding, small_chimera, config)
        assert physical.chain_strengths["a"] == 9.0

    def test_choi_strength_positive(self, small_chimera):
        mapping, embedding = _embedded_mapping(small_chimera)
        physical = embed_logical_qubo(mapping.qubo, embedding, small_chimera)
        assert all(strength > 0 for strength in physical.chain_strengths.values())

    def test_single_qubit_chains_have_no_chain_terms(self, small_chimera):
        logical = QUBOModel(linear={"a": -3.0})
        embedding = Embedding({"a": (0,)})
        physical = embed_logical_qubo(logical, embedding, small_chimera)
        assert physical.physical_qubo.get_linear(0) == pytest.approx(-3.0)
        assert physical.physical_qubo.num_interactions == 0

    def test_strong_enough_to_keep_chains_unbroken_at_optimum(self, small_chimera):
        """The Choi bound guarantees the physical ground state has consistent chains."""
        mapping, embedding = _embedded_mapping(small_chimera)
        problem = mapping.problem
        # Restrict to the first two queries to keep brute force feasible.
        sub_vars = [p for q in problem.queries[:2] for p in q.plan_indices]
        sub_logical = mapping.qubo.subinteractions(sub_vars)
        sub_embedding = embedding.subembedding(sub_vars)
        sub_physical = embed_logical_qubo(sub_logical, sub_embedding, small_chimera)
        assignment, _energy = solve_bruteforce(sub_physical.physical_qubo)
        _logical_assignment, broken = sub_physical.unembed_sample(assignment)
        assert not broken


class TestEnergyEquivalence:
    def test_physical_minimum_matches_logical_minimum(self, small_chimera):
        """Minimising the physical formula solves the logical problem (Section 5)."""
        logical = QUBOModel(
            linear={"a": 1.0, "b": -2.0, "c": 0.5},
            quadratic={("a", "b"): 2.0, ("b", "c"): -1.5, ("a", "c"): 0.75},
        )
        embedding = TriadEmbedder(small_chimera).embed_clique(["a", "b", "c"])
        physical = embed_logical_qubo(logical, embedding, small_chimera)

        logical_opt, logical_energy = solve_bruteforce(logical)
        phys_assignment, phys_energy = solve_bruteforce(physical.physical_qubo)
        unembedded, broken = physical.unembed_sample(phys_assignment)
        assert not broken
        assert unembedded == logical_opt
        assert phys_energy == pytest.approx(logical_energy)

    def test_consistent_chain_energy_equals_logical_energy(self, small_chimera):
        """For chain-consistent physical states the energies coincide."""
        logical = QUBOModel(linear={"a": 1.5, "b": -1.0}, quadratic={("a", "b"): -2.0})
        embedding = TriadEmbedder(small_chimera).embed_clique(["a", "b"])
        physical = embed_logical_qubo(logical, embedding, small_chimera)
        for values in itertools.product((0, 1), repeat=2):
            logical_assignment = {"a": values[0], "b": values[1]}
            physical_assignment = {
                qubit: logical_assignment[var]
                for var in ("a", "b")
                for qubit in embedding.chain(var)
            }
            assert physical.physical_qubo.energy(physical_assignment) == pytest.approx(
                logical.energy(logical_assignment)
            )

    def test_readout_strategy_respected(self, small_chimera):
        logical = QUBOModel(linear={"a": 1.0})
        embedding = Embedding({"a": (0, 4)})
        config = PhysicalMappingConfig(readout=ChainReadout.DISCARD)
        physical = embed_logical_qubo(logical, embedding, small_chimera, config)
        assignment, broken = physical.unembed_sample({0: 1, 4: 0})
        assert broken and assignment == {}

    def test_qubits_per_variable_statistic(self, small_chimera):
        mapping, embedding = _embedded_mapping(small_chimera)
        physical = embed_logical_qubo(mapping.qubo, embedding, small_chimera)
        assert physical.qubits_per_variable == pytest.approx(
            embedding.average_chain_length()
        )
        assert physical.num_qubits == embedding.num_qubits

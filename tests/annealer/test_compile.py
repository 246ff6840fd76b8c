"""Tests for the sparse QUBO compilation layer."""

import numpy as np
import pytest
from oracles import dense_coupling
from scipy.sparse import csr_matrix

from repro.annealer.compile import (
    CompileCache,
    compile_qubo,
    default_compile_cache,
    greedy_coloring,
    structure_key,
)
from repro.chimera.topology import ChimeraGraph
from repro.qubo.model import QUBOModel
from repro.qubo.random_qubo import random_chimera_qubo, random_qubo


def _random_states(n, reads, seed):
    return np.random.default_rng(seed).integers(0, 2, size=(reads, n)).astype(float)


def _class_field(compiled, states, class_index):
    """``(reads, |class|)`` local field from the class's compiled CSR rows."""
    plan = compiled.structure.classes[class_index]
    rows = csr_matrix(
        (compiled.class_neighbor_data[class_index], plan.neighbor_cols, plan.indptr),
        shape=(plan.members.size, compiled.num_variables),
    )
    return (rows @ states.T).T + compiled.linear[plan.members]


class TestCompiledQUBO:
    def test_energies_match_model(self):
        qubo = random_qubo(12, density=0.5, seed=3)
        compiled = compile_qubo(qubo)
        states = _random_states(12, 8, seed=0)
        energies = compiled.energies(states)
        expected = qubo.energies(states, compiled.variables)
        assert np.allclose(energies, expected)

    def test_local_field_matches_dense(self):
        qubo = random_qubo(10, density=0.6, seed=1)
        compiled = compile_qubo(qubo)
        coupling = dense_coupling(compiled)
        states = _random_states(10, 5, seed=2)
        for class_index, plan in enumerate(compiled.structure.classes):
            sparse_field = _class_field(compiled, states, class_index)
            dense_field = compiled.linear[plan.members] + states @ coupling[:, plan.members]
            assert np.allclose(sparse_field, dense_field)

    def test_local_field_with_isolated_variables(self):
        qubo = QUBOModel(linear={0: -1.0, 1: 2.0, 2: 0.5}, quadratic={(0, 1): 3.0})
        compiled = compile_qubo(qubo)
        states = np.ones((4, 3))
        coupling = dense_coupling(compiled)
        for class_index, plan in enumerate(compiled.structure.classes):
            sparse_field = _class_field(compiled, states, class_index)
            dense_field = compiled.linear[plan.members] + states @ coupling[:, plan.members]
            assert np.allclose(sparse_field, dense_field)

    def test_no_interactions_at_all(self):
        qubo = QUBOModel(linear={0: -1.0, 1: 1.0})
        compiled = compile_qubo(qubo)
        states = np.zeros((3, 2))
        assert np.allclose(compiled.energies(states), 0.0)
        total_members = sum(
            plan.members.size for plan in compiled.structure.classes
        )
        assert total_members == 2

    def test_color_classes_are_independent_sets(self):
        qubo = random_qubo(15, density=0.4, seed=7)
        compiled = compile_qubo(qubo)
        quadratic = qubo.quadratic
        index = {var: i for i, var in enumerate(compiled.variables)}
        edges = {
            tuple(sorted((index[u], index[v]))) for (u, v) in quadratic
        }
        for plan in compiled.structure.classes:
            members = plan.members.tolist()
            for a in members:
                for b in members:
                    if a < b:
                        assert (a, b) not in edges

    def test_sparse_memory_beats_dense_on_chimera(self):
        # 512 variables: the degree-6 Chimera structure keeps the sparse
        # arrays an order of magnitude below the dense coupling matrix.
        topology = ChimeraGraph(8, 8)
        qubo = random_chimera_qubo(topology.edges(), topology.qubits, seed=0)
        compiled = compile_qubo(qubo)
        dense_bytes = compiled.num_variables**2 * 8
        assert compiled.nbytes_sparse() * 10 < dense_bytes

    def test_max_abs_weight(self):
        qubo = QUBOModel(linear={0: -5.0, 1: 1.0}, quadratic={(0, 1): 3.0})
        compiled = compile_qubo(qubo)
        assert compiled.max_abs_weight == pytest.approx(5.0)


class TestGreedyColoringReexport:
    def test_coloring_covers_all_nodes(self):
        adjacency = [[1], [0, 2], [1], []]
        classes = greedy_coloring(adjacency)
        assert sorted(node for cls in classes for node in cls) == [0, 1, 2, 3]


class TestCompileCache:
    def test_structure_shared_between_same_pattern(self):
        cache = CompileCache(maxsize=4)
        topology = ChimeraGraph(2, 2)
        q1 = random_chimera_qubo(topology.edges(), topology.qubits, seed=1)
        q2 = random_chimera_qubo(topology.edges(), topology.qubits, seed=2)
        c1 = compile_qubo(q1, cache=cache)
        c2 = compile_qubo(q2, cache=cache)
        assert c1.structure is c2.structure
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1}
        # Values are never shared.
        assert not np.array_equal(c1.sym_data, c2.sym_data)

    def test_different_patterns_do_not_collide(self):
        cache = CompileCache(maxsize=4)
        q1 = random_qubo(6, density=0.9, seed=1)
        q2 = random_qubo(6, density=0.1, seed=1)
        c1 = compile_qubo(q1, cache=cache)
        c2 = compile_qubo(q2, cache=cache)
        assert c1.structure is not c2.structure
        assert cache.stats()["hits"] == 0

    def test_refilled_values_match_cold_compile(self):
        cache = CompileCache(maxsize=4)
        topology = ChimeraGraph(2, 2)
        q1 = random_chimera_qubo(topology.edges(), topology.qubits, seed=1)
        q2 = random_chimera_qubo(topology.edges(), topology.qubits, seed=9)
        compile_qubo(q1, cache=cache)  # warms the structure
        warm = compile_qubo(q2, cache=cache)
        cold = compile_qubo(q2, cache=None)
        states = _random_states(warm.num_variables, 6, seed=5)
        assert np.allclose(warm.energies(states), cold.energies(states))
        for k in range(warm.num_classes):
            assert np.allclose(_class_field(warm, states, k), _class_field(cold, states, k))

    def test_lru_eviction(self):
        cache = CompileCache(maxsize=2)
        qubos = [random_qubo(4, density=d, seed=1) for d in (0.2, 0.6, 1.0)]
        for qubo in qubos:
            compile_qubo(qubo, cache=cache)
        assert len(cache) <= 2

    def test_zero_maxsize_disables_caching(self):
        cache = CompileCache(maxsize=0)
        qubo = random_qubo(5, seed=0)
        compile_qubo(qubo, cache=cache)
        compile_qubo(qubo, cache=cache)
        assert len(cache) == 0

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            CompileCache(maxsize=-1)

    def test_default_cache_is_singleton(self):
        assert default_compile_cache() is default_compile_cache()

    def test_structure_key_sensitive_to_edge_order(self):
        a = QUBOModel(quadratic={(0, 1): 1.0, (1, 2): 2.0})
        b = QUBOModel(quadratic={(1, 2): 2.0, (0, 1): 1.0})
        va, la, ea, wa = a.to_arrays()
        vb, lb, eb, wb = b.to_arrays()
        assert structure_key(va, ea) != structure_key(vb, eb)


class TestToArrays:
    def test_roundtrip_counts(self):
        qubo = random_qubo(8, density=0.5, seed=0)
        variables, linear, edges, weights = qubo.to_arrays()
        assert len(variables) == 8
        assert linear.shape == (8,)
        assert edges.shape == (qubo.num_interactions, 2)
        assert weights.shape == (qubo.num_interactions,)

    def test_missing_variable_order_rejected(self):
        from repro.exceptions import QUBOError

        qubo = QUBOModel(linear={0: 1.0, 1: 2.0})
        with pytest.raises(QUBOError):
            qubo.to_arrays(variable_order=[0])

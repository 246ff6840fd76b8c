"""Tests for the embedded test-case generator (Section 7.1 workloads)."""

import pytest

from repro.chimera.topology import ChimeraGraph
from repro.exceptions import EmbeddingNotFoundError, InvalidProblemError
from repro.workloads.embedded import generate_embedded_testcase
from repro.mqo.generator import MQOGeneratorConfig


class TestGenerateEmbeddedTestcase:
    def test_dimensions(self, small_chimera):
        testcase = generate_embedded_testcase(10, 3, small_chimera, seed=0)
        assert testcase.num_queries == 10
        assert testcase.plans_per_query == 3
        assert testcase.problem.num_plans == 30
        assert testcase.embedding.num_variables == 30

    def test_embedding_validates_against_all_interactions(self, small_chimera):
        from repro.core.logical import LogicalMapping

        testcase = generate_embedded_testcase(12, 2, small_chimera, seed=1)
        mapping = LogicalMapping(testcase.problem)
        testcase.embedding.validate(small_chimera, mapping.qubo.quadratic.keys())

    def test_savings_only_between_different_queries(self, small_chimera):
        testcase = generate_embedded_testcase(8, 3, small_chimera, seed=2)
        for (p1, p2) in testcase.problem.savings:
            assert p1 // 3 != p2 // 3

    def test_savings_values_follow_paper_distribution(self, small_chimera):
        config = MQOGeneratorConfig(saving_choices=(1.0, 2.0), scale=3.0)
        testcase = generate_embedded_testcase(8, 2, small_chimera, seed=3, config=config)
        assert set(testcase.problem.savings.values()) <= {3.0, 6.0}

    def test_sharing_density_zero(self, small_chimera):
        testcase = generate_embedded_testcase(8, 2, small_chimera, sharing_density=0.0, seed=4)
        assert testcase.problem.num_savings == 0

    def test_some_savings_generated_by_default(self, small_chimera):
        testcase = generate_embedded_testcase(10, 2, small_chimera, seed=5)
        assert testcase.problem.num_savings > 0

    def test_qubits_per_variable_range(self, small_chimera):
        two_plan = generate_embedded_testcase(8, 2, small_chimera, seed=6)
        five_plan = generate_embedded_testcase(6, 5, small_chimera, seed=6)
        assert two_plan.qubits_per_variable == pytest.approx(1.0)
        assert five_plan.qubits_per_variable > two_plan.qubits_per_variable

    def test_capacity_exceeded_raises(self, tiny_chimera):
        with pytest.raises(EmbeddingNotFoundError):
            generate_embedded_testcase(100, 2, tiny_chimera, seed=0)

    def test_invalid_arguments(self, small_chimera):
        with pytest.raises(InvalidProblemError):
            generate_embedded_testcase(0, 2, small_chimera)
        with pytest.raises(InvalidProblemError):
            generate_embedded_testcase(4, 2, small_chimera, sharing_density=1.5)

    def test_deterministic_given_seed(self, small_chimera):
        a = generate_embedded_testcase(8, 2, small_chimera, seed=9)
        b = generate_embedded_testcase(8, 2, small_chimera, seed=9)
        assert a.problem.savings == b.problem.savings
        assert a.embedding.chains() == b.embedding.chains()

    def test_works_on_defective_topology(self):
        topology = ChimeraGraph(4, 4, broken_qubits=[0, 9, 17, 33])
        testcase = generate_embedded_testcase(10, 2, topology, seed=11)
        testcase.embedding.validate(topology)
        assert not (testcase.embedding.used_qubits() & set(topology.broken_qubits))


class TestDeterminismAndRoundTrip:
    """PR 4 hardening: byte-determinism and serialization round-trips."""

    def test_byte_deterministic_through_serialization(self, small_chimera):
        import json

        from repro.mqo.serialization import problem_to_dict

        a = generate_embedded_testcase(8, 2, small_chimera, seed=13)
        b = generate_embedded_testcase(8, 2, small_chimera, seed=13)
        assert json.dumps(problem_to_dict(a.problem), sort_keys=True) == json.dumps(
            problem_to_dict(b.problem), sort_keys=True
        )

    def test_schema_round_trip(self, small_chimera):
        from repro.mqo.serialization import problem_from_dict, problem_to_dict

        testcase = generate_embedded_testcase(9, 3, small_chimera, seed=14)
        data = problem_to_dict(testcase.problem)
        rebuilt = problem_from_dict(data)
        assert problem_to_dict(rebuilt) == data
        assert rebuilt.num_queries == testcase.num_queries


class TestEmbeddedTestcaseProperties:
    """Hypothesis: every generated problem has >= 1 plan per query."""

    def test_at_least_one_plan_per_query(self, small_chimera):
        import hypothesis.strategies as st
        from hypothesis import given, settings

        @settings(max_examples=20, deadline=None)
        @given(
            num_queries=st.integers(min_value=1, max_value=12),
            plans=st.integers(min_value=2, max_value=4),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
        )
        def check(num_queries, plans, seed):
            testcase = generate_embedded_testcase(num_queries, plans, small_chimera, seed=seed)
            assert testcase.problem.num_queries == num_queries
            assert all(q.num_plans >= 1 for q in testcase.problem.queries)

        check()

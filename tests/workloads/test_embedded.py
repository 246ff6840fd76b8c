"""Tests for the ``embedded`` workload family and its direct generator."""

from repro.chimera.topology import ChimeraGraph
from repro.mqo.serialization import problem_to_dict
from repro.workloads import get_family
from repro.workloads.embedded import EmbeddedTestCase, generate_embedded_testcase


class TestEmbeddedFamily:
    def test_registered(self):
        family = get_family("embedded")
        assert "paper" in family.tags

    def test_builds_same_problem_as_generator(self):
        """The registered family and the direct generator must agree."""
        family = get_family("embedded")
        built = family.build(7, num_queries=6, plans_per_query=2, cell_rows=4, cell_cols=4)
        case = generate_embedded_testcase(6, 2, ChimeraGraph(4, 4), seed=7)
        assert isinstance(case, EmbeddedTestCase)
        lhs, rhs = problem_to_dict(built), problem_to_dict(case.problem)
        lhs["name"] = rhs["name"] = ""
        assert lhs == rhs

    def test_deterministic(self):
        family = get_family("embedded")
        a = family.build(11, num_queries=4, plans_per_query=3)
        b = family.build(11, num_queries=4, plans_per_query=3)
        assert problem_to_dict(a) == problem_to_dict(b)

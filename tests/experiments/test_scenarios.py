"""Tests for the test-case classes (paper Section 7.2)."""

import pytest

from repro.chimera.defects import DefectModel
from repro.chimera.topology import ChimeraGraph
from repro.exceptions import ReproError
from repro.experiments.profiles import PROFILES
from repro.workloads.embedded import PAPER_CLASS_SIZES, TestCaseClass, paper_test_classes


class TestTestCaseClass:
    def test_label(self):
        assert TestCaseClass(2, 537).label == "537 Queries, 2 Plans"

    def test_invalid_dimensions(self):
        with pytest.raises(ReproError):
            TestCaseClass(0, 10)
        with pytest.raises(ReproError):
            TestCaseClass(2, 0)

    def test_paper_class_sizes_recorded(self):
        assert PAPER_CLASS_SIZES == {2: 537, 3: 253, 4: 140, 5: 108}


class TestPaperTestClasses:
    def test_four_classes_with_expected_plan_counts(self):
        topology = ChimeraGraph(6, 6)
        classes = paper_test_classes(topology, PROFILES["smoke"])
        assert [c.plans_per_query for c in classes] == [2, 3, 4, 5]
        assert all(c.num_queries >= 2 for c in classes)

    def test_query_counts_scale_with_profile(self):
        topology = ChimeraGraph(12, 12)
        smoke = paper_test_classes(topology, PROFILES["smoke"])
        paper = paper_test_classes(topology, PROFILES["paper"])
        for small, large in zip(smoke, paper):
            assert large.num_queries > small.num_queries

    def test_paper_profile_on_paper_machine_approximates_paper_sizes(self):
        """With the paper's yield, the class sizes land near the published ones."""
        topology = DefectModel().apply(ChimeraGraph(12, 12), seed=1)
        classes = paper_test_classes(topology, PROFILES["paper"])
        sizes = {c.plans_per_query: c.num_queries for c in classes}
        # Two-plan class: paper had 537 of a 576-site maximum.
        assert 480 <= sizes[2] <= 576
        # Five-plan class: same order of magnitude as the paper's 108.
        assert 90 <= sizes[5] <= 144

    def test_query_count_decreases_with_plans_per_query(self):
        topology = ChimeraGraph(12, 12)
        classes = paper_test_classes(topology, PROFILES["default"])
        counts = [c.num_queries for c in classes]
        assert counts == sorted(counts, reverse=True)


class TestScenarioDeterminism:
    """PR 4 hardening: class derivation is a pure function of its inputs."""

    def test_same_topology_and_profile_give_identical_classes(self):
        topology = ChimeraGraph(6, 6)
        first = paper_test_classes(topology, PROFILES["smoke"])
        second = paper_test_classes(topology, PROFILES["smoke"])
        assert first == second

    def test_classes_feed_the_workload_registry_shapes(self):
        """The paper family accepts every derived class size unchanged."""
        from repro.workloads import get_family

        topology = ChimeraGraph(4, 4)
        for case in paper_test_classes(topology, PROFILES["smoke"], plans_range=(2, 3)):
            problem = get_family("paper").build(
                0,
                num_queries=case.num_queries,
                plans_per_query=case.plans_per_query,
            )
            assert problem.num_queries == case.num_queries
            assert all(
                query.num_plans == case.plans_per_query for query in problem.queries
            )

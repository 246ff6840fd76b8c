"""Tests for the sparse QUBO container."""

import numpy as np
import pytest

from repro.exceptions import QUBOError
from repro.qubo.model import QUBOModel


class TestConstruction:
    def test_empty_model(self):
        qubo = QUBOModel()
        assert qubo.num_variables == 0
        assert qubo.num_interactions == 0
        assert qubo.energy({}) == 0.0

    def test_from_mappings(self):
        qubo = QUBOModel(linear={"a": 1.0, "b": -2.0}, quadratic={("a", "b"): 3.0}, offset=0.5)
        assert qubo.num_variables == 2
        assert qubo.get_linear("a") == 1.0
        assert qubo.get_quadratic("a", "b") == 3.0
        assert qubo.offset == 0.5

    def test_add_linear_accumulates(self):
        qubo = QUBOModel()
        qubo.add_linear("x", 1.0)
        qubo.add_linear("x", 2.5)
        assert qubo.get_linear("x") == 3.5

    def test_add_quadratic_accumulates_and_normalises_order(self):
        qubo = QUBOModel()
        qubo.add_quadratic(1, 2, 1.0)
        qubo.add_quadratic(2, 1, 0.5)
        assert qubo.get_quadratic(1, 2) == 1.5
        assert qubo.num_interactions == 1

    def test_self_quadratic_folds_into_linear(self):
        qubo = QUBOModel()
        qubo.add_quadratic("x", "x", 2.0)
        assert qubo.get_linear("x") == 2.0
        assert qubo.num_interactions == 0

    def test_non_finite_weight_rejected(self):
        qubo = QUBOModel()
        with pytest.raises(QUBOError):
            qubo.add_linear("x", float("inf"))
        with pytest.raises(QUBOError):
            qubo.add_quadratic("x", "y", float("nan"))

    def test_add_variable_idempotent(self):
        qubo = QUBOModel()
        qubo.add_variable("x")
        qubo.add_variable("x")
        assert qubo.num_variables == 1
        assert "x" in qubo

    def test_degree_and_neighbors(self):
        qubo = QUBOModel(quadratic={(0, 1): 1.0, (0, 2): -1.0})
        assert qubo.degree(0) == 2
        assert qubo.degree(1) == 1
        assert qubo.neighbors(0) == {1: 1.0, 2: -1.0}
        assert qubo.max_degree() == 2


class TestEnergy:
    def test_linear_energy(self):
        qubo = QUBOModel(linear={"a": 2.0, "b": -1.0})
        assert qubo.energy({"a": 1, "b": 0}) == 2.0
        assert qubo.energy({"a": 1, "b": 1}) == 1.0

    def test_quadratic_energy(self):
        qubo = QUBOModel(quadratic={("a", "b"): 4.0})
        assert qubo.energy({"a": 1, "b": 1}) == 4.0
        assert qubo.energy({"a": 1, "b": 0}) == 0.0

    def test_missing_variables_default_to_zero(self):
        qubo = QUBOModel(linear={"a": 5.0})
        assert qubo.energy({}) == 0.0

    def test_offset_included(self):
        qubo = QUBOModel(linear={"a": 1.0}, offset=10.0)
        assert qubo.energy({"a": 0}) == 10.0

    def test_vectorised_energies_match_scalar(self, rng):
        qubo = QUBOModel(
            linear={0: 1.0, 1: -2.0, 2: 0.5},
            quadratic={(0, 1): 1.5, (1, 2): -3.0},
            offset=0.25,
        )
        order = qubo.variables
        samples = rng.integers(0, 2, size=(16, 3))
        energies = qubo.energies(samples, order)
        for row, energy in zip(samples, energies):
            assignment = {var: int(v) for var, v in zip(order, row)}
            assert energy == pytest.approx(qubo.energy(assignment))

    def test_energies_shape_validation(self):
        qubo = QUBOModel(linear={0: 1.0, 1: 1.0})
        with pytest.raises(QUBOError):
            qubo.energies(np.zeros((3, 5)), qubo.variables)

    def test_energies_missing_variable_in_order(self):
        qubo = QUBOModel(linear={0: 1.0, 1: 1.0})
        with pytest.raises(QUBOError):
            qubo.energies(np.zeros((2, 1)), [0])


class TestTransformations:
    def test_relabeled(self):
        qubo = QUBOModel(linear={"a": 1.0}, quadratic={("a", "b"): 2.0})
        renamed = qubo.relabeled({"a": 0, "b": 1})
        assert renamed.get_linear(0) == 1.0
        assert renamed.get_quadratic(0, 1) == 2.0

    def test_relabeled_collision_rejected(self):
        qubo = QUBOModel(linear={"a": 1.0, "b": 2.0})
        with pytest.raises(QUBOError):
            qubo.relabeled({"a": "z", "b": "z"})

    def test_copy_is_independent(self):
        qubo = QUBOModel(linear={"a": 1.0})
        clone = qubo.copy()
        clone.add_linear("a", 5.0)
        assert qubo.get_linear("a") == 1.0

    def test_scaled(self):
        qubo = QUBOModel(linear={"a": 1.0}, quadratic={("a", "b"): -2.0}, offset=3.0)
        scaled = qubo.scaled(2.0)
        assert scaled.get_linear("a") == 2.0
        assert scaled.get_quadratic("a", "b") == -4.0
        assert scaled.offset == 6.0

    def test_to_dense_energy_agreement(self):
        qubo = QUBOModel(linear={0: 1.0, 1: -1.0}, quadratic={(0, 1): 2.0})
        matrix = qubo.to_dense([0, 1])
        x = np.array([1.0, 1.0])
        assert float(x @ matrix @ x) == pytest.approx(qubo.energy({0: 1, 1: 1}))

    def test_energy_range_bounds_contain_all_energies(self):
        qubo = QUBOModel(linear={0: 1.0, 1: -2.0}, quadratic={(0, 1): 3.0})
        low, high = qubo.energy_range_bounds()
        for a in (0, 1):
            for b in (0, 1):
                energy = qubo.energy({0: a, 1: b})
                assert low - 1e-9 <= energy <= high + 1e-9

    def test_subinteractions(self):
        qubo = QUBOModel(
            linear={0: 1.0, 1: 2.0, 2: 3.0}, quadratic={(0, 1): 1.0, (1, 2): 1.0}
        )
        sub = qubo.subinteractions([0, 1])
        assert set(sub.variables) == {0, 1}
        assert sub.get_quadratic(0, 1) == 1.0
        assert sub.get_quadratic(1, 2) == 0.0


class TestReweighted:
    def test_shares_structure_and_takes_new_weights(self):
        base = QUBOModel.from_arrays(["a", "b", "c"], [1.0, 2.0, 3.0], [[0, 1], [1, 2]], [4.0, 5.0])
        other = base.reweighted(np.array([0.5, -1.0, 0.0]), np.array([-2.0, 7.0]), offset=1.5)
        variables, linear, edges, weights = other.to_arrays()
        assert variables == ["a", "b", "c"]
        assert linear.tolist() == [0.5, -1.0, 0.0]
        assert edges.tolist() == [[0, 1], [1, 2]]
        assert weights.tolist() == [-2.0, 7.0]
        assert other.offset == 1.5
        assert other.quadratic == {("a", "b"): -2.0, ("b", "c"): 7.0}
        assert base.to_arrays()[1].tolist() == [1.0, 2.0, 3.0]

    def test_checks_only_the_new_weights(self):
        base = QUBOModel.from_arrays([0, 1], [1.0, 2.0], [[0, 1]], [4.0])
        with pytest.raises(QUBOError, match="finite"):
            base.reweighted(np.array([np.nan, 0.0]), np.array([1.0]), offset=0.0)
        with pytest.raises(QUBOError, match="reweighted needs 2 linear and 1 quadratic"):
            base.reweighted(np.array([1.0]), np.array([1.0]), offset=0.0)
        with pytest.raises(QUBOError):
            base.reweighted(np.array([1.0, 1.0]), np.array([1.0]), offset=float("inf"))


class TestInteractions:
    def test_array_built_keys_match_materialised_quadratic(self):
        qubo = QUBOModel.from_arrays(
            ["b", "a", "c", 3], np.zeros(4), [[0, 1], [2, 0], [1, 2], [3, 0]], [1.0, 2.0, 3.0, 4.0]
        )
        keys = qubo.interactions()
        assert keys == list(QUBOModel.from_arrays(*qubo.to_arrays()).quadratic)
        assert keys == [("a", "b"), ("b", "c"), ("a", "c"), ("b", 3)]  # mixed labels order by repr

    def test_dict_built_keys_in_insertion_order(self):
        qubo = QUBOModel()
        qubo.add_quadratic(5, 2, 1.0)
        qubo.add_quadratic(1, 9, 1.0)
        assert qubo.interactions() == [(2, 5), (1, 9)]

"""Tests for the vectorised simulated-annealing sampler."""

import numpy as np
import pytest

from repro.annealer.compile import greedy_coloring
from repro.annealer.schedule import geometric_beta_schedule
from repro.annealer.simulated_annealing import SimulatedAnnealingSampler
from repro.exceptions import DeviceError
from repro.qubo.bruteforce import solve_bruteforce
from repro.qubo.model import QUBOModel
from repro.qubo.random_qubo import random_qubo


class TestGreedyColoring:
    def test_path_graph_uses_two_colors(self):
        adjacency = [[1], [0, 2], [1, 3], [2]]
        classes = greedy_coloring(adjacency)
        assert len(classes) == 2
        assert sorted(q for cls in classes for q in cls) == [0, 1, 2, 3]

    def test_classes_are_independent_sets(self):
        adjacency = [[1, 2], [0, 2], [0, 1], []]
        classes = greedy_coloring(adjacency)
        for cls in classes:
            for i in cls:
                for j in cls:
                    if i != j:
                        assert j not in adjacency[i]

    def test_empty_graph(self):
        assert greedy_coloring([]) == []


class TestSampler:
    def test_finds_optimum_of_small_problems(self):
        sampler = SimulatedAnnealingSampler(num_sweeps=200)
        for seed in range(3):
            qubo = random_qubo(10, density=0.5, seed=seed)
            _opt, opt_energy = solve_bruteforce(qubo)
            _assignments, energies = sampler.sample(qubo, num_reads=20, seed=seed)
            assert min(energies) == pytest.approx(opt_energy, abs=1e-9)

    def test_energies_match_assignments(self):
        sampler = SimulatedAnnealingSampler(num_sweeps=20)
        qubo = random_qubo(8, density=0.4, seed=1)
        assignments, energies = sampler.sample(qubo, num_reads=5, seed=2)
        for assignment, energy in zip(assignments, energies):
            assert energy == pytest.approx(qubo.energy(assignment))

    def test_number_of_reads(self):
        sampler = SimulatedAnnealingSampler(num_sweeps=10)
        qubo = random_qubo(5, seed=0)
        assignments, energies = sampler.sample(qubo, num_reads=7, seed=1)
        assert len(assignments) == 7
        assert len(energies) == 7

    def test_deterministic_given_seed(self):
        sampler = SimulatedAnnealingSampler(num_sweeps=30)
        qubo = random_qubo(6, seed=0)
        a = sampler.sample(qubo, num_reads=4, seed=9)
        b = sampler.sample(qubo, num_reads=4, seed=9)
        assert a[1] == b[1]
        assert a[0] == b[0]

    def test_initial_states_respected_shape(self):
        sampler = SimulatedAnnealingSampler(num_sweeps=5)
        qubo = random_qubo(4, seed=0)
        with pytest.raises(DeviceError):
            sampler.sample(qubo, num_reads=3, initial_states=np.zeros((2, 4)))

    def test_empty_qubo_rejected(self):
        with pytest.raises(DeviceError):
            SimulatedAnnealingSampler().sample(QUBOModel(), num_reads=1)

    def test_invalid_reads_rejected(self):
        with pytest.raises(DeviceError):
            SimulatedAnnealingSampler().sample(random_qubo(3, seed=0), num_reads=0)

    def test_invalid_sweeps_rejected(self):
        with pytest.raises(DeviceError):
            SimulatedAnnealingSampler(num_sweeps=0)

    def test_schedule_length_must_match_sweeps(self):
        with pytest.raises(DeviceError, match="50 sweeps"):
            SimulatedAnnealingSampler(num_sweeps=200, schedule=geometric_beta_schedule(0.1, 5.0, 50))

    def test_single_variable_problem(self):
        sampler = SimulatedAnnealingSampler(num_sweeps=30)
        qubo = QUBOModel(linear={"x": -2.0})
        assignments, energies = sampler.sample(qubo, num_reads=5, seed=0)
        assert all(a["x"] == 1 for a in assignments)
        assert all(e == pytest.approx(-2.0) for e in energies)

    def test_strong_coupling_respected(self):
        # Strongly ferromagnetic pair with a field: both variables align.
        qubo = QUBOModel(linear={0: 1.0, 1: 1.0}, quadratic={(0, 1): -10.0})
        sampler = SimulatedAnnealingSampler(num_sweeps=100)
        assignments, _ = sampler.sample(qubo, num_reads=10, seed=4)
        assert all(a[0] == a[1] for a in assignments)

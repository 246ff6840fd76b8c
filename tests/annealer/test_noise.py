"""Tests for the device noise model."""

import numpy as np
import pytest
from oracles import perturb_ising

from repro.annealer.noise import NoiseModel
from repro.exceptions import DeviceError
from repro.qubo.ising import IsingModel


class TestNoiseModel:
    def test_defaults_are_small_but_nonzero(self):
        noise = NoiseModel()
        assert 0 < noise.static_bias_fraction < 0.05
        assert 0 < noise.programming_noise_fraction < 0.05
        assert not noise.is_noiseless

    def test_noiseless_flag(self):
        assert NoiseModel(0.0, 0.0).is_noiseless

    def test_negative_fractions_rejected(self):
        with pytest.raises(DeviceError):
            NoiseModel(-0.1, 0.0)
        with pytest.raises(DeviceError):
            NoiseModel(0.0, -0.1)

    def test_static_bias_shape_and_determinism(self):
        noise = NoiseModel(0.05, 0.0)
        bias_a = noise.static_bias([0, 1, 2], seed=1)
        bias_b = noise.static_bias([0, 1, 2], seed=1)
        assert bias_a == bias_b
        assert set(bias_a) == {0, 1, 2}

    def test_zero_static_bias(self):
        noise = NoiseModel(0.0, 0.01)
        assert noise.static_bias([0, 1]) == {0: 0.0, 1: 0.0}


class TestPerturbIsing:
    def test_noiseless_perturbation_is_identity(self):
        noise = NoiseModel(0.0, 0.0)
        ising = IsingModel(h={0: 1.0, 1: -1.0}, j={(0, 1): 0.5}, offset=2.0)
        perturbed = perturb_ising(noise, ising, {0: 0.0, 1: 0.0}, scale=1.0, seed=0)
        assert perturbed.h == ising.h
        assert perturbed.j == ising.j
        assert perturbed.offset == ising.offset

    def test_static_bias_added_proportionally_to_scale(self):
        noise = NoiseModel(0.1, 0.0)
        ising = IsingModel(h={0: 1.0}, j={})
        perturbed = perturb_ising(noise, ising, {0: 0.5}, scale=10.0, seed=0)
        assert perturbed.h[0] == pytest.approx(1.0 + 10.0 * 0.5)

    def test_programming_noise_perturbs_couplings(self):
        noise = NoiseModel(0.0, 0.05)
        ising = IsingModel(h={0: 0.0}, j={(0, 1): 1.0})
        perturbed = perturb_ising(noise, ising, {}, scale=1.0, seed=3)
        assert perturbed.j[(0, 1)] != 1.0

    def test_original_model_untouched(self):
        noise = NoiseModel(0.1, 0.1)
        ising = IsingModel(h={0: 1.0}, j={(0, 1): 1.0})
        perturb_ising(noise, ising, {0: 1.0}, scale=1.0, seed=0)
        assert ising.h[0] == 1.0
        assert ising.j[(0, 1)] == 1.0

    def test_negative_scale_rejected(self):
        with pytest.raises(DeviceError):
            perturb_ising(NoiseModel(), IsingModel(), {}, scale=-1.0)


class TestPerturbArrays:
    def test_noiseless_perturbation_is_identity(self):
        h, j = np.array([1.0, -1.0]), np.array([0.5])
        out_h, out_j = NoiseModel(0.0, 0.0).perturb(
            h, j, np.zeros(2), scale=1.0, rng=np.random.default_rng(0)
        )
        assert out_h.tolist() == h.tolist() and out_j.tolist() == j.tolist()

    def test_inputs_untouched_and_bias_scaled(self):
        h, j = np.array([1.0]), np.array([1.0])
        out_h, _ = NoiseModel(0.1, 0.0).perturb(
            h, j, np.array([0.5]), scale=10.0, rng=np.random.default_rng(0)
        )
        assert out_h[0] == pytest.approx(6.0)
        assert h[0] == 1.0 and j[0] == 1.0

    def test_negative_scale_rejected(self):
        with pytest.raises(DeviceError):
            NoiseModel().perturb(np.zeros(1), np.zeros(0), np.zeros(1), -1.0, np.random.default_rng())

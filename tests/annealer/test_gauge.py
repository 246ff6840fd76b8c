"""Tests for the dictionary gauge transform the array programming is checked against."""

import pytest
from oracles import GaugeTransform, random_gauge

from repro.exceptions import DeviceError
from repro.qubo.ising import IsingModel, binary_to_spins
from repro.qubo.model import QUBOModel
from repro.qubo.ising import qubo_to_ising


class TestGaugeTransform:
    def test_invalid_factor_rejected(self):
        with pytest.raises(DeviceError):
            GaugeTransform(factors={0: 2})

    def test_identity(self):
        gauge = GaugeTransform.identity([0, 1, 2])
        ising = IsingModel(h={0: 1.0, 1: -1.0}, j={(0, 1): 0.5})
        assert gauge.apply_to_ising(ising).h == ising.h
        assert gauge.apply_to_binary({0: 1, 1: 0}) == {0: 1, 1: 0}

    def test_unknown_variable_defaults_to_identity(self):
        gauge = GaugeTransform(factors={0: -1})
        assert gauge.factor(99) == 1

    def test_energy_invariance(self):
        """Gauged problem + gauged spins = same energy (the defining property)."""
        ising = IsingModel(h={0: 1.0, 1: -0.5, 2: 0.25}, j={(0, 1): 2.0, (1, 2): -1.0})
        gauge = GaugeTransform(factors={0: -1, 1: 1, 2: -1})
        gauged = gauge.apply_to_ising(ising)
        for spins in (
            {0: 1, 1: 1, 2: 1},
            {0: -1, 1: 1, 2: -1},
            {0: -1, 1: -1, 2: -1},
        ):
            gauged_spins = gauge.apply_to_spins(spins)
            assert gauged.energy(gauged_spins) == pytest.approx(ising.energy(spins))

    def test_apply_to_spins_is_involution(self):
        gauge = GaugeTransform(factors={0: -1, 1: 1})
        spins = {0: -1, 1: 1}
        assert gauge.apply_to_spins(gauge.apply_to_spins(spins)) == spins

    def test_apply_to_binary_is_involution(self):
        gauge = GaugeTransform(factors={0: -1, 1: 1, 2: -1})
        sample = {0: 1, 1: 0, 2: 0}
        assert gauge.apply_to_binary(gauge.apply_to_binary(sample)) == sample

    def test_apply_to_binary_flips_only_negative_factors(self):
        gauge = GaugeTransform(factors={0: -1, 1: 1})
        assert gauge.apply_to_binary({0: 1, 1: 1}) == {0: 0, 1: 1}

    def test_apply_to_binary_rejects_non_binary(self):
        gauge = GaugeTransform(factors={0: -1})
        with pytest.raises(DeviceError):
            gauge.apply_to_binary({0: 2})

    def test_binary_roundtrip_preserves_qubo_energy(self):
        qubo = QUBOModel(linear={0: 1.0, 1: -2.0}, quadratic={(0, 1): 1.5})
        ising = qubo_to_ising(qubo)
        gauge = GaugeTransform(factors={0: -1, 1: -1})
        gauged_ising = gauge.apply_to_ising(ising)
        for assignment in ({0: 0, 1: 0}, {0: 1, 1: 0}, {0: 1, 1: 1}):
            spins = binary_to_spins(assignment)
            gauged_spins = gauge.apply_to_spins(spins)
            assert gauged_ising.energy(gauged_spins) == pytest.approx(qubo.energy(assignment))


class TestRandomGauge:
    def test_factors_cover_all_variables(self, rng):
        gauge = random_gauge([0, 1, 2, 3], seed=rng)
        assert set(gauge.factors) == {0, 1, 2, 3}
        assert all(f in (-1, 1) for f in gauge.factors.values())

    def test_deterministic_for_seed(self):
        a = random_gauge(list(range(20)), seed=5)
        b = random_gauge(list(range(20)), seed=5)
        assert a.factors == b.factors

    def test_different_seeds_differ(self):
        a = random_gauge(list(range(50)), seed=1)
        b = random_gauge(list(range(50)), seed=2)
        assert a.factors != b.factors

"""Bit-identity tests of the cross-request fusion window.

The fused anneal's contract (``docs/fusion.md``): per group, the
states coming out of one :class:`FusionWindow` are **exactly** — not
statistically — the states a solo
:meth:`SimulatedAnnealingSampler.sample_block_states` run produces with
the same generator (and the states of the dense oracle), regardless of
how many other jobs shared the window or how their read counts, sweep
counts, schedules and block shapes differ.  Hypothesis drives the window
composition; every comparison is ``np.array_equal``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_anneal

from repro.annealer.fusion import FusionGroup, FusionWindow
from repro.annealer.schedule import geometric_beta_schedule
from repro.annealer.simulated_annealing import SimulatedAnnealingSampler
from repro.exceptions import DeviceError
from repro.qubo.random_qubo import random_qubo

#: One window member: (qubo seeds, num_reads, num_sweeps, rng seed, explicit schedule?).
group_shapes = st.tuples(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=1000),
    st.booleans(),
)


def _build_group(shape):
    """A FusionGroup plus its (qubos, reads, sweeps, seed, schedule) description."""
    qubo_seeds, num_reads, num_sweeps, seed, explicit = shape
    qubos = [random_qubo(3 + (s % 5), density=0.6, seed=s) for s in qubo_seeds]
    schedule = geometric_beta_schedule(0.05, 8.0, num_sweeps) if explicit else None
    return (
        FusionGroup(
            qubos=qubos,
            num_reads=num_reads,
            rng=np.random.default_rng(seed),
            num_sweeps=num_sweeps,
            schedule=schedule,
        ),
        (qubos, num_reads, num_sweeps, seed, schedule),
    )


def _solo(qubos, num_reads, num_sweeps, seed, schedule):
    """The group's states annealed alone."""
    sampler = SimulatedAnnealingSampler(num_sweeps=num_sweeps, schedule=schedule)
    return sampler.sample_block_states(qubos, num_reads=num_reads, seed=np.random.default_rng(seed))


class TestFusionBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(shapes=st.lists(group_shapes, min_size=1, max_size=4))
    def test_fused_equals_solo_batched(self, shapes):
        """Each group's fused states equal its solo run and the dense oracle.

        Groups differ in reads, sweeps and schedules; the window lays
        them out by descending horizon, so shorter groups exit early
        from a reordered tensor.
        """
        groups, descriptions = zip(*(_build_group(shape) for shape in shapes))
        fused = FusionWindow().sample(list(groups))
        for (block_states, compiled), description in zip(fused, descriptions):
            qubos, num_reads, num_sweeps, seed, schedule = description
            solo_states, solo_compiled = _solo(*description)
            oracle = dense_anneal(qubos, num_reads, seed, num_sweeps, schedule=schedule)
            assert len(block_states) == len(solo_states) == len(oracle) == len(qubos)
            for ours, theirs, expected in zip(block_states, solo_states, oracle):
                assert np.array_equal(ours, theirs)
                assert np.array_equal(ours, expected)
            for ours, theirs in zip(compiled, solo_compiled):
                assert ours.num_variables == theirs.num_variables

    def test_single_block_group_matches_plain_sampler(self):
        """A one-block group reproduces the plain sampler exactly.

        A single-gauge request is a one-block group, so its fused anneal
        must replay the plain sampler's stream bit-for-bit.
        """
        qubo = random_qubo(9, density=0.5, seed=3)
        sampler = SimulatedAnnealingSampler(num_sweeps=40)
        solo, _ = sampler.sample_states(qubo, num_reads=6, seed=42)
        ((block_states, _compiled),) = FusionWindow().sample(
            [
                FusionGroup(
                    qubos=[qubo],
                    num_reads=6,
                    rng=np.random.default_rng(42),
                    num_sweeps=40,
                )
            ]
        )
        assert np.array_equal(block_states[0], solo)

    def test_peers_do_not_perturb_each_other(self):
        """A group's states are invariant to who shares its window."""
        qubos = [random_qubo(6, density=0.6, seed=s) for s in range(2)]

        def run(peers):
            target = FusionGroup(
                qubos=qubos,
                num_reads=4,
                rng=np.random.default_rng(11),
                num_sweeps=30,
            )
            return FusionWindow().sample([target] + peers)[0][0]

        alone = run([])
        crowded = run(
            [
                FusionGroup(
                    qubos=[random_qubo(13, density=0.4, seed=90 + k)],
                    num_reads=7,
                    rng=np.random.default_rng(90 + k),
                    num_sweeps=55,
                )
                for k in range(3)
            ]
        )
        for ours, theirs in zip(alone, crowded):
            assert np.array_equal(ours, theirs)

    def test_mixed_sweep_horizons_early_exit(self):
        """Groups with shorter sweep budgets stop early yet stay identical."""
        shapes = [
            ([1], 3, 5, 1, False),
            ([2, 3], 2, 40, 2, True),
            ([4], 4, 17, 3, False),
            ([5, 6], 4, 40, 4, False),
        ]
        groups, descriptions = zip(*(_build_group(shape) for shape in shapes))
        fused = FusionWindow().sample(list(groups))
        for (block_states, _), description in zip(fused, descriptions):
            solo_states, _ = _solo(*description)
            for ours, theirs in zip(block_states, solo_states):
                assert np.array_equal(ours, theirs)


class TestFusionValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(DeviceError):
            FusionWindow().sample([])

    def test_empty_group_rejected(self):
        with pytest.raises(DeviceError):
            FusionWindow().sample([FusionGroup(qubos=[], num_reads=1, rng=0, num_sweeps=5)])

    def test_bad_reads_rejected(self):
        qubo = random_qubo(4, density=0.5, seed=0)
        with pytest.raises(DeviceError):
            FusionWindow().sample([FusionGroup(qubos=[qubo], num_reads=0, rng=0, num_sweeps=5)])

    def test_bad_sweeps_rejected(self):
        qubo = random_qubo(4, density=0.5, seed=0)
        with pytest.raises(DeviceError):
            FusionWindow().sample([FusionGroup(qubos=[qubo], num_reads=1, rng=0, num_sweeps=0)])

    def test_schedule_length_must_match_sweeps(self):
        qubo = random_qubo(4, density=0.5, seed=0)
        schedule = geometric_beta_schedule(0.1, 5.0, 50)
        with pytest.raises(DeviceError, match="50 sweeps"):
            FusionWindow().sample(
                [FusionGroup(qubos=[qubo], num_reads=1, rng=0, num_sweeps=200, schedule=schedule)]
            )

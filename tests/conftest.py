"""Shared fixtures for the test suite.

All fixtures build *small* objects (tiny Chimera grids, problems with a
handful of queries) so the whole suite stays fast while still exercising
every code path of the library.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.annealer.device import DWaveSamplerSimulator
from repro.annealer.noise import NoiseModel
from repro.chimera.hardware import DWaveSpec
from repro.chimera.topology import ChimeraGraph
from repro.mqo.generator import MQOGeneratorConfig, generate_paper_testcase
from repro.mqo.problem import MQOProblem


@pytest.fixture()
def rng():
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture()
def paper_example_problem() -> MQOProblem:
    """The worked Example 1 of paper Section 4.

    Four plans with costs 2, 4, 3, 1; plans 0/1 belong to query 0 and
    plans 2/3 to query 1; plans 1 and 2 share an intermediate result
    worth 5 cost units.
    """
    return MQOProblem(
        plans_per_query=[[2.0, 4.0], [3.0, 1.0]],
        savings={(1, 2): 5.0},
        name="paper-example-1",
    )


@pytest.fixture()
def small_problem() -> MQOProblem:
    """A 4-query, 2-plan problem with a few sharing links."""
    return MQOProblem(
        plans_per_query=[[3.0, 5.0], [4.0, 2.0], [6.0, 1.0], [2.0, 2.5]],
        savings={(0, 2): 2.0, (1, 4): 1.0, (5, 6): 3.0, (2, 7): 1.5},
        name="small-problem",
    )


@pytest.fixture()
def medium_problem() -> MQOProblem:
    """A generated 8-query, 3-plan instance (seeded, Chimera friendly)."""
    return generate_paper_testcase(8, 3, seed=7, config=MQOGeneratorConfig())


@pytest.fixture()
def tiny_chimera() -> ChimeraGraph:
    """A defect-free 2x2 Chimera (32 qubits)."""
    return ChimeraGraph(2, 2)


@pytest.fixture()
def small_chimera() -> ChimeraGraph:
    """A defect-free 4x4 Chimera (128 qubits)."""
    return ChimeraGraph(4, 4)


@pytest.fixture()
def medium_chimera() -> ChimeraGraph:
    """A defect-free 6x6 Chimera (288 qubits)."""
    return ChimeraGraph(6, 6)


@pytest.fixture()
def small_spec() -> DWaveSpec:
    """A small device spec with the paper's timing constants."""
    return DWaveSpec(name="test-annealer", cell_rows=4, cell_cols=4, shore=4)


@pytest.fixture()
def ideal_device(medium_chimera, small_spec) -> DWaveSamplerSimulator:
    """A noiseless device simulator on the 6x6 topology."""
    return DWaveSamplerSimulator(
        spec=small_spec,
        topology=medium_chimera,
        noise=NoiseModel(0.0, 0.0),
        num_sweeps=150,
        seed=99,
    )


@pytest.fixture()
def run_batch(tmp_path):
    """Run ``repro-mqo batch`` over JSONL lines; return ``(exit code, results)``.

    ``lines`` are spec dictionaries (dumped one per line) or raw text
    lines; ``flags`` are further command-line arguments.  The results
    are the parsed output lines, in output order.
    """
    from repro.cli import main

    runs = itertools.count()

    def run(lines, *flags):
        index = next(runs)
        workload = tmp_path / f"batch-{index}.jsonl"
        output = tmp_path / f"batch-{index}.out.jsonl"
        workload.write_text(
            "".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines)
        )
        exit_code = main(["batch", str(workload), "--output", str(output), *map(str, flags)])
        if not output.exists():
            return exit_code, []
        return exit_code, [json.loads(line) for line in output.read_text().splitlines()]

    return run

"""The device's array problem check against its term-by-term oracle.

``validate_problem`` checks qubits and couplers on the model's arrays
against the topology's tables; ``oracles.validate_problem`` walks the
variables and the quadratic dict.  Both must accept the same problems
and reject the rest with the same first error, type and message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import validate_problem

from repro.annealer.device import DWaveSamplerSimulator
from repro.annealer.noise import NoiseModel
from repro.chimera.hardware import DWaveSpec
from repro.chimera.topology import ChimeraGraph
from repro.exceptions import DeviceError
from repro.qubo.model import QUBOModel

SPEC = DWaveSpec(name="check-2x2", cell_rows=2, cell_cols=2)
DEVICE = DWaveSamplerSimulator(
    spec=SPEC, topology=ChimeraGraph(2, 2, broken_qubits=[5]), noise=NoiseModel(0.0, 0.0), seed=0
)
LABELS = st.sampled_from(
    [0, 1, 4, 6, 8, 12, 13, 16, 20, 24, 31] * 3
    + [np.int64(7), np.int32(2), 5, 32, -1, 2**70, 1.0, "q3", (0, 4)]
)


def _outcome(check, qubo):
    try:
        check(qubo)
    except DeviceError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def programs(draw):
    """QUBOs over random labels, built from dicts or from arrays."""
    labels = draw(st.lists(LABELS, unique_by=lambda label: (type(label).__name__, label), max_size=8))
    labels = list(dict.fromkeys(labels))  # 7 and np.int64(7) are one dict key
    pairs = [(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    if draw(st.booleans()):
        edge_array = np.array(edges).reshape(-1, 2)
        return QUBOModel.from_arrays(labels, np.ones(len(labels)), edge_array, np.ones(len(edges)))
    qubo = QUBOModel()
    for label in labels:
        qubo.add_variable(label)
    for i, j in edges:
        try:
            qubo.add_quadratic(labels[i], labels[j], 1.0)
        except (TypeError, ValueError):  # labels that do not compare, e.g. (0, 4) and np.int64
            pass
    return qubo


@settings(max_examples=300, deadline=None)
@given(qubo=programs())
def test_validate_problem_matches_term_oracle(qubo):
    assert _outcome(DEVICE.validate_problem, qubo) == _outcome(
        lambda model: validate_problem(DEVICE.topology, model), qubo
    )


def test_numpy_integer_labels_sample():
    """Labels from a numpy array program and sample like Python ints."""
    qubo = QUBOModel.from_arrays(
        list(np.array([0, 4])), np.array([1.0, -1.0]), np.array([[0, 1]]), np.array([-2.0])
    )
    samples = DEVICE.sample_qubo(qubo, num_reads=4, num_gauges=2, seed=1)
    assert len(samples) == 4


def test_first_non_coupler_edge_is_reported_smaller_qubit_first():
    qubo = QUBOModel.from_arrays([8, 4, 0], np.zeros(3), np.array([[2, 1], [1, 0], [0, 2]]), np.ones(3))
    with pytest.raises(DeviceError, match="between qubits 4 and 8 does not"):
        DEVICE.validate_problem(qubo)


@pytest.mark.parametrize("labels", [[True], [False, True]])
def test_bool_labels_checked_like_integers(labels):
    """``True``/``False`` are the integers 1/0, as ``isinstance`` sees them."""
    edges = np.array([[0, 1]] if len(labels) > 1 else []).reshape(-1, 2)
    qubo = QUBOModel.from_arrays(labels, np.zeros(len(labels)), edges, np.ones(len(edges)))
    assert _outcome(DEVICE.validate_problem, qubo) == _outcome(
        lambda model: validate_problem(DEVICE.topology, model), qubo
    )

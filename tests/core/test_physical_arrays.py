"""The array physical mapping and embedding check against their dict oracles.

``embed_logical_qubo`` builds the physical QUBO with one
``QUBOModel.from_arrays`` call and ``Embedding.validate`` searches every
chain pair's first coupler in one vectorised pass.  ``oracles.py`` keeps
the term-by-term forms; these tests require the same variables, edges
and weights (byte for byte, signed zeros included), the same chain
strengths and couplers, and the same first error, type and message.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import physical_mapping, validate_embedding

from repro.chimera.topology import ChimeraGraph
from repro.core.physical import PhysicalMappingConfig, embed_logical_qubo
from repro.embedding.base import Embedding
from repro.embedding.clustered import ClusteredEmbedder
from repro.embedding.greedy import GreedyEmbedder
from repro.embedding.native import NativeClusteredEmbedder
from repro.embedding.triad import TriadEmbedder
from repro.exceptions import EmbeddingError, EmbeddingNotFoundError
from repro.qubo.model import QUBOModel

TOPOLOGIES = [ChimeraGraph(3, 3), ChimeraGraph(3, 3, broken_qubits=[2, 9, 30, 41])]
WEIGHTS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 7.75, -1e-9, 3.0])
CONFIGS = st.sampled_from(
    [
        PhysicalMappingConfig(),
        PhysicalMappingConfig(chain_strength_epsilon=0.125),
        PhysicalMappingConfig(uniform_chain_strength=2),
        PhysicalMappingConfig(uniform_chain_strength=0.75),
    ]
)


def _embedding(kind, topology, variables, seed):
    """An embedding of ``variables`` from one of the embedders."""
    clusters = [variables[i : i + 3] for i in range(0, len(variables), 3)]
    if kind == "native":
        return NativeClusteredEmbedder(topology).embed(clusters)
    if kind == "clustered":
        return ClusteredEmbedder(topology).embed(clusters)
    if kind == "triad":
        return TriadEmbedder(topology).embed_clique(variables)
    chain = list(zip(variables, variables[1:]))
    return GreedyEmbedder(topology).embed(chain, variables=variables, seed=seed)


@st.composite
def mapping_inputs(draw):
    """A topology, an embedding and a logical QUBO the embedding can carry."""
    topology = draw(st.sampled_from(TOPOLOGIES))
    kind = draw(st.sampled_from(["native", "clustered", "triad", "greedy"]))
    size = draw(st.integers(2, 8))
    labels = draw(st.sampled_from(["int", "str"]))
    variables = [f"v{i}" if labels == "str" else i for i in range(size)]
    try:
        embedding = _embedding(kind, topology, variables, draw(st.integers(0, 3)))
    except EmbeddingNotFoundError:
        assume(False)
    pairs = [
        (u, v)
        for i, u in enumerate(variables)
        for v in variables[i + 1 :]
        if embedding.coupler_between(u, v, topology) is not None
    ]
    order = draw(st.permutations(range(len(variables))))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    logical = QUBOModel(offset=draw(WEIGHTS))
    for position in order:
        logical.add_linear(variables[position], draw(WEIGHTS))
    for u, v in chosen:
        first, second = (v, u) if draw(st.booleans()) else (u, v)
        logical.add_quadratic(first, second, draw(WEIGHTS))
    return topology, embedding, logical


def _assert_same_mapping(array_form, dict_form):
    variables, linear, edges, weights = array_form.physical_qubo.to_arrays()
    ref_variables, ref_linear, ref_edges, ref_weights = dict_form.physical_qubo.to_arrays()
    assert variables == ref_variables
    assert linear.tobytes() == ref_linear.tobytes()
    assert edges.tobytes() == ref_edges.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()
    assert repr(array_form.physical_qubo.offset) == repr(dict_form.physical_qubo.offset)
    assert list(array_form.physical_qubo.quadratic.items()) == list(
        dict_form.physical_qubo.quadratic.items()
    )
    assert list(array_form.chain_strengths.items()) == list(dict_form.chain_strengths.items())
    assert list(array_form.interaction_couplers.items()) == list(
        dict_form.interaction_couplers.items()
    )


@settings(max_examples=60, deadline=None)
@given(inputs=mapping_inputs(), config=CONFIGS)
def test_physical_mapping_matches_dict_oracle(inputs, config):
    topology, embedding, logical = inputs
    _assert_same_mapping(
        embed_logical_qubo(logical, embedding, topology, config),
        physical_mapping(logical, embedding, topology, config),
    )


@settings(max_examples=20, deadline=None)
@given(inputs=mapping_inputs())
def test_physical_mapping_of_subset_in_other_order(inputs):
    """Logical variables may be a reordered subset of the embedded ones."""
    topology, embedding, logical = inputs
    variables = logical.variables[::-1][: max(1, logical.num_variables - 1)]
    subset = logical.subinteractions(variables)
    _assert_same_mapping(
        embed_logical_qubo(subset, embedding, topology),
        physical_mapping(subset, embedding, topology),
    )


def _outcome(check, *args):
    try:
        check(*args)
    except EmbeddingError as exc:
        return type(exc), str(exc)
    return None


# Qubits of a 2x2 Chimera: 0-3 left and 4-7 right column of cell (0, 0),
# 8-15 cell (0, 1), 16-23 cell (1, 0), 24-31 cell (1, 1); 5 is broken.
BROKEN_2X2 = ChimeraGraph(2, 2, broken_qubits=[5])
QUBITS = st.sampled_from([0, 1, 2, 4, 6, 7, 8, 12, 13, 16, 20, 24, 31] * 4 + [5, 33, -1])


@st.composite
def embeddings_with_interactions(draw):
    """Random disjoint chains (possibly broken, unknown or disconnected)
    and random interactions (possibly self pairs or unknown labels)."""
    qubits = draw(st.lists(QUBITS, unique=True, min_size=1, max_size=10))
    cuts = sorted(draw(st.lists(st.integers(1, len(qubits)), unique=True)))
    bounds = [0] + [cut for cut in cuts if cut < len(qubits)] + [len(qubits)]
    chains = {f"x{i}": qubits[lo:hi] for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))}
    labels = list(chains) + ["ghost"]
    interactions = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels))))
    return Embedding(chains), interactions


@settings(max_examples=200, deadline=None)
@given(case=embeddings_with_interactions())
def test_validate_matches_dict_oracle(case):
    embedding, interactions = case
    assert _outcome(embedding.validate, BROKEN_2X2, interactions) == _outcome(
        validate_embedding, embedding, BROKEN_2X2, interactions
    )


@settings(max_examples=100, deadline=None)
@given(case=embeddings_with_interactions())
def test_interaction_couplers_are_the_first_found(case):
    embedding, interactions = case
    try:
        embedding.chain_trees(BROKEN_2X2)
        couplers = embedding.interaction_couplers(BROKEN_2X2, interactions)
    except EmbeddingError:
        assume(False)
    for (u, v), found in zip(interactions, couplers.tolist()):
        expected = (-1, -1) if u == v else embedding.coupler_between(u, v, BROKEN_2X2)
        assert tuple(found) == expected


@pytest.mark.parametrize(
    "chains, logical_edges, message",
    [
        ({"a": (0,)}, [("a", "b")], "embedding is missing chains for variables: ['b']"),
        ({"a": (0,), "b": (5,)}, [("a", "b")], "chain of 'b' uses broken or unknown qubit 5"),
        ({"a": (0, 1), "b": (4,)}, [("a", "b")], "chain of 'a' is not connected: (0, 1)"),
        ({"a": (0, 1, 2), "b": (6,)}, [("a", "b")], "chain of 'a' is not connected: (0, 1, 2)"),
        ({"a": (0,), "b": (1,)}, [("a", "b")], "no physical coupler connects the chains of 'a' and 'b'"),
        ({"a": (0, 1), "b": (99,)}, [("a", "b")], "chain of 'a' is not connected: (0, 1)"),
    ],
)
def test_error_cases_match_dict_oracle(chains, logical_edges, message):
    logical = QUBOModel()
    for u, v in logical_edges:
        logical.add_quadratic(u, v, 1.0)
    embedding = Embedding(chains)
    for build in (embed_logical_qubo, physical_mapping):
        with pytest.raises(EmbeddingError) as caught:
            build(logical, embedding, BROKEN_2X2)
        assert str(caught.value) == message


def test_chain_trees_follow_chain_edges():
    """Two-qubit trees come from the arrays, longer ones from the walk."""
    topology = ChimeraGraph(2, 2)
    embedding = Embedding({"a": (0, 4, 1, 12), "b": (2,), "c": (6, 3), "d": (8, 24)})
    edges, counts = embedding.chain_trees(topology)
    expected = [edge for var in "abcd" for edge in embedding.chain_edges(var, topology)]
    assert edges.tolist() == [list(edge) for edge in expected]
    assert counts.tolist() == [3, 0, 1, 1]


def test_neighbor_table_keeps_set_order():
    topology = ChimeraGraph(3, 3, broken_qubits=[4])
    table = topology.neighbor_table
    for qubit in range(topology.num_qubits_total):
        row = [q for q in table[qubit].tolist() if q >= 0]
        assert row == (list(topology.neighbors(qubit)) if topology.has_qubit(qubit) else [])
    assert np.array_equal(
        np.flatnonzero(topology.functional_mask), np.array(topology.qubits, dtype=np.int64)
    )

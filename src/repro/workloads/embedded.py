"""Embedding-co-designed instances and the paper's evaluation classes.

Instance generation lives in one place — the workload subsystem — and
the Section 7.1 shape is a registered family (``embedded``) like every
other generator; the experiment harness (:mod:`repro.experiments`)
imports its test-case classes and generator from here.

The paper's test cases are co-designed with the embedding: every query
is its own cluster, and sharing links only exist where the physical
topology provides couplers between the chains of the involved plans
(Section 7.1).  :func:`generate_embedded_testcase` therefore first
embeds the queries with the compact per-cell pattern, then places cost
savings (uniform from ``{1, 2}`` scaled by a constant) on a random
subset of the physically couplable cross-query plan pairs, and finally
returns the problem *together with* its embedding so the pipeline does
not have to search for one again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, List, Tuple

from repro.chimera.topology import ChimeraGraph
from repro.embedding.base import Embedding
from repro.embedding.native import NativeClusteredEmbedder
from repro.exceptions import EmbeddingNotFoundError, InvalidProblemError, ReproError
from repro.mqo.generator import MQOGeneratorConfig
from repro.mqo.problem import MQOProblem
from repro.utils.rng import SeedLike, ensure_rng
from repro.workloads.base import workload_family

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.experiments.profiles import ExperimentProfile

__all__ = [
    "EmbeddedTestCase",
    "generate_embedded_testcase",
    "build_embedded",
    "TestCaseClass",
    "paper_test_classes",
    "PAPER_CLASS_SIZES",
]


@dataclass
class EmbeddedTestCase:
    """An MQO instance bundled with its hardware embedding.

    Attributes
    ----------
    problem:
        The generated MQO problem (plan indices ``q * l + j``).
    embedding:
        Chains for every plan on ``topology``.
    topology:
        The Chimera graph the embedding targets.
    plans_per_query:
        Number of alternative plans per query (uniform across queries).
    """

    problem: MQOProblem
    embedding: Embedding
    topology: ChimeraGraph
    plans_per_query: int

    @property
    def num_queries(self) -> int:
        """Number of queries in the instance."""
        return self.problem.num_queries

    @property
    def qubits_per_variable(self) -> float:
        """Average chain length of the embedding (Figure 6 x-axis)."""
        return self.embedding.average_chain_length()


def generate_embedded_testcase(
    num_queries: int,
    plans_per_query: int,
    topology: ChimeraGraph,
    sharing_density: float = 0.75,
    config: MQOGeneratorConfig | None = None,
    seed: SeedLike = None,
    name: str = "",
) -> EmbeddedTestCase:
    """Generate one Section 7.1 style instance together with its embedding.

    Parameters
    ----------
    num_queries / plans_per_query:
        Problem dimensions.  ``num_queries`` may not exceed the capacity
        of the compact per-cell embedding on ``topology``.
    topology:
        Target hardware graph (typically from :data:`repro.chimera.DWAVE_2X`).
    sharing_density:
        Probability with which each physically couplable cross-query plan
        pair receives a sharing link.
    config:
        Cost/saving distribution knobs (defaults to the paper's: integer
        costs, savings uniform from ``{1, 2}``).

    Raises
    ------
    EmbeddingNotFoundError
        If the requested number of queries does not fit on the topology.
    """
    if num_queries <= 0 or plans_per_query <= 0:
        raise InvalidProblemError("num_queries and plans_per_query must be positive")
    if not 0.0 <= sharing_density <= 1.0:
        raise InvalidProblemError(f"sharing_density must be in [0, 1], got {sharing_density}")
    config = config or MQOGeneratorConfig()
    rng = ensure_rng(seed)

    embedder = NativeClusteredEmbedder(topology)
    capacity = embedder.capacity(plans_per_query)
    if num_queries > capacity:
        raise EmbeddingNotFoundError(
            f"{num_queries} queries with {plans_per_query} plans each exceed the "
            f"device capacity of {capacity} queries"
        )

    clusters: List[List[int]] = [
        [query * plans_per_query + offset for offset in range(plans_per_query)]
        for query in range(num_queries)
    ]
    embedding = embedder.embed(clusters)

    plan_costs = [
        [
            config.scale * float(rng.integers(config.cost_low, config.cost_high + 1))
            for _ in range(plans_per_query)
        ]
        for _ in range(num_queries)
    ]

    savings: Dict[Tuple[int, int], float] = {}
    choices = config.saving_choices
    for p1, p2 in embedder.couplable_pairs(embedding):
        if p1 // plans_per_query == p2 // plans_per_query:
            continue  # same query: that coupler carries the E_M penalty, not a saving
        if rng.random() >= sharing_density:
            continue
        pair = (p1, p2) if p1 < p2 else (p2, p1)
        savings[pair] = config.scale * float(choices[int(rng.integers(0, len(choices)))])

    problem = MQOProblem(
        plan_costs,
        savings,
        name=name or f"embedded-q{num_queries}-l{plans_per_query}",
    )
    return EmbeddedTestCase(
        problem=problem,
        embedding=embedding,
        topology=topology,
        plans_per_query=plans_per_query,
    )


@workload_family(
    "embedded",
    "the paper's Section 7.1 embedding-co-designed instances",
    tags=("paper", "embedded"),
)
def build_embedded(
    seed: int,
    num_queries: int = 10,
    plans_per_query: int = 2,
    cell_rows: int = 4,
    cell_cols: int = 4,
    sharing_density: float = 0.75,
) -> MQOProblem:
    """The embedded-testcase family: Section 7.1 instances by device size.

    Same generator as :func:`generate_embedded_testcase` (sharing links
    only on physically couplable plan pairs of a ``cell_rows`` x
    ``cell_cols`` Chimera device), registered so suites and the bench
    orchestrator can draw these instances like any other family.  The
    registry builder returns only the problem; callers that also need
    the embedding use :func:`generate_embedded_testcase` directly.
    """
    case = generate_embedded_testcase(
        num_queries=num_queries,
        plans_per_query=plans_per_query,
        topology=ChimeraGraph(cell_rows, cell_cols),
        sharing_density=sharing_density,
        seed=seed,
    )
    return case.problem


#: The class sizes reported in the paper for the 1097-functional-qubit D-Wave 2X.
PAPER_CLASS_SIZES = {2: 537, 3: 253, 4: 140, 5: 108}


@dataclass(frozen=True)
class TestCaseClass:
    """One evaluation class: a plans-per-query setting and its query count."""

    #: Tell pytest not to collect this class despite its ``Test`` prefix.
    __test__: ClassVar[bool] = False

    plans_per_query: int
    num_queries: int

    def __post_init__(self) -> None:
        if self.plans_per_query <= 0 or self.num_queries <= 0:
            raise ReproError("test-case class dimensions must be positive")

    @property
    def label(self) -> str:
        """Short display label, e.g. ``"537 Queries, 2 Plans"``."""
        return f"{self.num_queries} Queries, {self.plans_per_query} Plans"


def paper_test_classes(
    topology: ChimeraGraph,
    profile: "ExperimentProfile",
    plans_range: tuple = (2, 3, 4, 5),
) -> List[TestCaseClass]:
    """The four evaluation classes scaled to ``topology`` and ``profile``.

    For every plans-per-query value the maximal number of queries that the
    compact embedding fits on ``topology`` is computed (the paper's
    "associated maximal number of queries"), then multiplied by the
    profile's ``query_scale``.
    """
    embedder = NativeClusteredEmbedder(topology)
    classes = []
    for plans_per_query in plans_range:
        capacity = embedder.capacity(plans_per_query)
        if capacity <= 0:
            raise ReproError(f"topology cannot host any query with {plans_per_query} plans")
        num_queries = max(2, int(capacity * profile.query_scale))
        classes.append(TestCaseClass(plans_per_query=plans_per_query, num_queries=num_queries))
    return classes

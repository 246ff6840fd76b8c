"""Reference implementations (test oracles).

The device simulator programs, reads out and decodes annealing requests
on whole numpy arrays.  The per-term and per-read dictionary forms below
are the straightforward statement of the same transformations; the
equivalence tests check the array path against them, weight for weight
and read for read.  The dense sweep states the annealing kernel the
same way: a dense coupling matrix, a gather and a scatter per colour
class.  The host path around the anneal has its forms here too: the
embedding check pair by pair, the physical mapping term by term, the
device's problem check term by term, and the canonical hash's colour
refinement on per-plan dictionaries.  The problem model has its forms
too: the savings dictionary built and checked entry by entry, the
columnar view built by loops over plans, queries and savings, and the
format-1 problem dictionary.  They live here, not in ``src/``, so the
library keeps one implementation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.annealer.compile import CompiledQUBO, compile_qubo
from repro.annealer.noise import NoiseModel
from repro.annealer.schedule import AnnealingSchedule, default_schedule_for
from repro.chimera.topology import ChimeraGraph
from repro.core.logical import LogicalMapping
from repro.core.physical import PhysicalMapping, PhysicalMappingConfig
from repro.embedding.base import Embedding
from repro.embedding.unembed import ChainGather, ChainReadout, resolve_chains
from repro.exceptions import DeviceCapacityError, DeviceError, EmbeddingError, InvalidProblemError
from repro.mqo.arrays import ProblemArrays
from repro.mqo.problem import MQOProblem, MQOSolution
from repro.mqo.serialization import problem_to_dict
from repro.qubo.ising import IsingModel, ising_to_qubo, qubo_to_ising
from repro.qubo.model import QUBOModel
from repro.utils.rng import SeedLike, ensure_rng

Variable = Hashable


# ---------------------------------------------------------------------- #
# Gauge transforms
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class GaugeTransform:
    """A per-variable +/-1 gauge factor.

    In Ising form a gauge ``g`` maps ``h'_i = g_i h_i`` and
    ``J'_ij = g_i g_j J_ij``; a sample ``s'`` of the transformed problem
    corresponds to ``s_i = g_i s'_i`` of the original, with equal energy.
    """

    factors: Dict[Variable, int]

    def __post_init__(self) -> None:
        for var, factor in self.factors.items():
            if factor not in (-1, 1):
                raise DeviceError(f"gauge factor for {var!r} must be -1 or +1, got {factor}")

    def factor(self, var: Variable) -> int:
        """Gauge factor of one variable (identity for unknown variables)."""
        return self.factors.get(var, 1)

    def apply_to_ising(self, ising: IsingModel) -> IsingModel:
        """The gauge-transformed Ising model."""
        h = {var: self.factor(var) * value for var, value in ising.h.items()}
        j = {
            (u, v): self.factor(u) * self.factor(v) * value
            for (u, v), value in ising.j.items()
        }
        return IsingModel(h=h, j=j, offset=ising.offset)

    def apply_to_spins(self, spins: Mapping[Variable, int]) -> Dict[Variable, int]:
        """Map spins between the original and the gauged frame (involution)."""
        return {var: self.factor(var) * int(value) for var, value in spins.items()}

    def apply_to_binary(self, sample: Mapping[Variable, int]) -> Dict[Variable, int]:
        """Map a 0/1 sample between the original and the gauged frame."""
        result = {}
        for var, value in sample.items():
            if value not in (0, 1):
                raise DeviceError(f"binary value for {var!r} must be 0 or 1, got {value}")
            result[var] = value if self.factor(var) == 1 else 1 - value
        return result

    @classmethod
    def identity(cls, variables: Sequence[Variable]) -> "GaugeTransform":
        """The identity gauge over the given variables."""
        return cls(factors={var: 1 for var in variables})


def random_gauge(variables: Sequence[Variable], seed: SeedLike = None) -> GaugeTransform:
    """Draw an independent uniform +/-1 gauge factor for every variable."""
    rng = ensure_rng(seed)
    signs = rng.integers(0, 2, size=len(variables)) * 2 - 1
    return GaugeTransform(factors={var: int(sign) for var, sign in zip(variables, signs)})


# ---------------------------------------------------------------------- #
# Annealing sweep
# ---------------------------------------------------------------------- #
def dense_coupling(compiled: CompiledQUBO) -> np.ndarray:
    """Symmetric dense ``(n, n)`` coupling matrix of a compiled QUBO."""
    n = compiled.num_variables
    coupling = np.zeros((n, n))
    edges = compiled.structure.edges
    if compiled.edge_weights.size:
        np.add.at(coupling, (edges[:, 0], edges[:, 1]), compiled.edge_weights)
        np.add.at(coupling, (edges[:, 1], edges[:, 0]), compiled.edge_weights)
    return coupling


def dense_anneal(
    qubos: Sequence[QUBOModel],
    num_reads: int,
    seed: SeedLike,
    num_sweeps: int,
    schedule: AnnealingSchedule | None = None,
    initial_states: np.ndarray | None = None,
) -> List[np.ndarray]:
    """One group's anneal against the dense block-diagonal coupling matrix.

    Colour class ``k`` of every block (the compiled colouring) merges
    into one class, in block order; every block cools on its own ladder.
    Per sweep and class: gather the class's states, take the field from
    the dense rows, draw one uniform block of the class's shape, accept
    where ``u < exp(-beta * delta)`` (probability 1 where ``delta <= 0``)
    and scatter back.  Returns each block's ``(num_reads, n_b)`` states.
    """
    rng = ensure_rng(seed)
    compiled = [compile_qubo(qubo) for qubo in qubos]
    offsets = np.cumsum([0] + [block.num_variables for block in compiled])
    coupling = np.zeros((offsets[-1], offsets[-1]))
    ladders = []
    for block, lo, hi in zip(compiled, offsets[:-1], offsets[1:]):
        coupling[lo:hi, lo:hi] = dense_coupling(block)
        ladders.append((schedule or default_schedule_for(block.max_abs_weight, num_sweeps)).as_array())
    linear = np.concatenate([block.linear for block in compiled])[:, None]
    betas = np.stack(ladders, axis=1)
    classes = []
    for k in range(max(block.num_classes for block in compiled)):
        parts = [
            (b, block.structure.classes[k].members)
            for b, block in enumerate(compiled)
            if k < block.num_classes
        ]
        classes.append(
            (
                np.concatenate([members + offsets[b] for b, members in parts]),
                np.concatenate([np.full(members.size, b) for b, members in parts]),
            )
        )
    if initial_states is None:
        initial_states = rng.integers(0, 2, size=(num_reads, offsets[-1]))
    states_t = np.array(initial_states, dtype=float).T.copy()
    for sweep in range(num_sweeps):
        for rows, block_of in classes:
            current = states_t[rows]
            delta = (1.0 - 2.0 * current) * (coupling[rows] @ states_t + linear[rows])
            uniforms = rng.random(current.shape)
            probability = np.ones_like(delta)
            np.exp(delta * -betas[sweep, block_of][:, None], out=probability, where=delta > 0)
            states_t[rows] = np.where(uniforms < probability, 1.0 - current, current)
    return [np.ascontiguousarray(states_t[lo:hi].T) for lo, hi in zip(offsets[:-1], offsets[1:])]


# ---------------------------------------------------------------------- #
# Device noise
# ---------------------------------------------------------------------- #
def perturb_ising(
    noise: NoiseModel,
    ising: IsingModel,
    static_bias: Dict[int, float],
    scale: float,
    seed: SeedLike = None,
) -> IsingModel:
    """Static bias plus fresh programming noise, term by term."""
    if scale < 0:
        raise DeviceError("scale must be non-negative")
    rng = ensure_rng(seed)
    h = dict(ising.h)
    j = dict(ising.j)
    for var in h:
        h[var] += scale * static_bias.get(var, 0.0)
        if noise.programming_noise_fraction:
            h[var] += scale * float(rng.normal(0.0, noise.programming_noise_fraction))
    if noise.programming_noise_fraction:
        for edge in j:
            j[edge] += scale * float(rng.normal(0.0, noise.programming_noise_fraction))
    return IsingModel(h=h, j=j, offset=ising.offset)


def program_gauges(
    qubo: QUBOModel,
    noise: NoiseModel,
    static_bias: Dict[int, float],
    num_gauges: int,
    rng: np.random.Generator,
) -> List[Tuple[GaugeTransform, QUBOModel]]:
    """Per gauge batch: ``ising_to_qubo(perturb(gauge(qubo_to_ising(q))))``."""
    ising = qubo_to_ising(qubo)
    scale = ising.max_abs_weight()
    programmed = []
    for _ in range(num_gauges):
        gauge = random_gauge(qubo.variables, seed=rng)
        noisy = perturb_ising(noise, gauge.apply_to_ising(ising), static_bias, scale, seed=rng)
        programmed.append((gauge, ising_to_qubo(noisy)))
    return programmed


# ---------------------------------------------------------------------- #
# Read-out and decode
# ---------------------------------------------------------------------- #
def read_out(
    qubo: QUBOModel,
    gauges: Sequence[GaugeTransform],
    block_states: Sequence[np.ndarray],
    block_variables: Sequence[Variable],
    batch_sizes: Sequence[int],
) -> List[Tuple[Dict[Variable, int], float, int]]:
    """``(assignment, energy, gauge index)`` per read, one dict per read."""
    reads = []
    for gauge_index, (gauge, states, size) in enumerate(zip(gauges, block_states, batch_sizes)):
        for row in range(size):
            gauged = {var: int(states[row, i]) for i, var in enumerate(block_variables)}
            original = gauge.apply_to_binary(gauged)
            reads.append((original, qubo.energy(original), gauge_index))
    return reads


def resolve_chains_batch(
    states: np.ndarray,
    qubit_order: Sequence[int],
    embedding: Embedding,
    readout: ChainReadout = ChainReadout.MAJORITY,
) -> Tuple[List[Dict[Variable, int]], List[bool]]:
    """Per-read assignment dicts from a state matrix via :class:`ChainGather`.

    Broken reads get an empty assignment under ``DISCARD``, matching
    :func:`resolve_chains`.
    """
    gather = ChainGather(embedding, qubit_order)
    matrix, broken = gather.resolve(states, readout)
    assignments: List[Dict[Variable, int]] = []
    for row, row_broken in zip(matrix, broken):
        if readout is ChainReadout.DISCARD and row_broken:
            assignments.append({})
        else:
            assignments.append({var: int(row[i]) for i, var in enumerate(gather.variables)})
    return assignments, [bool(flag) for flag in broken]


def decode_reads(
    mapping: LogicalMapping,
    physical: PhysicalMapping,
    assignments: Sequence[Mapping[int, int]],
) -> List[Tuple[bool, MQOSolution, MQOSolution]]:
    """Per read: ``(broken, raw solution, repaired solution)``."""
    decoded = []
    for assignment in assignments:
        logical, broken = resolve_chains(assignment, physical.embedding, physical.config.readout)
        raw = mapping.solution_from_assignment(logical)
        decoded.append((broken, raw, raw if raw.is_valid else mapping.repair(logical)))
    return decoded


# ---------------------------------------------------------------------- #
# Embedding check and physical mapping
# ---------------------------------------------------------------------- #
def _chain_is_connected(chain: Tuple[int, ...], topology: ChimeraGraph) -> bool:
    """Breadth-first connectivity of a chain of functional qubits."""
    chain_set = set(chain)
    visited = {chain[0]}
    frontier = [chain[0]]
    while frontier:
        current = frontier.pop()
        for neighbor in topology.neighbors(current):
            if neighbor in chain_set and neighbor not in visited:
                visited.add(neighbor)
                frontier.append(neighbor)
    return len(visited) == len(chain_set)


def validate_embedding(
    embedding: Embedding,
    topology: ChimeraGraph,
    interactions: Iterable[Tuple[Variable, Variable]] = (),
) -> None:
    """``Embedding.validate`` chain by chain, then pair by pair."""
    chains = embedding.chains()
    for var, chain in chains.items():
        for q in chain:
            if not topology.has_qubit(q):
                raise EmbeddingError(f"chain of {var!r} uses broken or unknown qubit {q}")
        if not _chain_is_connected(chain, topology):
            raise EmbeddingError(f"chain of {var!r} is not connected: {chain}")
    for u, v in interactions:
        if u == v:
            continue
        if u not in chains or v not in chains:
            raise EmbeddingError(
                f"interaction ({u!r}, {v!r}) references a variable without a chain"
            )
        if embedding.coupler_between(u, v, topology) is None:
            raise EmbeddingError(f"no physical coupler connects the chains of {u!r} and {v!r}")


def _choi_chain_strength(chain: Tuple[int, ...], physical: QUBOModel, epsilon: float) -> float:
    """Choi's bound for one chain over the partially built physical QUBO."""
    chain_set = set(chain)
    increase_to_one = 0.0
    increase_to_zero = 0.0
    for qubit in chain:
        weight = physical.get_linear(qubit)
        external_positive = 0.0
        external_negative = 0.0
        for neighbor, coupling in physical.neighbors(qubit).items():
            if neighbor in chain_set:
                continue
            external_positive += max(coupling, 0.0)
            external_negative += max(-coupling, 0.0)
        increase_to_one += weight + external_positive
        increase_to_zero += -weight + external_negative
    bound = min(increase_to_zero, increase_to_one)
    return max(bound, 0.0) + epsilon


def physical_mapping(
    logical_qubo: QUBOModel,
    embedding: Embedding,
    topology: ChimeraGraph,
    config: PhysicalMappingConfig | None = None,
) -> PhysicalMapping:
    """``embed_logical_qubo`` term by term, on a dictionary-built QUBO."""
    config = config or PhysicalMappingConfig()
    missing = [var for var in logical_qubo.variables if var not in embedding]
    if missing:
        raise EmbeddingError(f"embedding is missing chains for variables: {missing[:5]}")
    validate_embedding(embedding, topology, logical_qubo.quadratic.keys())

    physical = QUBOModel(offset=logical_qubo.offset)
    for var in logical_qubo.variables:
        for qubit in embedding.chain(var):
            physical.add_variable(qubit)
    for var, weight in logical_qubo.linear.items():
        chain = embedding.chain(var)
        for qubit in chain:
            physical.add_linear(qubit, weight / len(chain))
    interaction_couplers = {}
    for (u, v), weight in logical_qubo.quadratic.items():
        coupler = embedding.coupler_between(u, v, topology)
        physical.add_quadratic(coupler[0], coupler[1], weight)
        interaction_couplers[(u, v)] = coupler

    chain_strengths: Dict[Variable, float] = {}
    chain_edges: Dict[Variable, List[Tuple[int, int]]] = {}
    for var in logical_qubo.variables:
        chain_edges[var] = embedding.chain_edges(var, topology)
        if config.uniform_chain_strength is not None:
            chain_strengths[var] = config.uniform_chain_strength
        else:
            chain_strengths[var] = _choi_chain_strength(
                embedding.chain(var), physical, config.chain_strength_epsilon
            )
    for var, edges in chain_edges.items():
        strength = chain_strengths[var]
        for qubit_u, qubit_v in edges:
            physical.add_linear(qubit_u, strength)
            physical.add_linear(qubit_v, strength)
            physical.add_quadratic(qubit_u, qubit_v, -2.0 * strength)
    return PhysicalMapping(
        logical_qubo=logical_qubo,
        physical_qubo=physical,
        embedding=embedding,
        topology=topology,
        chain_strengths=chain_strengths,
        interaction_couplers=interaction_couplers,
        config=config,
    )


# ---------------------------------------------------------------------- #
# Device problem check
# ---------------------------------------------------------------------- #
def validate_problem(topology: ChimeraGraph, qubo: QUBOModel) -> None:
    """``DWaveSamplerSimulator.validate_problem`` term by term."""
    for var in qubo.variables:
        if not isinstance(var, (int, np.integer)) or not topology.has_qubit(var):
            raise DeviceCapacityError(
                f"variable {var!r} is not a functional qubit of the device topology"
            )
    for u, v in qubo.quadratic:
        if not topology.has_coupler(u, v):
            raise DeviceError(
                f"quadratic term between qubits {u} and {v} does not correspond to a "
                f"physical coupler"
            )


# ---------------------------------------------------------------------- #
# Canonical hash and exact token
# ---------------------------------------------------------------------- #
_MAX_CANONICAL_LEAVES = 2048


def _partner_entries(problem: MQOProblem) -> List[List[Tuple[int, float]]]:
    partners: List[List[Tuple[int, float]]] = [[] for _ in range(problem.num_plans)]
    for (p1, p2), value in problem.savings.items():
        partners[p1].append((p2, round(value, 12)))
        partners[p2].append((p1, round(value, 12)))
    return partners


def _refine_colors(
    colors: Dict[int, int], partner_entries: List[List[Tuple[int, float]]]
) -> Dict[int, int]:
    num_colors = len(set(colors.values()))
    while True:
        signatures = {
            plan: (
                colors[plan],
                tuple(sorted((colors[partner], saving) for partner, saving in entries)),
            )
            for plan, entries in enumerate(partner_entries)
        }
        ranks = {
            signature: rank for rank, signature in enumerate(sorted(set(signatures.values())))
        }
        colors = {plan: ranks[signature] for plan, signature in signatures.items()}
        if len(ranks) == num_colors:
            return colors
        num_colors = len(ranks)


def _first_tie_class(problem: MQOProblem, colors: Dict[int, int]) -> List[int]:
    classes: Dict[Tuple[int, int], List[int]] = {}
    for query in problem.queries:
        for plan_index in query.plan_indices:
            classes.setdefault((colors[plan_index], query.index), []).append(plan_index)
    ties = [group for group in classes.values() if len(group) > 1]
    if not ties:
        return []
    return min(ties, key=lambda group: colors[group[0]])


def _mapping_from_colors(problem: MQOProblem, colors: Dict[int, int]) -> Dict[int, int]:
    mapping: Dict[int, int] = {}
    for query in problem.queries:
        for plan_index in sorted(query.plan_indices, key=lambda p: colors[p]):
            mapping[plan_index] = len(mapping)
    return mapping


def _form_key(problem: MQOProblem, mapping: Dict[int, int]) -> Tuple:
    return tuple(
        sorted(
            (*sorted((mapping[p1], mapping[p2])), round(value, 12))
            for (p1, p2), value in problem.savings.items()
        )
    )


def canonical_plan_order(problem: MQOProblem) -> Dict[int, int]:
    """Individualization-refinement over per-plan dictionaries."""
    initial_ranks = {
        key: rank
        for rank, key in enumerate(
            sorted({(plan.query_index, round(plan.cost, 12)) for plan in problem.plans})
        )
    }
    start = {
        plan.index: initial_ranks[(plan.query_index, round(plan.cost, 12))]
        for plan in problem.plans
    }
    best: List[Tuple[Tuple, Dict[int, int]]] = []
    leaves = [0]
    partner_entries = _partner_entries(problem)

    def search(colors: Dict[int, int]) -> None:
        if leaves[0] >= _MAX_CANONICAL_LEAVES:
            return
        colors = _refine_colors(colors, partner_entries)
        ties = _first_tie_class(problem, colors)
        if not ties:
            leaves[0] += 1
            mapping = _mapping_from_colors(problem, colors)
            key = _form_key(problem, mapping)
            if not best or key < best[0][0]:
                best[:] = [(key, mapping)]
            return
        fresh_color = max(colors.values()) + 1
        for plan_index in ties:
            branched = dict(colors)
            branched[plan_index] = fresh_color
            search(branched)

    search(start)
    return best[0][1]


def canonical_problem_dict(problem: MQOProblem) -> Dict[str, Any]:
    """``canonical_problem_dict`` with the refinement on dictionaries."""
    mapping = canonical_plan_order(problem)
    inverse = {new: old for old, new in mapping.items()}
    plans_per_query: List[List[float]] = []
    cursor = 0
    for query in problem.queries:
        plans_per_query.append(
            [round(problem.plan_cost(inverse[cursor + k]), 12) for k in range(query.num_plans)]
        )
        cursor += query.num_plans
    savings = sorted(
        [*sorted((mapping[p1], mapping[p2])), round(value, 12)]
        for (p1, p2), value in problem.savings.items()
    )
    return {"format_version": 1, "plans_per_query": plans_per_query, "savings": savings}


def canonical_problem_hash(problem: MQOProblem) -> str:
    """SHA-256 of the JSON of :func:`canonical_problem_dict`."""
    payload = json.dumps(canonical_problem_dict(problem), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def json_problem_token(problem: MQOProblem) -> str:
    """The exact problem token as a digest of the JSON problem form (names dropped)."""
    payload = {key: value for key, value in problem_to_dict(problem).items() if key != "name"}
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# Problem construction, columnar view and the format-1 form
# ---------------------------------------------------------------------- #
def savings_mapping(
    plans_per_query: Sequence[Sequence[float]], savings: Mapping[Tuple[int, int], float]
) -> Dict[Tuple[int, int], float]:
    """The normalised savings dict, built and checked entry by entry."""
    plan_query = [q for q, costs in enumerate(plans_per_query) for _ in costs]
    checked: Dict[Tuple[int, int], float] = {}
    for (p1, p2), value in savings.items():
        p1, p2 = int(p1), int(p2)
        if p1 == p2:
            raise InvalidProblemError(f"a plan cannot share results with itself (plan {p1})")
        pair = (p1, p2) if p1 < p2 else (p2, p1)
        for p in pair:
            if not 0 <= p < len(plan_query):
                raise InvalidProblemError(f"savings entry references unknown plan {p}")
        if plan_query[pair[0]] == plan_query[pair[1]]:
            raise InvalidProblemError(
                f"plans {pair[0]} and {pair[1]} belong to the same query and cannot share"
            )
        value = float(value)
        if not value > 0.0:
            raise InvalidProblemError(f"saving for plan pair {pair} must be positive, got {value}")
        if pair in checked:
            raise InvalidProblemError(f"duplicate savings entry for plan pair {pair}")
        checked[pair] = value
    return checked


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def problem_arrays(
    problem: MQOProblem, savings: Mapping[Tuple[int, int], float] | None = None
) -> ProblemArrays:
    """``build_problem_arrays`` by loops over plans, queries and a savings mapping.

    ``savings`` defaults to ``problem.savings``; pass
    :func:`savings_mapping` to keep the problem's own views out of it.
    """
    savings = problem.savings if savings is None else savings
    num_plans = problem.num_plans
    num_queries = problem.num_queries

    plan_cost = np.empty(num_plans, dtype=np.float64)
    plan_query = np.empty(num_plans, dtype=np.int32)
    for plan in problem.plans:
        plan_cost[plan.index] = plan.cost
        plan_query[plan.index] = plan.query_index

    query_offsets = np.zeros(num_queries + 1, dtype=np.int64)
    for query in problem.queries:
        query_offsets[query.index + 1] = len(query.plan_indices)
    np.cumsum(query_offsets, out=query_offsets)

    num_savings = len(savings)
    savings_p1 = np.empty(num_savings, dtype=np.int64)
    savings_p2 = np.empty(num_savings, dtype=np.int64)
    savings_value = np.empty(num_savings, dtype=np.float64)
    for slot, ((p1, p2), value) in enumerate(savings.items()):
        savings_p1[slot] = p1
        savings_p2[slot] = p2
        savings_value[slot] = value

    rows = np.empty(2 * num_savings, dtype=np.int64)
    cols = np.empty(2 * num_savings, dtype=np.int64)
    vals = np.empty(2 * num_savings, dtype=np.float64)
    rows[0::2] = savings_p1
    rows[1::2] = savings_p2
    cols[0::2] = savings_p2
    cols[1::2] = savings_p1
    vals[0::2] = savings_value
    vals[1::2] = savings_value
    order = np.argsort(rows, kind="stable")
    adj_indptr = np.zeros(num_plans + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_plans), out=adj_indptr[1:])

    return ProblemArrays(
        num_queries=num_queries,
        num_plans=num_plans,
        num_savings=num_savings,
        plan_cost=_frozen(plan_cost),
        plan_query=_frozen(plan_query),
        query_offsets=_frozen(query_offsets),
        savings_p1=_frozen(savings_p1),
        savings_p2=_frozen(savings_p2),
        savings_value=_frozen(savings_value),
        adj_indptr=_frozen(adj_indptr),
        adj_indices=_frozen(cols[order]),
        adj_values=_frozen(vals[order]),
    )


def problem_to_format1_dict(problem: MQOProblem) -> Dict[str, Any]:
    """The format-1 problem form: one ``{"plans", "value"}`` entry per saving, sorted."""
    return {
        "format_version": 1,
        "name": problem.name,
        "plans_per_query": [
            [problem.plan_cost(p) for p in query.plan_indices] for query in problem.queries
        ],
        "savings": [
            {"plans": [p1, p2], "value": value}
            for (p1, p2), value in sorted(problem.interaction_pairs())
        ],
    }

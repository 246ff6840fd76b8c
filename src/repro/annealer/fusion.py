"""The annealing kernel: one fused colour-class Metropolis sweep.

Every anneal in :mod:`repro.annealer` runs through :class:`FusionWindow`.
A caller hands it one :class:`FusionGroup` per independent job; a group
holds one or more QUBO *blocks* that share the job's random stream:

* a solo sample is one group with one block
  (:meth:`SimulatedAnnealingSampler.sample_states
  <repro.annealer.simulated_annealing.SimulatedAnnealingSampler.sample_states>`),
* a gauge batch is one group with many blocks (the device simulator),
* cross-request fusion is many groups (the server's admission window) —
  the continuous-batching shape of modern inference serving, amortising
  the per-sweep numpy dispatch cost across requests.

Blocks never interact (the fused coupling is block-diagonal), so colour
class ``k`` of every block merges into one fused class ``k``: the union
of independent sets stays independent.

**Layout.**  The fused ``(rows, reads)`` state tensor is permuted so each
fused class is one contiguous row range — class first, then group, then
block.  A class update reads and writes its rows as a slice.  The class's
CSR is built once per call with its column indices remapped to the
permuted rows; every row keeps its entries in compilation order, so
scipy's ``csr_matvecs`` accumulates each local field in the same order,
to the same float.

**Buffers.**  The field, the tilt ``1 - 2x``, the uniforms and the flips
are allocated once per call, sized to the largest class; each class
update works on their leading rows in place.  An accepted flip is
``x = x xor flip``, exact on 0/1 states.

**Draws.**  A group's stream is exactly its solo stream: one
``integers(0, 2, (reads, n))`` draw for the initial states, then per
sweep, per colour class, one ``random(out=...)`` block in the group's
solo shape ``(class rows of the group, reads)``.  The group's rows of a
class are contiguous, so the draw lands in one slice of the shared
uniforms; a group narrower than the tensor draws into its own scratch
and copies into its left columns.  The arithmetic is identical too:
each block keeps its own temperature ladder through a per-row ``-beta``
column, and read columns evolve independently, so padding a group to
the window's widest read count only adds throwaway columns.

**Early exit.**  Groups have independent streams, so their order in the
tensor is free: they are laid out by descending sweep horizon.  The rows
still annealing are then a prefix of every class, and reaching a
group's horizon only shortens the ranges.

When fusion loses: one oversized job stretches every sweep of the window
to its block size while small co-fused jobs would have finished cheaply
alone.  The server bounds this with its window size and by only fusing
jobs that share the annealing-backed solver; see ``docs/fusion.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.annealer.compile import CompileCache, CompiledQUBO, compile_qubo, default_compile_cache
from repro.annealer.schedule import AnnealingSchedule, check_schedule_length, default_ladders
from repro.exceptions import DeviceError
from repro.qubo.model import QUBOModel
from repro.utils.rng import SeedLike, ensure_rng

try:  # the raw kernel behind ``csr_matrix @ dense``, without the per-call
    # validation that costs as much as the product at colour-class sizes.
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - version drift guard
    _csr_matvecs = None

__all__ = ["FusionGroup", "FusionWindow"]

#: Per group: its blocks' states and compiled models.
GroupResult = Tuple[List[np.ndarray], List[CompiledQUBO]]


@dataclass
class FusionGroup:
    """One job's annealing workload inside a fusion window.

    Attributes
    ----------
    qubos:
        The job's QUBO blocks (e.g. its programmed gauge batches).
    num_reads:
        Reads annealed for every block of this job.
    rng:
        The job's own random stream.  Each group **must** own an
        independent generator — sharing one generator across groups
        breaks the bit-identity contract.
    num_sweeps:
        Sweep horizon of this job (its blocks drop out of the fused
        loop after this many sweeps).
    schedule:
        Optional explicit temperature ladder shared by the job's
        blocks; defaults to each block's own geometric schedule.  Its
        length must equal ``num_sweeps``.
    initial_states:
        Optional ``(num_reads, n)`` start states over the job's blocks
        in order; drawn from ``rng`` when omitted.
    """

    qubos: Sequence[QUBOModel]
    num_reads: int
    rng: SeedLike
    num_sweeps: int
    schedule: Optional[AnnealingSchedule] = None
    initial_states: Optional[np.ndarray] = None


@dataclass
class _Section:
    """One group's rows ``[lo, hi)`` within a fused class.

    ``scratch`` is ``None`` when the group spans the full tensor width
    (its draw lands directly in the shared uniforms); otherwise draws go
    through the ``(hi - lo, group reads)`` scratch.
    """

    group: int
    rng: np.random.Generator
    lo: int
    hi: int
    scratch: Optional[np.ndarray]


@dataclass
class _FusedClass:
    """Colour class ``k`` of every block: tensor rows from ``row0`` on.

    ``indptr``/``indices``/``data`` are the class's CSR rows over the
    permuted tensor, ``linear`` its linear fields repeated across the
    read columns (a same-shape add is several times faster than
    broadcasting a column over a few reads), ``row_block`` the block of
    each row.  ``group_end[g]`` counts the class's rows owned by the
    first ``g`` groups, so the rows of the groups still annealing are
    ``[0, group_end[active])``.
    """

    row0: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    linear: np.ndarray
    row_block: np.ndarray
    group_end: np.ndarray
    sections: List[_Section]


class FusionWindow:
    """Anneal many independent jobs in one fused colour-class sweep.

    Callers hand the window one :class:`FusionGroup` per job and get
    back, per job, exactly what a window holding that job alone returns
    with the same generator — the bit-identity contract the gauge
    batching and the server-side fusion path are built on.

    Parameters
    ----------
    compile_cache:
        Structure cache consulted when compiling blocks (the
        process-wide cache by default), so blocks sharing a sparsity
        pattern compile once.
    """

    def __init__(self, compile_cache: CompileCache | None = None) -> None:
        self.compile_cache = compile_cache if compile_cache is not None else default_compile_cache()

    def sample(self, groups: Sequence[FusionGroup]) -> List[GroupResult]:
        """Anneal every group fused and return per-group block states.

        Returns one ``(block_states, compiled)`` pair per group, in
        group order, where ``block_states[b]`` is the
        ``(num_reads, n_b)`` 0/1 matrix of the group's block ``b`` and
        ``compiled[b]`` its compiled model.
        """
        groups = list(groups)
        if not groups:
            raise DeviceError("a fusion window needs at least one group")
        for group in groups:
            if not group.qubos:
                raise DeviceError("every fusion group needs at least one QUBO")
            if group.num_reads <= 0:
                raise DeviceError(f"num_reads must be positive, got {group.num_reads}")
            if group.num_sweeps <= 0:
                raise DeviceError(f"num_sweeps must be positive, got {group.num_sweeps}")
            check_schedule_length(group.schedule, group.num_sweeps)
        rngs = [ensure_rng(group.rng) for group in groups]
        compiled = [
            [compile_qubo(qubo, cache=self.compile_cache) for qubo in group.qubos] for group in groups
        ]
        if any(not block.num_variables for blocks in compiled for block in blocks):
            raise DeviceError("cannot anneal an empty QUBO")

        # Tensor order: descending sweep horizon (stable), so the groups
        # still annealing at any sweep are a prefix.
        order = sorted(range(len(groups)), key=lambda g: -groups[g].num_sweeps)
        tensor_groups = [groups[g] for g in order]
        tensor_blocks = [compiled[g] for g in order]
        tensor_rngs = [rngs[g] for g in order]
        width = max(group.num_reads for group in groups)
        positions, classes = _layout(tensor_blocks, tensor_rngs, tensor_groups, width)
        states = np.zeros((sum(block.num_variables for blocks in compiled for block in blocks), width))
        for g, block_rows in zip(order, positions):
            rows = np.concatenate(block_rows)
            states[rows, : groups[g].num_reads] = _initial_states(groups[g], rngs[g], rows.size).T

        neg_betas = -_beta_table(tensor_groups, tensor_blocks)
        _anneal(states, classes, neg_betas, [group.num_sweeps for group in tensor_groups])

        results: List[Optional[GroupResult]] = [None] * len(groups)
        for g, block_rows in zip(order, positions):
            reads = groups[g].num_reads
            results[g] = ([np.ascontiguousarray(states[rows, :reads].T) for rows in block_rows], compiled[g])
        return results  # type: ignore[return-value]


def _initial_states(group: FusionGroup, rng: np.random.Generator, n: int) -> np.ndarray:
    """The group's ``(num_reads, n)`` start states: given, or one draw."""
    if group.initial_states is None:
        return rng.integers(0, 2, size=(group.num_reads, n)).astype(float)
    initial = np.array(group.initial_states, dtype=float)
    if initial.shape != (group.num_reads, n):
        raise DeviceError(f"initial_states must have shape ({group.num_reads}, {n}), got {initial.shape}")
    return initial


def _layout(
    compiled: Sequence[Sequence[CompiledQUBO]],
    rngs: Sequence[np.random.Generator],
    groups: Sequence[FusionGroup],
    width: int,
) -> Tuple[List[List[np.ndarray]], List[_FusedClass]]:
    """Tensor rows of every block's variables, and the fused classes.

    The arguments are per group, in tensor order.  Returns
    ``positions[g][b][i]``, the tensor row of variable ``i`` of group
    ``g``'s block ``b``, and the fused classes.  Rows run class by
    class, then group by group, then block by block, members in
    compilation order.
    """
    blocks = [block for group_blocks in compiled for block in group_blocks]
    owners = [g for g, group_blocks in enumerate(compiled) for _ in group_blocks]
    positions = [np.empty(block.num_variables, dtype=np.int64) for block in blocks]
    members = [
        [(b, block.structure.classes[k]) for b, block in enumerate(blocks) if k < block.num_classes]
        for k in range(max(block.num_classes for block in blocks))
    ]
    starts = []
    row = 0
    for parts in members:
        starts.append(row)
        for b, plan in parts:
            positions[b][plan.members] = np.arange(row, row + plan.members.size)
            row += plan.members.size

    classes = []
    for k, (row0, parts) in enumerate(zip(starts, members)):
        group_rows = np.zeros(len(compiled), dtype=np.int64)
        for b, plan in parts:
            group_rows[owners[b]] += plan.members.size
        group_end = np.concatenate([[0], np.cumsum(group_rows)])
        sections = []
        for g in np.flatnonzero(group_rows):
            lo, hi = int(group_end[g]), int(group_end[g + 1])
            reads = groups[g].num_reads
            scratch = np.empty((hi - lo, reads)) if reads != width else None
            sections.append(_Section(group=int(g), rng=rngs[g], lo=lo, hi=hi, scratch=scratch))
        lengths = np.concatenate([np.diff(plan.indptr) for _, plan in parts])
        linear = np.concatenate([blocks[b].linear[plan.members] for b, plan in parts])
        classes.append(
            _FusedClass(
                row0=row0,
                indptr=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
                indices=np.concatenate([positions[b][plan.neighbor_cols] for b, plan in parts]),
                data=np.concatenate([blocks[b].class_neighbor_data[k] for b, _ in parts]),
                linear=np.repeat(linear[:, None], width, axis=1),
                row_block=np.repeat([b for b, _ in parts], [plan.members.size for _, plan in parts]),
                group_end=group_end,
                sections=sections,
            )
        )
    bounds = np.cumsum([0] + [len(group_blocks) for group_blocks in compiled])
    return [positions[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])], classes


def _beta_table(groups: Sequence[FusionGroup], compiled: Sequence[Sequence[CompiledQUBO]]) -> np.ndarray:
    """Per-sweep, per-block betas, shape ``(longest horizon, num_blocks)``.

    Each block's ladder comes from its own group: the explicit schedule,
    or the block-scaled default, computed for all blocks sharing a
    horizon in one :func:`default_ladders` call.  Ladders shorter than
    the longest horizon are padded by repeating the final beta — padded
    rows are never used because the block leaves the sweep loop first.
    """
    table = np.empty((max(group.num_sweeps for group in groups), sum(map(len, compiled))))
    defaults: Dict[int, List[int]] = {}
    column = 0
    for group, blocks in zip(groups, compiled):
        columns = list(range(column, column + len(blocks)))
        column += len(blocks)
        if group.schedule is None:
            defaults.setdefault(group.num_sweeps, []).extend(columns)
        else:
            ladder = group.schedule.as_array()
            table[: ladder.size, columns] = ladder[:, None]
            table[ladder.size :, columns] = ladder[-1]
    max_abs = np.array([block.max_abs_weight for blocks in compiled for block in blocks])
    for num_sweeps, columns in defaults.items():
        ladders = default_ladders(max_abs[columns], num_sweeps)
        table[:num_sweeps, columns] = ladders
        table[num_sweeps:, columns] = ladders[-1]
    return table


def _anneal(states: np.ndarray, classes: List[_FusedClass], neg_betas: np.ndarray, sweeps: List[int]) -> None:
    """Run every sweep of every group on ``states`` in place.

    ``sweeps`` holds the groups' horizons in tensor (descending) order.
    Between two distinct horizons the set of annealing groups is fixed,
    so each class's work — its active row count, its draw sections and
    views of the shared buffers — is set up once per segment.

    A candidate flip with energy change ``delta`` is accepted when a
    uniform in ``[0, 1)`` is below ``exp(min(-beta * delta, 0))``: the
    Boltzmann factor where ``delta > 0`` and exactly 1 elsewhere, so
    every downhill or level move is taken and large weights cannot
    overflow ``exp``.  It clamps rather than masking ``exp`` with
    ``where=``: numpy runs a masked ufunc once per run of unmasked
    lanes, which on interleaved masks costs ten times the whole
    exponential.  Both forms call the same ``exp`` loop on the same
    arguments, so they accept the same flips.
    """
    total, width = states.shape
    flat = states.reshape(-1)
    height = max(fused.indptr.size - 1 for fused in classes)
    field, tilt = np.empty((height, width)), np.empty((height, width))
    uniforms = np.zeros((height, width))
    flips = np.empty((height, width), dtype=bool)
    neg_beta = np.empty(height)
    matvecs = _csr_matvecs

    start = 0
    for horizon in sorted(set(sweeps)):
        active = sum(1 for sweep in sweeps if sweep >= horizon)
        work = []
        for fused in classes:
            rows = int(fused.group_end[active])
            if not rows:
                continue
            f = field[:rows]
            kernel = (rows, total, width, fused.indptr, fused.indices, fused.data, flat, f.reshape(-1))
            if matvecs is None:
                kernel = csr_matrix((fused.data, fused.indices, fused.indptr[: rows + 1]), (rows, total))
            sections = [section for section in fused.sections if section.group < active]
            work.append(
                (
                    kernel,
                    states[fused.row0 : fused.row0 + rows],
                    f,
                    tilt[:rows],
                    uniforms[:rows],
                    flips[:rows],
                    neg_beta[:rows],
                    fused.row_block[:rows],
                    fused.linear[:rows],
                    sections,
                )
            )
        for sweep in range(start, horizon):
            neg_beta_row = neg_betas[sweep]
            for kernel, x, f, t, u, fl, nb, row_block, linear, sections in work:
                if matvecs is None:
                    f[...] = kernel @ states
                else:
                    f.fill(0.0)
                    matvecs(*kernel)
                f += linear
                np.multiply(x, -2.0, out=t)
                t += 1.0  # tilt = 1 - 2x: the sign of each candidate flip
                f *= t  # delta: the energy change of each flip
                for section in sections:
                    if section.scratch is None:
                        section.rng.random(out=u[section.lo : section.hi])
                    else:
                        section.rng.random(out=section.scratch)
                        u[section.lo : section.hi, : section.scratch.shape[1]] = section.scratch
                np.take(neg_beta_row, row_block, out=nb, mode="clip")
                f *= nb[:, None]
                np.fmin(f, 0.0, out=f)
                np.exp(f, out=f)
                np.less(u, f, out=fl)
                np.logical_xor(x, fl, out=fl)
                np.copyto(x, fl)
        start = horizon


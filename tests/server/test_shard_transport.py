"""Round-trip tests of the zero-copy ProblemArrays pipe transport.

Shard slots move problems between processes as pickled
:class:`~repro.mqo.arrays.ProblemArrays` with protocol-5 out-of-band
buffers.  Three things must hold, and each gets a test here:

* the columns survive the trip **bit-identically** (in-process pickle
  round-trip, and across a real ``multiprocessing`` pipe + process),
* the hot columns are genuinely **not copied** into the pickle stream —
  every NumPy column travels as an out-of-band buffer, and where the
  transport allows (in-process ``PickleBuffer`` round-trip) the rebuilt
  arrays share memory with the originals,
* the rebuilt problem is **semantically the same problem**: identical
  canonical hash and exact-problem token, so coalescing and caches keyed
  on them keep working across the process boundary.
"""

from __future__ import annotations

import pickle
from dataclasses import fields
from multiprocessing import get_context

import numpy as np
import pytest

from repro.mqo.arrays import ProblemArrays, build_problem_arrays, problem_from_arrays
from repro.mqo.generator import generate_paper_testcase
from repro.mqo.serialization import exact_problem_token
from repro.server.sharding import (
    decode_shard_request,
    default_shard_count,
    encode_shard_request,
    recv_message,
    send_message,
)
from repro.service.jobs import SolveRequest

from tests.server.conftest import tiny_problem


def array_fields(arrays: ProblemArrays):
    """The (name, ndarray) column pairs of one ProblemArrays."""
    return [
        (f.name, getattr(arrays, f.name))
        for f in fields(arrays)
        if isinstance(getattr(arrays, f.name), np.ndarray)
    ]


def assert_bit_identical(original: ProblemArrays, rebuilt: ProblemArrays) -> None:
    """Every scalar equal and every column byte-for-byte identical."""
    assert rebuilt.num_queries == original.num_queries
    assert rebuilt.num_plans == original.num_plans
    assert rebuilt.num_savings == original.num_savings
    for name, column in array_fields(original):
        twin = getattr(rebuilt, name)
        assert twin.dtype == column.dtype, name
        assert twin.shape == column.shape, name
        assert twin.tobytes() == column.tobytes(), name


@pytest.fixture()
def arrays() -> ProblemArrays:
    """Columnar form of a non-trivial generated instance."""
    return build_problem_arrays(
        generate_paper_testcase(num_queries=6, plans_per_query=3, seed=11)
    )


def test_pickle5_roundtrip_bit_identical(arrays: ProblemArrays) -> None:
    """Out-of-band pickling reproduces every column exactly."""
    buffers = []
    payload = pickle.dumps(arrays, protocol=5, buffer_callback=buffers.append)
    rebuilt = pickle.loads(payload, buffers=buffers)
    assert_bit_identical(arrays, rebuilt)


def test_pickle5_columns_travel_out_of_band(arrays: ProblemArrays) -> None:
    """No column's payload is staged inside the pickle stream itself.

    Protocol 5 must emit one out-of-band buffer per NumPy column; the
    remaining in-band stream is then just structure (field names, dtypes,
    scalars) and stays far smaller than the column data.
    """
    buffers = []
    payload = pickle.dumps(arrays, protocol=5, buffer_callback=buffers.append)
    columns = array_fields(arrays)
    assert len(buffers) >= len(columns)
    out_of_band = sum(len(memoryview(buffer.raw())) for buffer in buffers)
    assert out_of_band >= arrays.nbytes()
    # The in-band stream must not secretly contain a copy of the big
    # columns: it is bounded by structure overhead, not column bytes.
    assert len(payload) < 4096 + arrays.nbytes() // 10


def test_pickle5_inprocess_shares_memory(arrays: ProblemArrays) -> None:
    """Where the transport permits, rebuilt columns alias the originals.

    An in-process round-trip keeps the ``PickleBuffer`` objects alive,
    so ``pickle.loads`` can wrap the *same* memory instead of copying —
    the strongest observable form of "zero-copy".
    """
    buffers = []
    payload = pickle.dumps(arrays, protocol=5, buffer_callback=buffers.append)
    rebuilt = pickle.loads(payload, buffers=buffers)
    shared = sum(
        1
        for name, column in array_fields(arrays)
        if column.size and np.shares_memory(column, getattr(rebuilt, name))
    )
    nonempty = sum(1 for _, column in array_fields(arrays) if column.size)
    assert shared == nonempty


def test_send_recv_roundtrip_over_real_pipe(arrays: ProblemArrays) -> None:
    """send_message/recv_message over a real multiprocessing pipe."""
    parent, child = get_context().Pipe()
    try:
        send_message(child, ("job", "sj-1", arrays))
        kind, job_id, rebuilt = recv_message(parent)
    finally:
        parent.close()
        child.close()
    assert (kind, job_id) == ("job", "sj-1")
    assert_bit_identical(arrays, rebuilt)


def _echo_child(conn) -> None:
    """Child body: receive one message, send its payload straight back."""
    message = recv_message(conn)
    send_message(conn, message)
    conn.close()


def test_roundtrip_through_child_process(arrays: ProblemArrays) -> None:
    """A full parent → child process → parent trip is bit-identical."""
    ctx = get_context()
    parent, child = ctx.Pipe()
    process = ctx.Process(target=_echo_child, args=(child,), daemon=True)
    process.start()
    child.close()
    try:
        send_message(parent, arrays)
        rebuilt = recv_message(parent)
    finally:
        process.join(timeout=10.0)
        parent.close()
    assert_bit_identical(arrays, rebuilt)


def test_shard_request_roundtrip_preserves_identity() -> None:
    """encode/decode preserves the problem's cache and coalescing keys.

    The rebuilt problem must report the same canonical hash (routing,
    result cache) and the same exact-problem token (coalescing) as the
    original, and the request scalars must ride along unchanged.
    """
    problem = generate_paper_testcase(num_queries=5, plans_per_query=2, seed=23)
    request = SolveRequest(
        problem=problem,
        solver="CLIMB",
        time_budget_ms=125.0,
        seed=7,
        job_id="client-42",
        metadata={"origin": "test"},
    )
    rebuilt = decode_shard_request(encode_shard_request(request))
    assert rebuilt.problem.canonical_hash() == problem.canonical_hash()
    assert exact_problem_token(rebuilt.problem) == exact_problem_token(problem)
    assert rebuilt.problem.name == problem.name
    assert rebuilt.solver == request.solver
    assert rebuilt.time_budget_ms == request.time_budget_ms
    assert rebuilt.seed == request.seed
    assert rebuilt.job_id == request.job_id
    assert rebuilt.metadata == request.metadata
    assert rebuilt.cache_key() == request.cache_key()


def test_problem_from_arrays_reuses_columns() -> None:
    """The rebuilt problem memoises the transferred arrays — no rebuild.

    ``problem_from_arrays`` must seed the problem's ``_arrays`` memo with
    the transferred columns, so the first solver touch does not pay for
    re-deriving the columnar form the parent already shipped.
    """
    original = tiny_problem()
    arrays = build_problem_arrays(original)
    rebuilt = problem_from_arrays(arrays, name=original.name)
    assert rebuilt.arrays() is arrays
    assert rebuilt.canonical_hash() == original.canonical_hash()


def test_default_shard_count_positive() -> None:
    """Auto shard count is always at least one, whatever the host says."""
    assert default_shard_count() >= 1

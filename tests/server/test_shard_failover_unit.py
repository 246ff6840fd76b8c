"""Deterministic unit tests of ShardPool fail-over ownership and dispatch.

No real shard processes here: fake process/pipe objects stand in for the
children so the tests can drive ``_on_shard_exit``, ``_sender``,
``_dispatch`` and ``admit`` directly on an event loop and pin behaviour
the process-killing stress lane cannot reach deterministically:

* **Single-owner fail-over.**  When a shard dies with jobs still parked
  in its outbox/overflow (dispatched but never sent), those jobs are in
  ``shard.assigned`` *and* sitting in the sender's queues — two paths
  see them.  Exactly one may fail them over: a job retried twice gets
  two executions, and a job "failed" while its retry runs delivers a
  spurious error to a client whose real result is then dropped.
* **Drain-time retry.**  A retry decided against a draining queue must
  fail the job cleanly instead of parking it behind the stop sentinel
  (where it would never execute and hang its client).
* **Non-blocking dispatch.**  A full outbox parks jobs in the overflow
  deque instead of blocking the (single, shared) dispatcher, and the
  sender preserves dispatch order across the outbox/overflow boundary.
* **Backlog admission bound.**  Because dispatch never blocks, jobs
  leave the capacity-checked central queue immediately; ``admit`` must
  re-impose the global bound by counting the dispatched backlog.
"""

from __future__ import annotations

import asyncio
from multiprocessing import Pipe

import pytest

from repro.exceptions import AdmissionError
from repro.mqo.problem import MQOProblem
from repro.server.metrics import ServerMetrics
from repro.server.queue import JobQueue, ServerJob
from repro.server.sharding import _OUTBOX_CAPACITY, ShardPool, _Shard, recv_message, shard_for
from repro.server.streaming import StreamBroker
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest, SolveResult

from tests.server.conftest import tiny_problem


class FakeProcess:
    """Stands in for a shard process handle (already dead)."""

    def __init__(self, pid: int = 4242) -> None:
        self.pid = pid

    def is_alive(self) -> bool:
        return False

    def terminate(self) -> None:
        pass

    def kill(self) -> None:
        pass

    def join(self, timeout=None) -> None:
        pass


class FakeConn:
    """A pipe end that only needs to be closable (dead-shard tests)."""

    def close(self) -> None:
        pass


def make_pool(queue_capacity: int = 16) -> ShardPool:
    """A ShardPool whose process-spawning side is never started."""
    return ShardPool(
        frontend_factory=ServiceFrontend,
        queue=JobQueue(capacity=queue_capacity),
        broker=StreamBroker(),
        metrics=ServerMetrics(),
        num_shards=2,
    )


def fake_shard(index: int, conn=None) -> _Shard:
    return _Shard(index=index, process=FakeProcess(1000 + index), conn=conn or FakeConn())


def make_job(job_id: str, seed: int, problem: MQOProblem | None = None) -> ServerJob:
    """One server job; distinct seeds keep dedupe/coalesce keys distinct."""
    request = SolveRequest(
        problem=problem if problem is not None else tiny_problem(),
        solver="greedy",
        time_budget_ms=100.0,
        seed=seed,
        job_id=job_id,
    )
    return ServerJob(job_id=job_id, client_id="unit", request=request)


def problem_routed_to(slot: int, num_shards: int = 2) -> MQOProblem:
    """A problem whose canonical hash routes to shard ``slot``."""
    for bump in range(64):
        problem = MQOProblem(
            plans_per_query=[[2.0, 4.0 + bump], [3.0, 1.0]],
            savings={(1, 2): 0.5},
            name=f"routed-{bump}",
        )
        if shard_for(problem.canonical_hash(), num_shards) == slot:
            return problem
    raise AssertionError(f"no candidate problem routed to shard {slot}")


def drain_handoff(shard: _Shard) -> list:
    """Every (job, message) item queued for a shard's sender, in order."""
    items = []
    while not shard.outbox.empty():
        items.append(shard.outbox.get_nowait())
    items.extend(shard.overflow)
    return [item for item in items if item is not None]


class TestSingleOwnerFailover:
    def test_parked_jobs_fail_over_exactly_once(self):
        """A dead shard's outbox/overflow backlog is retried once, not twice.

        Regression test: the sender's dead-shard branch used to call
        ``_reassign_or_fail`` on parked jobs that ``_on_shard_exit`` had
        already reassigned; the second call saw ``retries == 1`` and
        delivered a spurious 'shard died' failure while the retried copy
        was still executing elsewhere.
        """

        async def scenario():
            pool = make_pool()
            pool._loop = asyncio.get_running_loop()
            victim, live = fake_shard(0), fake_shard(1)
            pool.shards = [victim, live]
            respawns = []
            pool._respawn = lambda shard: respawns.append(shard.index)

            # One job already sent into the (now dead) shard...
            executing = make_job("sj-exec", seed=1)
            victim.assigned[executing.job_id] = executing
            # ...plus a full outbox and one overflow item, none of it sent.
            parked = [make_job(f"sj-parked-{i}", seed=10 + i) for i in range(_OUTBOX_CAPACITY + 1)]
            for job in parked:
                victim.assigned[job.job_id] = job
                pool._outbox_put(victim, (job, ("job", job.job_id, {}, False)))
            assert len(victim.overflow) == 1  # outbox full, last one parked

            sender = asyncio.get_running_loop().create_task(pool._sender(victim))
            pool._on_shard_exit(victim)  # what the reader thread runs at pipe EOF
            await asyncio.wait_for(sender, timeout=5.0)

            jobs = [executing, *parked]
            # Nobody was spuriously failed: every job was retried, once.
            assert all(job.result is None for job in jobs)
            assert all(job.retries == 1 for job in jobs)
            assert pool.metrics.counter_value("jobs_retried") == len(jobs)
            assert pool.metrics.counter_value("jobs_finished") == 0
            # Each retried copy is owned by the live shard exactly once.
            assert set(live.assigned) == {job.job_id for job in jobs}
            handoff_ids = [job.job_id for job, _ in drain_handoff(live)]
            assert sorted(handoff_ids) == sorted(job.job_id for job in jobs)
            assert len(set(handoff_ids)) == len(jobs)
            assert respawns == [0]

        asyncio.run(scenario())

    def test_a_finished_job_is_never_failed_over(self):
        """A job leaves ``assigned`` before its result is published, so a
        later shard death neither retries nor re-finishes it: fail-over
        only meets unfinished jobs, never one whose request was released."""

        async def scenario():
            pool = make_pool()
            pool._loop = asyncio.get_running_loop()
            victim, live = fake_shard(0), fake_shard(1)
            pool.shards = [victim, live]
            pool._respawn = lambda shard: None

            done, running = make_job("sj-done", seed=1), make_job("sj-run", seed=2)
            for job in (done, running):
                victim.assigned[job.job_id] = job
            result = SolveResult(job_id="sj-done", solver="greedy", winner="greedy", best_cost=2.0)
            pool._on_message(victim, ("result", "sj-done", result.to_dict(), []))
            assert done.request is None and done.result.ok

            pool._on_shard_exit(victim)
            assert done.retries == 0 and done.result.ok
            assert running.retries == 1 and running.request is not None
            assert set(live.assigned) == {"sj-run"}
            assert pool.metrics.counter_value("jobs_finished") == 1

        asyncio.run(scenario())

    def test_second_shard_death_fails_jobs_cleanly(self):
        """After the single retry, a second death produces one clean error."""

        async def scenario():
            pool = make_pool()
            pool._loop = asyncio.get_running_loop()
            first, second = fake_shard(0), fake_shard(1)
            pool.shards = [first, second]
            pool._respawn = lambda shard: None

            job = make_job("sj-1", seed=1)
            first.assigned[job.job_id] = job
            pool._on_shard_exit(first)  # retried onto the second shard
            assert job.retries == 1 and job.result is None
            assert job.job_id in second.assigned

            pool._on_shard_exit(second)  # retry budget exhausted
            assert job.result is not None and not job.result.ok
            assert "shard 1" in job.result.error
            assert job.request is None  # released once the failure was published
            assert pool.metrics.counter_value("jobs_failed") == 1
            assert pool.metrics.counter_value("jobs_finished") == 1

        asyncio.run(scenario())


class TestDrainRetry:
    def test_retry_during_drain_fails_cleanly_instead_of_hanging(self):
        """A shard death while draining must not park a retry behind the
        stop sentinel — the job fails with a clean ServerError instead."""

        async def scenario():
            pool = make_pool()
            pool._loop = asyncio.get_running_loop()
            victim, live = fake_shard(0), fake_shard(1)
            pool.shards = [victim, live]
            respawns = []
            pool._respawn = lambda shard: respawns.append(shard.index)

            job = make_job("sj-1", seed=1)
            victim.assigned[job.job_id] = job
            pool.queue.drain()

            sender = asyncio.get_running_loop().create_task(pool._sender(victim))
            pool._on_shard_exit(victim)
            await asyncio.wait_for(sender, timeout=5.0)

            assert job.result is not None and not job.result.ok
            assert "ServerError" in job.result.error
            assert live.assigned == {}  # never re-dispatched
            assert respawns == []  # dead slots stay down during drain

        asyncio.run(scenario())


class TestNonBlockingDispatch:
    def test_full_outbox_parks_in_overflow_and_preserves_order(self):
        """Dispatch never blocks on a saturated shard, and the sender
        replays outbox-then-overflow in exact dispatch order."""

        async def scenario():
            pool = make_pool()
            pool._loop = asyncio.get_running_loop()
            conn_a, peer_a = Pipe()
            conn_b, peer_b = Pipe()
            pool.shards = [fake_shard(0, conn=conn_a), fake_shard(1, conn=conn_b)]

            hot = pool.shards[shard_for(tiny_problem().canonical_hash(), 2)]
            cold = pool.shards[1 - hot.index]
            hot_peer = peer_a if hot.index == 0 else peer_b

            jobs = [make_job(f"sj-{i}", seed=i) for i in range(_OUTBOX_CAPACITY + 3)]
            for job in jobs:
                pool._dispatch(job)  # synchronous: cannot block the loop
            assert hot.outbox.qsize() == _OUTBOX_CAPACITY
            assert len(hot.overflow) == 3

            # The saturated shard does not head-of-line block dispatch to
            # the other: a job for the cold shard still goes straight in.
            cold_job = make_job("sj-cold", seed=99, problem=problem_routed_to(cold.index))
            pool._dispatch(cold_job)
            assert cold.outbox.qsize() == 1
            assert cold_job.job_id in cold.assigned

            pool._outbox_put(hot, None)  # behind the whole backlog
            sender = asyncio.get_running_loop().create_task(pool._sender(hot))
            await asyncio.wait_for(sender, timeout=5.0)

            received = []
            while hot_peer.poll(0):
                received.append(recv_message(hot_peer))
            assert received[-1] == ("stop",)
            assert [message[1] for message in received[:-1]] == [job.job_id for job in jobs]

        asyncio.run(scenario())


class TestBacklogAdmission:
    def test_admit_rejects_once_dispatched_backlog_exceeds_bound(self):
        async def scenario():
            pool = make_pool(queue_capacity=4)
            pool._loop = asyncio.get_running_loop()
            shard_a, shard_b = fake_shard(0), fake_shard(1)
            pool.shards = [shard_a, shard_b]

            representative = make_job("sj-rep", seed=100)
            assert pool.admit(representative) == "queued"

            allowance = len(pool.shards) * (_OUTBOX_CAPACITY + 1)
            for i in range(pool.queue.capacity + allowance):
                filler = make_job(f"sj-fill-{i}", seed=200 + i)
                shard_a.assigned[filler.job_id] = filler

            with pytest.raises(AdmissionError) as excinfo:
                pool.admit(make_job("sj-over", seed=999))
            assert excinfo.value.code == "queue_full"

            # A coalescable duplicate adds no backlog and still folds
            # onto its in-flight representative.
            duplicate = make_job("sj-dup", seed=100)
            assert pool.admit(duplicate) == "coalesced"
            assert duplicate.coalesced_with == representative.job_id

        asyncio.run(scenario())

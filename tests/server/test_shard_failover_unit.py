"""Deterministic unit tests of shard fail-over ownership.

No real shard processes here: each fake shard is the parent end of a
real pipe whose other end the test reads and answers, so the tests
drive :meth:`WorkerPool._run`, the shard reader and its exit handling on
an event loop and pin behaviour the process-killing stress lane cannot
reach deterministically:

* **Single-owner fail-over.**  When a shard dies with several units in
  flight, the reader fails each unit's future once and only the
  coroutine awaiting that unit decides its fate: a job retried twice
  gets two executions, and a job "failed" while its retry runs delivers
  a spurious error to a client whose real result is then dropped.
* **Finished jobs stay finished.**  A unit the shard answered before it
  died is neither retried nor finished again.
* **Drain-time retry.**  A shard death while the server drains fails the
  job cleanly instead of queueing it again, and the dead slot stays down.
"""

from __future__ import annotations

import asyncio
import threading
from multiprocessing import Pipe

from repro.server.metrics import ServerMetrics
from repro.server.queue import JobQueue, ServerJob
from repro.server.sharding import _Shard, recv_message, send_message
from repro.server.streaming import StreamBroker
from repro.server.workers import WorkerPool, _Unit
from repro.service.frontend import ServiceFrontend
from repro.service.jobs import SolveRequest, SolveResult

from tests.server.conftest import tiny_problem


class FakeProcess:
    """Stands in for a shard process handle."""

    def __init__(self, pid: int) -> None:
        self.pid = pid

    def is_alive(self) -> bool:
        return False


class ShardStub:
    """One fake shard: the test reads its ``run`` frames and answers them."""

    def __init__(self, pool: WorkerPool, index: int) -> None:
        conn, self.peer = Pipe()
        self.shard = _Shard(index=index, process=FakeProcess(1000 + index), conn=conn)
        pool.shards.shards[index] = self.shard
        threading.Thread(target=pool.shards._reader, args=(self.shard,), daemon=True).start()

    async def receive(self) -> tuple:
        """The next frame the pool sent to this shard."""
        return await asyncio.to_thread(recv_message, self.peer)

    def answer(self, message: tuple) -> None:
        """Answer one ``run`` frame with a successful result per request."""
        _, unit_id, job_id, payloads, _, _ = message
        results = [
            SolveResult(job_id=job_id, solver="greedy", winner="greedy", best_cost=2.0).to_dict()
            for _ in payloads
        ]
        send_message(self.peer, ("result", unit_id, results, []))

    def kill(self) -> None:
        """The shard dies: its pipe end closes, the reader sees EOF."""
        self.peer.close()


def make_pool(respawns: list) -> WorkerPool:
    """A two-shard pool whose processes are never started; respawns are recorded."""
    pool = WorkerPool(
        frontend=ServiceFrontend(),
        queue=JobQueue(capacity=16),
        broker=StreamBroker(),
        metrics=ServerMetrics(),
        num_workers=3,
        num_shards=2,
    )
    pool._loop = pool.shards._loop = asyncio.get_running_loop()
    pool.shards.shards = [None, None]
    replacements = []  # kept alive: a dropped stub's pipe closes, a death

    def respawn(slot: int) -> _Shard:
        respawns.append(slot)
        replacements.append(ShardStub(pool, slot))
        return replacements[-1].shard

    pool.shards._spawn = respawn
    return pool


def make_job(job_id: str, seed: int) -> ServerJob:
    """One server job; distinct seeds keep dedupe/coalesce keys distinct."""
    request = SolveRequest(
        problem=tiny_problem(),
        solver="greedy",
        time_budget_ms=100.0,
        seed=seed,
        job_id=job_id,
    )
    return ServerJob(job_id=job_id, client_id="unit", request=request)


async def start_units(pool: WorkerPool, stub: ShardStub, jobs: list) -> tuple:
    """Run one solo unit per job on ``stub``'s shard; return the tasks and frames."""
    loop = asyncio.get_running_loop()
    tasks = [loop.create_task(pool._run(_Unit([job], fused=False), stub.shard.index)) for job in jobs]
    frames = [await stub.receive() for _ in jobs]
    return tasks, frames


async def queued_units(queue: JobQueue) -> list:
    """Every unit waiting at the queue's front, in order."""
    units = []
    while queue._front:
        units.append(await queue.get())
    return units


class TestSingleOwnerFailover:
    def test_parked_jobs_fail_over_exactly_once(self):
        """The units parked in a dead shard are each retried once, not
        twice, and each retried copy reaches the live shard exactly once."""

        async def scenario():
            respawns = []
            pool = make_pool(respawns)
            victim, live = ShardStub(pool, 0), ShardStub(pool, 1)

            jobs = [make_job(f"sj-{i}", seed=10 + i) for i in range(3)]
            tasks, _ = await start_units(pool, victim, jobs)
            assert victim.shard.assigned == 3
            victim.kill()
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)

            # Nobody was spuriously failed: every job was retried, once.
            assert all(job.result is None for job in jobs)
            assert all(job.retries == 1 for job in jobs)
            assert pool.metrics.counter_value("jobs_retried") == len(jobs)
            assert pool.metrics.counter_value("jobs_finished") == 0
            assert respawns == [0]

            # Each retried copy is owned by the live shard exactly once.
            units = await queued_units(pool.queue)
            assert sorted(job.job_id for unit in units for job in unit.jobs) == sorted(
                job.job_id for job in jobs
            )
            loop = asyncio.get_running_loop()
            reruns = [loop.create_task(pool._run(unit, 1)) for unit in units]
            frames = [await live.receive() for _ in units]
            assert sorted(frame[2] for frame in frames) == sorted(job.job_id for job in jobs)
            for frame in frames:
                live.answer(frame)
            await asyncio.wait_for(asyncio.gather(*reruns), timeout=5.0)
            assert all(job.result.ok for job in jobs)
            assert pool.metrics.counter_value("jobs_finished") == len(jobs)
            live.kill()

        asyncio.run(scenario())

    def test_a_finished_job_is_never_failed_over(self):
        """A unit leaves the shard's pending map before its result is
        published, so a later shard death neither retries nor re-finishes
        it: fail-over only meets unfinished jobs, never one whose request
        was released."""

        async def scenario():
            pool = make_pool([])
            victim = ShardStub(pool, 0)
            live = ShardStub(pool, 1)  # noqa: F841 — a dropped stub's pipe closes

            done, running = make_job("sj-done", seed=1), make_job("sj-run", seed=2)
            tasks, frames = await start_units(pool, victim, [done, running])
            victim.answer(next(frame for frame in frames if frame[2] == "sj-done"))
            await asyncio.wait_for(tasks[0], timeout=5.0)
            assert done.request is None and done.result.ok

            victim.kill()
            await asyncio.wait_for(tasks[1], timeout=5.0)
            assert done.retries == 0 and done.result.ok
            assert running.retries == 1 and running.request is not None
            units = await queued_units(pool.queue)
            assert [job.job_id for unit in units for job in unit.jobs] == ["sj-run"]
            assert pool.metrics.counter_value("jobs_finished") == 1

        asyncio.run(scenario())

    def test_second_shard_death_fails_jobs_cleanly(self):
        """After the single retry, a second death produces one clean error."""

        async def scenario():
            pool = make_pool([])
            first, second = ShardStub(pool, 0), ShardStub(pool, 1)

            job = make_job("sj-1", seed=1)
            (task,), _ = await start_units(pool, first, [job])
            first.kill()
            await asyncio.wait_for(task, timeout=5.0)
            assert job.retries == 1 and job.result is None
            (unit,) = await queued_units(pool.queue)

            rerun = asyncio.get_running_loop().create_task(pool._run(unit, 1))
            await second.receive()
            second.kill()  # retry budget exhausted
            await asyncio.wait_for(rerun, timeout=5.0)
            assert job.result is not None and not job.result.ok
            assert "shard 1" in job.result.error
            assert job.request is None  # released once the failure was published
            assert pool.metrics.counter_value("jobs_failed") == 1
            assert pool.metrics.counter_value("jobs_finished") == 1

        asyncio.run(scenario())


class TestDrainRetry:
    def test_retry_during_drain_fails_cleanly_instead_of_hanging(self):
        """A shard death while draining fails the job with a clean
        ServerError instead of queueing it again."""

        async def scenario():
            respawns = []
            pool = make_pool(respawns)
            victim = ShardStub(pool, 0)
            live = ShardStub(pool, 1)  # noqa: F841 — a dropped stub's pipe closes

            job = make_job("sj-1", seed=1)
            (task,), _ = await start_units(pool, victim, [job])
            pool.queue.drain()
            victim.kill()
            await asyncio.wait_for(task, timeout=5.0)

            assert job.result is not None and not job.result.ok
            assert "ServerError" in job.result.error
            assert await pool.queue.get() is None  # never queued again
            assert respawns == []  # dead slots stay down during drain

        asyncio.run(scenario())

"""Worker-pool tests: coalescing, error capture, metrics accounting.

These run the pool against a stub frontend inside a private event loop,
so they are fast and fully deterministic — the socket layer is covered
by the end-to-end tests.
"""

import asyncio
import time

import pytest

from repro.core.decomposition import current_progress_observers
from repro.exceptions import AdmissionError
from repro.server.metrics import ServerMetrics
from repro.server.queue import JobQueue, ServerJob
from repro.server.streaming import StreamBroker
from repro.server.workers import WorkerPool
from repro.service.jobs import SolveRequest, SolveResult

from tests.server.conftest import tiny_problem


class StubFrontend:
    """Frontend double: records calls, optionally sleeps or fails."""

    def __init__(self, delay_s: float = 0.0, fail: bool = False):
        self.delay_s = delay_s
        self.fail = fail
        self.calls = []

    def submit(self, request: SolveRequest) -> SolveResult:
        self.calls.append(request)
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.fail:
            raise RuntimeError("stub frontend exploded")
        return SolveResult(
            job_id=request.job_id,
            solver=request.solver,
            winner="STUB",
            best_cost=1.0,
            selected_plans=[0, 2],
            is_valid=True,
            trajectory=[(0.5, 1.0)],
            total_time_ms=1.0,
            time_budget_ms=request.time_budget_ms,
            seed=request.seed,
            metadata=dict(request.metadata),
        )


def _job(job_id: str, seed: int = 1, client: str = "c") -> ServerJob:
    return ServerJob(
        job_id=job_id,
        client_id=client,
        request=SolveRequest(
            problem=tiny_problem("workers-test"),
            solver="STUB",
            seed=seed,
            job_id=job_id,
        ),
    )


def _run_pool(frontend, jobs, num_workers=1, timeout_s=5.0):
    """Admit ``jobs``, run the pool to completion, return delivered frames."""

    async def scenario():
        queue = JobQueue(capacity=32)
        broker = StreamBroker()
        metrics = ServerMetrics()
        pool = WorkerPool(
            frontend=frontend,
            queue=queue,
            broker=broker,
            metrics=metrics,
            num_workers=num_workers,
        )
        delivered = {}
        statuses = {}
        for job in jobs:
            broker.open(job.job_id)
            broker.subscribe(
                job.job_id,
                (lambda jid: lambda frame: delivered.setdefault(jid, []).append(frame))(
                    job.job_id
                ),
                updates=False,
            )
            statuses[job.job_id] = pool.admit(job)
        pool.start()
        deadline = time.monotonic() + timeout_s
        while len(delivered) < len(jobs) and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        queue.drain()
        await pool.join()
        pool.shutdown_executor()
        return delivered, statuses, metrics

    return asyncio.run(scenario())


class TestCoalescing:
    def test_identical_inflight_jobs_run_once(self):
        frontend = StubFrontend(delay_s=0.05)
        jobs = [_job("rep", seed=7), _job("twin", seed=7)]
        delivered, statuses, metrics = _run_pool(frontend, jobs, num_workers=1)
        assert statuses == {"rep": "queued", "twin": "coalesced"}
        assert len(frontend.calls) == 1  # one execution served both
        assert metrics.counter_value("jobs_coalesced") == 1
        assert metrics.counter_value("jobs_submitted") == 2
        assert metrics.counter_value("jobs_completed") == 2

    def test_follower_result_is_marked_from_cache(self):
        frontend = StubFrontend()
        jobs = [_job("rep", seed=7), _job("twin", seed=7)]
        delivered, _, _ = _run_pool(frontend, jobs, num_workers=1)
        rep = SolveResult.from_dict(delivered["rep"][0]["result"])
        twin = SolveResult.from_dict(delivered["twin"][0]["result"])
        assert not rep.from_cache
        assert twin.from_cache
        assert twin.job_id == "twin"  # identity echoes the twin, not the rep
        assert twin.best_cost == rep.best_cost

    def test_different_seeds_are_not_coalesced(self):
        frontend = StubFrontend()
        jobs = [_job("a", seed=1), _job("b", seed=2)]
        _, statuses, metrics = _run_pool(frontend, jobs, num_workers=1)
        assert statuses == {"a": "queued", "b": "queued"}
        assert len(frontend.calls) == 2
        assert metrics.counter_value("jobs_coalesced") == 0

    def test_followers_rejected_while_draining(self):
        async def scenario():
            queue = JobQueue(capacity=8)
            broker = StreamBroker()
            pool = WorkerPool(
                frontend=StubFrontend(),
                queue=queue,
                broker=broker,
                metrics=ServerMetrics(),
                num_workers=1,
            )
            rep = _job("rep", seed=7)
            broker.open(rep.job_id)
            pool.admit(rep)  # queued, never executed (pool not started)
            queue.drain()
            with pytest.raises(AdmissionError) as excinfo:
                pool.admit(_job("twin", seed=7))
            pool.shutdown_executor()
            return excinfo.value.code

        # A duplicate must not slip past the drain via the coalesce path.
        assert asyncio.run(scenario()) == "draining"

    def test_followers_per_representative_are_bounded(self):
        async def scenario():
            queue = JobQueue(capacity=2)
            broker = StreamBroker()
            pool = WorkerPool(
                frontend=StubFrontend(),
                queue=queue,
                broker=broker,
                metrics=ServerMetrics(),
                num_workers=1,
            )
            rep = _job("rep", seed=7)
            broker.open(rep.job_id)
            pool.admit(rep)
            assert pool.admit(_job("t1", seed=7)) == "coalesced"
            assert pool.admit(_job("t2", seed=7)) == "coalesced"
            with pytest.raises(AdmissionError) as excinfo:
                pool.admit(_job("t3", seed=7))  # beyond queue capacity
            pool.shutdown_executor()
            return excinfo.value.code

        assert asyncio.run(scenario()) == "queue_full"

    def test_urgent_follower_promotes_queued_representative(self):
        async def scenario():
            queue = JobQueue(capacity=8)
            broker = StreamBroker()
            pool = WorkerPool(
                frontend=StubFrontend(),
                queue=queue,
                broker=broker,
                metrics=ServerMetrics(),
                num_workers=1,
            )
            filler = _job("filler", seed=1)  # normal priority
            rep = _job("rep", seed=7)
            rep.priority = 2  # low
            for job in (filler, rep):
                broker.open(job.job_id)
                pool.admit(job)
            twin = _job("twin", seed=7)
            twin.priority = 0  # high — must not wait behind the backlog
            broker.open(twin.job_id)
            assert pool.admit(twin) == "coalesced"
            order = [(await queue.get()).job_id for _ in range(2)]
            pool.shutdown_executor()
            return rep.priority, order

        priority, order = asyncio.run(scenario())
        assert priority == 0  # representative inherited the urgency
        assert order == ["rep", "filler"]

    def test_key_is_freed_after_completion(self):
        frontend = StubFrontend()
        first, _, _ = _run_pool(frontend, [_job("a", seed=7)], num_workers=1)
        assert len(frontend.calls) == 1
        # A fresh pool run with the same request executes again — the
        # coalesce map tracks *in-flight* jobs, it is not a result cache.
        second, _, _ = _run_pool(frontend, [_job("b", seed=7)], num_workers=1)
        assert len(frontend.calls) == 2


class TestFailureHandling:
    def test_executor_failure_becomes_error_result(self):
        frontend = StubFrontend(fail=True)
        delivered, _, metrics = _run_pool(frontend, [_job("a")], num_workers=1)
        result = SolveResult.from_dict(delivered["a"][0]["result"])
        assert not result.ok
        assert "RuntimeError" in result.error
        assert metrics.counter_value("jobs_failed") == 1

    def test_follower_of_failed_job_gets_the_error(self):
        frontend = StubFrontend(fail=True)
        jobs = [_job("rep", seed=7), _job("twin", seed=7)]
        delivered, _, metrics = _run_pool(frontend, jobs, num_workers=1)
        twin = SolveResult.from_dict(delivered["twin"][0]["result"])
        assert not twin.ok
        assert "RuntimeError" in twin.error
        assert metrics.counter_value("jobs_failed") == 2


class TestProgressForwarding:
    def test_decomposition_progress_streams_as_progress_frames(self):
        class ProgressingFrontend(StubFrontend):
            """Double for a decomposed solve: reports cluster completions."""

            def submit(self, request: SolveRequest) -> SolveResult:
                for completed in range(1, 4):
                    for observer in current_progress_observers():
                        observer("decomposed_qa", completed, 3)
                return super().submit(request)

        async def scenario():
            queue = JobQueue(capacity=8)
            broker = StreamBroker()
            metrics = ServerMetrics()
            frontend = ProgressingFrontend()
            pool = WorkerPool(
                frontend=frontend, queue=queue, broker=broker, metrics=metrics, num_workers=1
            )
            job = _job("decomp")
            frames = []
            broker.open(job.job_id)
            broker.subscribe(job.job_id, frames.append, updates=True)
            pool.admit(job)
            pool.start()
            deadline = time.monotonic() + 5.0
            while not any(f["type"] == "result" for f in frames):
                if time.monotonic() > deadline:
                    raise AssertionError("job never completed")
                await asyncio.sleep(0.01)
            queue.drain()
            await pool.join()
            pool.shutdown_executor()
            return frames

        frames = asyncio.run(scenario())
        progress = [f for f in frames if f["type"] == "progress"]
        assert [(f["completed"], f["total"]) for f in progress] == [(1, 3), (2, 3), (3, 3)]
        assert all(f["solver"] == "decomposed_qa" for f in progress)
        assert frames[-1]["type"] == "result"


class TestLateFollowerAccounting:
    def test_follower_admitted_mid_run_has_non_negative_queue_wait(self):
        async def scenario():
            queue = JobQueue(capacity=8)
            broker = StreamBroker()
            metrics = ServerMetrics()
            frontend = StubFrontend(delay_s=0.15)
            pool = WorkerPool(
                frontend=frontend, queue=queue, broker=broker, metrics=metrics, num_workers=1
            )
            rep = _job("rep", seed=7)
            broker.open(rep.job_id)
            pool.admit(rep)
            pool.start()
            deadline = time.monotonic() + 5.0
            while not frontend.calls and time.monotonic() < deadline:
                await asyncio.sleep(0.005)
            assert frontend.calls  # the representative is now running
            twin = _job("twin", seed=7)
            broker.open(twin.job_id)
            assert pool.admit(twin) == "coalesced"
            queue.drain()
            await pool.join()
            pool.shutdown_executor()
            return twin, metrics

        twin, metrics = asyncio.run(scenario())
        # The twin joined mid-run; its queue wait is measured from its own
        # admission and must never go negative (it feeds the p50 stats).
        assert twin.queue_wait_ms() >= 0.0
        snapshot = metrics.snapshot()
        assert snapshot["queue_wait"]["p50_ms"] >= 0.0
        assert snapshot["queue_wait"]["count"] == 2


class TestMetricsAccounting:
    def test_queue_wait_and_run_time_observed(self):
        frontend = StubFrontend(delay_s=0.03)
        _, _, metrics = _run_pool(frontend, [_job("a")], num_workers=1)
        snapshot = metrics.snapshot(queue_depth=0, inflight=0)
        assert snapshot["counters"]["jobs_completed"] == 1
        assert snapshot["job_run"]["count"] == 1
        assert snapshot["job_run"]["max_ms"] >= 25.0  # the stub slept 30 ms
        assert snapshot["jobs_per_second"] > 0

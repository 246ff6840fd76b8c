"""Stream broker and anytime-observer tests.

Covers the two halves of live streaming: the thread-local observer hook
in :mod:`repro.baselines.anytime` (including propagation into portfolio
member threads) and the :class:`StreamBroker` fan-out with its monotone
incumbent filter; plus ``progress`` frames reaching a live client on the
thread and shard tiers.
"""

import threading

import pytest

from repro.baselines.anytime import (
    TrajectoryRecorder,
    current_improvement_observers,
    observe_improvements,
)
from repro.server.app import ServerConfig
from repro.server.client import SolverClient
from repro.server.streaming import StreamBroker
from repro.service.portfolio import PortfolioScheduler
from repro.service.registry import SolverRegistry

from tests.server.conftest import SteppingSolver, solution_ranking, tiny_problem


class TestImprovementObservers:
    def test_record_notifies_installed_observer(self):
        events = []
        recorder = TrajectoryRecorder("T")
        ranking = solution_ranking(tiny_problem())
        with observe_improvements(lambda name, t, cost: events.append((name, cost))):
            for solution in ranking:
                recorder.record(solution)
            # Re-recording the final (non-improving) incumbent is silent.
            recorder.record(ranking[-1])
        assert [name for name, _ in events] == ["T"] * len(ranking)
        assert [cost for _, cost in events] == [s.cost for s in ranking]

    def test_observers_nest_and_restore(self):
        outer, inner = [], []
        recorder = TrajectoryRecorder("T")
        ranking = solution_ranking(tiny_problem())
        with observe_improvements(lambda *event: outer.append(event)):
            with observe_improvements(lambda *event: inner.append(event)):
                recorder.record(ranking[0])
            recorder.record(ranking[1])
        recorder.record(ranking[2])
        assert len(inner) == 1  # only while the inner context was active
        assert len(outer) == 2  # restored after the inner context exited
        assert current_improvement_observers() == ()

    def test_observers_are_thread_local(self):
        events = []
        ranking = solution_ranking(tiny_problem())

        def other_thread():
            TrajectoryRecorder("OTHER").record(ranking[0])

        with observe_improvements(lambda *event: events.append(event)):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert events == []  # the observer was installed on *this* thread

    def test_observer_exceptions_are_swallowed(self):
        def bad_observer(name, t, cost):
            raise RuntimeError("listener bug")

        recorder = TrajectoryRecorder("T")
        with observe_improvements(bad_observer):
            assert recorder.record(solution_ranking(tiny_problem())[0])

    def test_portfolio_propagates_observers_into_member_threads(self):
        registry = SolverRegistry()
        registry.register("STEP-A", lambda: SteppingSolver(step_ms=1.0))
        registry.register("STEP-B", lambda: SteppingSolver(step_ms=1.0))
        scheduler = PortfolioScheduler(registry=registry)
        events = []
        with observe_improvements(lambda name, t, cost: events.append(cost)):
            outcome = scheduler.solve(tiny_problem(), time_budget_ms=500.0, seed=1)
        assert outcome.winner
        # Both members ran on pool threads, yet their improvements were
        # forwarded to the caller's observer.
        assert len(events) == 2 * len(solution_ranking(tiny_problem()))


class TestStreamBroker:
    def test_publish_requires_open_channel(self):
        broker = StreamBroker()
        assert not broker.publish_improvement("nope", "S", 1.0, 10.0)

    def test_monotone_filter_and_sequence(self):
        broker = StreamBroker()
        broker.open("j")
        frames = []
        assert broker.subscribe("j", frames.append)
        assert broker.publish_improvement("j", "A", 1.0, 10.0)
        assert not broker.publish_improvement("j", "B", 2.0, 11.0)  # worse
        assert not broker.publish_improvement("j", "B", 3.0, 10.0)  # equal
        assert broker.publish_improvement("j", "B", 4.0, 5.0)
        assert [frame["seq"] for frame in frames] == [1, 2]
        assert [frame["cost"] for frame in frames] == [10.0, 5.0]
        assert [frame["solver"] for frame in frames] == ["A", "B"]

    def test_close_reaches_update_and_result_sinks(self):
        broker = StreamBroker()
        broker.open("j")
        update_frames, result_frames = [], []
        broker.subscribe("j", update_frames.append, updates=True)
        broker.subscribe("j", result_frames.append, updates=False)
        broker.publish_improvement("j", "A", 1.0, 10.0)
        delivered = broker.close("j", {"type": "result", "job_id": "j", "result": {}})
        assert delivered == 2
        assert [frame["type"] for frame in update_frames] == ["update", "result"]
        assert [frame["type"] for frame in result_frames] == ["result"]
        # Closed channels are gone: further publishes and subscribes fail.
        assert not broker.publish_improvement("j", "A", 2.0, 1.0)
        assert not broker.subscribe("j", update_frames.append)
        assert len(broker) == 0

    def test_subscribe_unknown_job_returns_false(self):
        assert not StreamBroker().subscribe("ghost", lambda frame: None)

    def test_discard_drops_without_delivery(self):
        broker = StreamBroker()
        broker.open("j")
        frames = []
        broker.subscribe("j", frames.append)
        broker.discard("j")
        assert broker.close("j", {"type": "result"}) == 0
        assert frames == []

    def test_streamed_metric_hook_counts_deliveries(self):
        counts = []
        broker = StreamBroker(on_update_streamed=counts.append)
        broker.open("j")
        broker.subscribe("j", lambda frame: None)
        broker.subscribe("j", lambda frame: None)
        broker.publish_improvement("j", "A", 1.0, 10.0)
        broker.open("lonely")  # no sinks: improvement filtered from metrics
        broker.publish_improvement("lonely", "A", 1.0, 10.0)
        assert counts == [2]

    def test_dead_sink_does_not_stop_fanout(self):
        broker = StreamBroker()
        broker.open("j")
        healthy = []

        def dead_sink(frame):
            raise ConnectionError("client went away")

        broker.subscribe("j", dead_sink)
        broker.subscribe("j", healthy.append)
        assert broker.publish_improvement("j", "A", 1.0, 10.0)
        assert len(healthy) == 1


class TestProgressFrames:
    def test_progress_requires_open_channel(self):
        assert not StreamBroker().publish_progress("nope", "D", 1, 3)

    def test_progress_frames_share_the_sequence_counter(self):
        broker = StreamBroker()
        broker.open("j")
        frames = []
        broker.subscribe("j", frames.append)
        assert broker.publish_progress("j", "decomposed_qa", 1, 3)
        assert broker.publish_improvement("j", "decomposed_qa", 1.0, 10.0)
        assert broker.publish_progress("j", "decomposed_qa", 2, 3)
        # Unlike improvements, every completion is news — no incumbent filter.
        assert broker.publish_progress("j", "decomposed_qa", 3, 3)
        assert [frame["seq"] for frame in frames] == [1, 2, 3, 4]
        assert [frame["type"] for frame in frames] == [
            "progress",
            "update",
            "progress",
            "progress",
        ]
        progress = [f for f in frames if f["type"] == "progress"]
        assert [(f["completed"], f["total"]) for f in progress] == [(1, 3), (2, 3), (3, 3)]
        assert all(f["solver"] == "decomposed_qa" for f in progress)

    @pytest.mark.parametrize(
        "config",
        [ServerConfig(workers=1), ServerConfig(shards=2, shard_heartbeat_s=0.2)],
        ids=["threads", "shards"],
    )
    def test_progress_frames_reach_the_client(self, server_factory, config):
        handle = server_factory(config)
        frames = []
        with SolverClient(port=handle.port) as client:
            result = client.solve(
                tiny_problem(), solver="PROGRESS", budget_ms=1000.0, on_update=frames.append
            )
        assert result.ok
        progress = [frame for frame in frames if frame["type"] == "progress"]
        assert [(f["completed"], f["total"]) for f in progress] == [(1, 3), (2, 3), (3, 3)]
        assert all(f["solver"] == "PROGRESS" for f in progress)
        assert [frame["type"] for frame in frames].count("update") == 3
        assert [frame["seq"] for frame in frames] == list(range(1, len(frames) + 1))

    def test_progress_counts_streamed_deliveries(self):
        counts = []
        broker = StreamBroker(on_update_streamed=counts.append)
        broker.open("j")
        broker.subscribe("j", lambda frame: None)
        broker.publish_progress("j", "D", 1, 2)
        assert counts == [1]

"""repro.server — the async solver server in front of the service layer.

PR 1 made the reproduction batchable (:mod:`repro.service`), PR 2 made
it fast (:mod:`repro.annealer`); this package makes it *servable*: a
long-running asyncio TCP server with a stable wire protocol, so many
clients can share one warm process (caches, prepared pipelines, a
bounded worker pool) instead of paying cold-start per invocation.

* :mod:`repro.server.protocol` — newline-delimited JSON frames: ops,
  priorities, response types, size limits,
* :mod:`repro.server.queue` — priority job queue with round-robin
  per-client fairness and bounded admission control (backpressure),
* :mod:`repro.server.workers` — the worker pool: slots that pull jobs
  and fusion windows off the queue into
  :class:`~repro.service.frontend.ServiceFrontend`, coalescing
  duplicate in-flight requests by cache key,
* :mod:`repro.server.sharding` — the shard processes some slots live
  in: zero-copy column handoff, respawn, heartbeats (see
  ``docs/server.md``),
* :mod:`repro.server.streaming` — fan-out of incremental anytime
  updates to subscribed clients while jobs run,
* :mod:`repro.server.metrics` — the one registry of server counts and
  latencies behind the ``stats`` and ``metrics`` requests,
* :mod:`repro.server.app` — :class:`SolverServer` (connections,
  dispatch, graceful drain) and :func:`run_server_in_thread`,
* :mod:`repro.server.client` — :class:`SolverClient`, the blocking
  Python client,
* :mod:`repro.server.readiness` — :func:`wait_for_server`, the
  poll-until-ping readiness probe shared by CI and the test fixtures.

Quick start::

    from repro.server import ServerConfig, SolverClient, run_server_in_thread

    handle = run_server_in_thread(ServerConfig(port=0, workers=2))
    with SolverClient(port=handle.port) as client:
        result = client.solve({"queries": 8, "plans": 2, "seed": 1},
                              solver="CLIMB", budget_ms=100.0)
        print(result.winner, result.best_cost)
    handle.stop()

Or from a shell: ``repro-mqo serve`` / ``repro-mqo submit``.
"""

from repro.server.app import ServerConfig, ServerHandle, SolverServer, run_server_in_thread
# NOTE: repro.server.readiness is deliberately NOT imported here: it is
# run as `python -m repro.server.readiness` (the CI readiness poll), and
# importing it from the package __init__ would trigger Python's
# found-in-sys.modules RuntimeWarning on every such invocation.  Import
# it directly: `from repro.server.readiness import wait_for_server`.
from repro.server.client import SolverClient
from repro.server.metrics import ServerMetrics
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PRIORITIES,
    PROTOCOL_VERSION,
    REQUEST_OPS,
    decode_frame,
    encode_frame,
)
from repro.server.queue import FairScheduler, JobQueue, ServerJob
from repro.server.sharding import default_shard_count
from repro.server.streaming import StreamBroker
from repro.server.workers import WorkerPool

__all__ = [
    "ServerConfig",
    "SolverServer",
    "ServerHandle",
    "run_server_in_thread",
    "SolverClient",
    "ServerMetrics",
    "FairScheduler",
    "JobQueue",
    "ServerJob",
    "StreamBroker",
    "WorkerPool",
    "default_shard_count",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "REQUEST_OPS",
    "PRIORITIES",
    "encode_frame",
    "decode_frame",
]

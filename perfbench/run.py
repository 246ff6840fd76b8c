"""The repository's benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-classes --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with the tracer off and no
wrappers installed.  ``--trace 1`` runs the workload twice on the same
inputs — once untraced, once with timing spans around each layer's
public functions — and reports the per-layer split, the tracing overhead
and the share of time no layer span covers.  Metric names, units and
directions come from ``BENCHMARK.json``; workload parameters from
``perfbench/spec.json``.

Every result is checked: its selection must pick one plan per query and
cost what it claims.  After the timed window, a QA workload solves a
fixed prefix of its jobs again from cold caches; the digest of the
replayed selections must equal that of the timed ones.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = BENCH_DIR / ".state"


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _p(values: List[float], q: float) -> float:
    from repro.obs.metrics import percentile

    return percentile(values, q) if values else 0.0


def _check(records) -> int:
    """Check every record; returns the number that failed."""
    return sum(not record.check() for record in records)


def _digest(results) -> str:
    payload = json.dumps(
        [[sorted(r["selected_plans"]), r["best_cost"]] if r else None for r in results]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _digest_check(workload, params: Dict, run) -> int:
    """Replay the run's fixed QA prefix; every job of it fails on a mismatch."""
    if params["solver"] != "QA":
        return 0
    records = run.records[: params["digest_jobs"]]
    timed = _digest([record.result if record.ok else None for record in records])
    replayed = _digest(workload.replay(records))
    matched = timed == replayed
    print(
        f"qa-digest jobs={len(records)} timed={timed} replayed={replayed} "
        f"{'match' if matched else 'MISMATCH'}",
        file=sys.stderr,
    )
    return 0 if matched else sum(record.ok for record in records)


def _cost_ratio(ok) -> float:
    """Summed cost over summed GREEDY cost, each job's reference made positive.

    A job whose GREEDY cost ``g`` is negative counts as ``cost - 2g``
    against a reference of ``|g|``, so it reads 1.0 at parity with
    GREEDY, like a job with a positive ``g``.  With positive GREEDY
    costs this is plainly ``sum(cost) / sum(g)``.
    """
    cost = sum(r.result["best_cost"] - r.greedy + abs(r.greedy) for r in ok)
    return cost / sum(abs(r.greedy) for r in ok)


def _faster_quartile(values: List[float], higher_is_faster: bool) -> float:
    """The quartile of ``values`` on the faster side (median if too few)."""
    if len(values) < 4:
        return statistics.median(values)
    lower, _, upper = statistics.quantiles(values, n=4)
    return upper if higher_is_faster else lower


def end_to_end(run, setup_times: List[float]) -> Dict[str, float]:
    """The user-visible metrics of one untraced timed window.

    Throughput and latency percentiles are taken per block of jobs and
    reported at the faster quartile of the blocks.  The host these bounds
    were tuned on flips between two speeds about 1.5x apart for seconds
    to minutes at a time; a slow stretch then moves these metrics only if
    it covers more than three quarters of the run, while a change to the
    program moves every block.
    """
    ok = [record for record in run.records if record.ok]
    blocks = [([r.latency_ms for r in records if r.ok], wall_s)
              for records, wall_s in run.block_records()]
    print("blocks (jobs/s, p50 ms, p90 ms): " + " ".join(
        f"({len(lat) / wall_s:.3g}, {_p(lat, 0.5):.4g}, {_p(lat, 0.9):.4g})"
        for lat, wall_s in blocks), file=sys.stderr)
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": _faster_quartile([len(lat) / wall_s for lat, wall_s in blocks], True),
        "latency_p50_ms": _faster_quartile([_p(lat, 0.50) for lat, _ in blocks], False),
        "latency_p90_ms": _faster_quartile([_p(lat, 0.90) for lat, _ in blocks], False),
        "ok_share": len(ok) / len(run.records),
        "cost_vs_greedy": _cost_ratio(ok) if ok else math.inf,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced, spans, epoch_offset, layer_names) -> Dict[str, float]:
    """The per-layer split of the traced pass plus the untraced pass's waits."""
    from perfbench.tracing import coverage, layer_split

    jobs = len(traced.records)
    totals, unmapped = layer_split(spans)
    if unmapped:
        print(f"spans with no layer: {unmapped}", file=sys.stderr)
    metrics = {name: total / jobs for name, total in totals.items()}

    def spans_named(name):
        return [span for span in spans if span.name == name]

    programs = spans_named("annealer.program")
    reads = sum(span.attributes["reads"] for span in programs)
    updates = sum(span.attributes["spin_updates"] for span in programs)
    decodes = spans_named("mqo.decode")
    physical = spans_named("core.physical_map")
    climbs = spans_named("baselines.solve")
    ok = [record for record in untraced.records if record.ok]
    server = untraced.server
    metrics.update(
        {
            "annealer.reads": reads / jobs,
            "annealer.spin_updates": updates / jobs,
            "annealer.ns_per_spin_update": (
                totals.get("annealer.sweep_ms", 0.0) * 1e6 / updates if updates else 0.0
            ),
            "embedding.qubits_per_variable": (
                statistics.fmean(s.attributes["qubits_per_variable"] for s in physical)
                if physical else 0.0
            ),
            "decode.broken_chain_read_share": (
                sum(s.attributes.get("num_broken_chain_reads", 0) for s in decodes) / reads
                if reads else 0.0
            ),
            "decode.invalid_read_share": (
                sum(s.attributes.get("num_invalid_reads", 0) for s in decodes) / reads
                if reads else 0.0
            ),
            "service.execute_ms": statistics.fmean(r.result["total_time_ms"] for r in ok),
            "baselines.budget_overrun_ms": (
                statistics.fmean(s.duration_ms - s.attributes["budget_ms"] for s in climbs)
                if climbs else 0.0
            ),
            "server.overhead_p50_ms": (
                _p([r.latency_ms - r.result["total_time_ms"] for r in ok], 0.50)
                if server else 0.0
            ),
            "server.queue_wait_p90_ms": server.get("queue_wait_p90_ms", 0.0),
            "obs.trace_overhead_share": (
                sum(r.latency_ms for r in traced.records)
                / sum(r.latency_ms for r in untraced.records) - 1.0
            ),
            "unattributed_share": 1.0 - coverage(
                spans, [(a + epoch_offset, b + epoch_offset) for a, b in
                        (record.interval for record in traced.records)]
            ),
        }
    )
    return {name: metrics.get(name, 0.0) for name in layer_names}


def _setup(workload) -> float:
    started = time.perf_counter()
    workload.setup()
    return time.perf_counter() - started


def run_end_to_end(workload, args, params, setup_repeats: int):
    """One untraced timed window, with ``setup_repeats`` timed set-ups.

    The first set-up is the workload's own.  The others set up and tear
    down a fresh copy of the workload after every second block, so they
    sample the host's speed across the run rather than at one moment.
    """
    setup_times = [_setup(workload)]
    blocks_done = 0

    def time_a_setup() -> None:
        nonlocal blocks_done
        blocks_done += 1
        if blocks_done % 2 == 0 and len(setup_times) < setup_repeats:
            copy = type(workload)(params, args.seed)
            try:
                setup_times.append(_setup(copy))
            finally:
                copy.teardown()

    try:
        run = workload.run(seconds=args.seconds, between_blocks=time_a_setup)
    finally:
        workload.teardown()
    if len(run.records) < 100:
        print(f"only {len(run.records)} jobs: p90 has fewer than 10 beyond it", file=sys.stderr)
    failed = _check(run.records) + _digest_check(workload, params, run)
    return end_to_end(run, setup_times), len(run.records), failed


def run_traced(workload, args, params, layer_names: List[str]):
    """An untraced and a traced pass over the same inputs, then the split."""
    from perfbench.tracing import install_wrappers, start_tracing, stop_tracing

    half = args.seconds / 2.0
    _setup(workload)
    try:
        untraced = workload.run(seconds=half)
    finally:
        workload.teardown()
    _setup(workload)
    uninstall = install_wrappers()
    try:
        start_tracing()
        epoch_offset = time.time() - time.perf_counter()
        traced = workload.run(seconds=half, jobs=len(untraced.records))
    finally:
        spans = stop_tracing()
        uninstall()
        workload.teardown()
    failed = _check(untraced.records) + _check(traced.records)
    if params["solver"] == "QA":
        mismatched = sum(
            a.ok and b.ok and a.result["selected_plans"] != b.result["selected_plans"]
            for a, b in zip(untraced.records, traced.records)
        )
        if mismatched:
            print(f"{mismatched} QA selections differ between the passes", file=sys.stderr)
        failed += mismatched
    STATE_DIR.mkdir(exist_ok=True)
    with open(STATE_DIR / f"trace-{args.workload}-{args.seed}.ndjson", "w") as out:
        for span in spans:
            out.write(json.dumps(span.to_dict()) + "\n")
    values = per_layer(untraced, traced, spans, epoch_offset, layer_names)
    return values, len(untraced.records) + len(traced.records), failed


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    params = spec["workloads"][args.workload]
    workload = WORKLOADS[args.workload](params, args.seed)
    if args.trace:
        metrics = declared["per_layer"]
        values, attempted, failed = run_traced(
            workload, args, params, [metric["name"] for metric in metrics]
        )
    else:
        metrics = declared["end_to_end"]
        values, attempted, failed = run_end_to_end(
            workload, args, params, spec["setup_repeats"]
        )

    for metric in metrics:
        print(f"{metric['name']:<34} {values[metric['name']]:>14.6g} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

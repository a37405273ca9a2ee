"""Measure one workload and assemble its metrics.

Untraced runs (``--trace 0``) give the end-to-end metrics; traced runs
(``--trace 1``) give the per-layer metrics from the spans of
:mod:`tracing`, plus an untraced replay of the same events for the
tracing overhead (and, for the sharded workload, a single-engine replay
for the speed-up).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from serve import SERVER_SPAWNS, run_serve
from tracing import NullTracer, Tracer
from workloads import (
    INSERT_RATIO,
    SETUP_REPEATS,
    InProcessRun,
    close_engine,
    endpoint,
    oracle_problems,
    read_mix,
    replay,
    set_up_repeatedly,
    stream_chunks,
    time_handlers,
    tree_peak_rss_mb,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: A percentile with fewer samples than this beyond it is flagged in the table.
MIN_TAIL = 10


# ----------------------------------------------------------------------
# Metric helpers
# ----------------------------------------------------------------------


class Metrics:
    """Named metrics with unit and sample count, in insertion order.

    A metric put with ``in_result=False`` is printed in the table but left out
    of the JSON result line.
    """

    def __init__(self) -> None:
        self.values: Dict[str, Tuple[float, str, Optional[int], str]] = {}
        self.left_out: List[str] = []

    def put(self, name: str, value: float, unit: str, samples: Optional[int] = None,
            note: str = "", in_result: bool = True) -> None:
        self.values[name] = (float(value), unit, samples, note)
        if not in_result:
            self.left_out.append(name)

    def percentile(self, name: str, samples: List[float], q: float, unit: str,
                   scale: float = 1.0) -> None:
        """``q``-quantile of ``samples`` (linear interpolation)."""
        if not samples:
            self.put(name, math.nan, unit, 0, "no samples")
            return
        ordered = sorted(samples)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
        beyond = len(ordered) - 1 - high
        note = "" if q == 0.5 or beyond >= MIN_TAIL else f"only {beyond} samples beyond"
        self.put(name, value * scale, unit, len(ordered), note)

    def unmeasured(self) -> List[str]:
        return [name for name, (value, *_rest) in self.values.items() if math.isnan(value)]

    def json(self) -> Dict[str, Dict[str, object]]:
        return {
            name: {"value": v, "unit": u}
            for name, (v, u, _n, _note) in self.values.items()
            if name not in self.left_out
        }

    def print_table(self, title: str) -> None:
        print(f"\n{title}")
        for name, (value, unit, samples, note) in self.values.items():
            count = "" if samples is None else f"n={samples}"
            if name in self.left_out:
                note = f"{note}; not in JSON" if note else "not in JSON"
            print(f"  {name:<34} {value:>14.6g} {unit:<6} {count:<9} {note}")


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


def layer_metrics(metrics: Metrics, totals, loop_s: float, events: int, flushes: int,
                  delta_tuples: int, sharded: bool) -> None:
    """Per-layer numbers shared by every workload, from span totals."""

    def total(name: str, key: str = "total_s") -> float:
        return totals.get(name, {}).get(key, 0.0)

    batcher_self = total("batcher.add", "self_s") + total("batcher.close", "self_s")
    metrics.put("batcher.self_s", batcher_self, "s")
    metrics.put("batcher.events", events, "count")
    metrics.put("batcher.flushes", flushes, "count")
    metrics.put("batcher.coalesce_ratio", delta_tuples / events if events else 0.0, "ratio")
    apply_s = total("engine.apply_many")
    metrics.put("engine.apply_s", apply_s, "s")
    metrics.put("engine.us_per_update", 1e6 * apply_s / events if events else 0.0, "us")
    metrics.put("sharded.route_send_s", total("sharded.apply"), "s")
    metrics.put("sharded.gather_s", total("publish") if sharded else 0.0, "s")
    metrics.put("publish.self_s", total("publish", "self_s"), "s")
    metrics.put("publish.count", totals.get("publish", {}).get("calls", 0), "count")
    metrics.put("ml.covar_s", total("ml.covar"), "s")
    metrics.put("ml.ridge_s", total("ml.ridge"), "s")
    metrics.put("ml.mi_s", total("ml.mi"), "s")
    metrics.put("ml.chowliu_s", total("ml.chowliu"), "s")
    layer_self = sum(entry["self_s"] for name, entry in totals.items() if not name.startswith("bench."))
    metrics.put("trace.coverage", layer_self / loop_s, "ratio",
                note="layer self time / loop wall time")


def engine_metrics(metrics: Metrics, engine, sharded: bool) -> None:
    stats = engine.aggregate_stats() if sharded else engine.stats.snapshot()
    for counter in ("fused_batches", "columnar_batches", "probe_steps", "scan_steps"):
        metrics.put(f"engine.{counter}", stats[counter], "count")
    probes = stats["index_probes"]
    metrics.put("engine.index_hit_ratio", stats["index_hits"] / probes if probes else 0.0, "ratio")
    mirrors = stats["mirror_hits"] + stats["mirror_builds"]
    metrics.put("engine.mirror_hit_ratio", stats["mirror_hits"] / mirrors if mirrors else 0.0, "ratio")
    metrics.put("engine.view_entries", engine.total_view_tuples(), "count")
    if sharded:
        applied = [s["updates_applied"] for s in engine.shard_stats()]
        skew = max(applied) / statistics.mean(applied) if sum(applied) else 1.0
    else:
        skew = 1.0
    metrics.put("sharded.shard_skew", skew, "ratio")


def handler_metrics(metrics: Metrics, handler_us, mix) -> None:
    """``ServingApp.handle`` cost, weighted by the shares of :func:`read_mix`."""
    for state in ("fresh", "cached"):
        weighted = sum(share * handler_us[endpoint(p)][state] for p, share in mix)
        metrics.put(f"server.handle_us.{state}", weighted, "us",
                    note="mix-weighted median of ServingApp.handle")


def print_handler_table(handler_us) -> None:
    print("\n  ServingApp.handle per endpoint (median us)")
    for name, states in handler_us.items():
        print(f"    server.handle_us{name.replace('/', '.')}.fresh  {states['fresh']:>10.1f}"
              f"    .cached  {states['cached']:>10.1f}")


def run_inprocess(workload, seed: int, seconds: float, trace: bool):
    setup, setup_times = set_up_repeatedly(workload, seed)
    scenario, engine = setup.scenario, setup.engine
    stream = scenario.stream(batch_size=workload.batch_size, insert_ratio=INSERT_RATIO)
    tracer = Tracer() if trace else NullTracer()
    record: Optional[list] = [] if trace else None
    engines = [("maintained", engine)]
    sharded = workload.shards > 1
    metrics = Metrics()
    try:
        run = InProcessRun(workload, scenario, engine, tracer)
        result = run.run(stream_chunks(stream, workload.batch_size, record),
                         workload.events(seconds))
        rss = tree_peak_rss_mb()
        if not trace:
            metrics.put("setup_s", setup_times["setup_s"], "s", SETUP_REPEATS)
            metrics.put("updates_per_s", result.updates_per_s, "1/s", result.events)
            metrics.percentile("refresh_ms_p50", result.refresh_s, 0.50, "ms", 1e3)
            metrics.percentile("refresh_ms_p90", result.refresh_s, 0.90, "ms", 1e3)
            metrics.put("peak_rss_mb", rss, "MB")
        else:
            tracer.write(os.path.join(OUT_DIR, f"{workload.name}-seed{seed}.spans.json"))
            totals = tracer.totals()
            layer_metrics(metrics, totals, result.loop_s, result.events, result.flushes,
                          result.delta_tuples, sharded)
            engine_metrics(metrics, engine, sharded)
            metrics.put("ml.failures", result.refresh_failures, "count")
            handler_us = time_handlers(scenario, engine, result.events)
            handler_metrics(metrics, handler_us, read_mix(scenario))
            metrics.put("setup.dataset_s", setup_times["dataset_s"], "s", SETUP_REPEATS)
            metrics.put("setup.initialize_s", setup_times["initialize_s"], "s", SETUP_REPEATS)
            plain_engine, plain = replay(workload, seed, record)
            engines.append(("untraced replay", plain_engine))
            metrics.put("trace.overhead_share", 1.0 - result.updates_per_s / plain.updates_per_s,
                        "ratio", note=f"untraced {plain.updates_per_s:.1f}/s")
            speedup = 1.0
            if sharded:
                single_engine, single = replay(workload, seed, record, shards=1)
                engines.append(("1-shard replay", single_engine))
                speedup = plain.updates_per_s / single.updates_per_s
            metrics.put("sharded.speedup_vs_1shard", speedup, "x")
            print_span_table(totals, result.loop_s)
            print_handler_table(handler_us)
        problems = oracle_problems(scenario, stream, engines)
    finally:
        for _label, built in engines:
            close_engine(built)
    print(f"\n{workload.name}: {result.events} events, {len(result.refresh_s)} refreshes "
          f"({result.refresh_failures} failed)")
    return metrics, problems, len(result.refresh_s), result.refresh_failures


def print_span_table(totals, loop_s: float) -> None:
    print(f"\n  spans (loop wall time {loop_s:.3f} s)")
    print(f"    {'span':<22} {'calls':>9} {'total s':>10} {'self s':>10} {'self %':>7}")
    for name, entry in sorted(totals.items(), key=lambda item: -item[1]["self_s"]):
        print(f"    {name:<22} {entry['calls']:>9} {entry['total_s']:>10.4f} "
              f"{entry['self_s']:>10.4f} {100 * entry['self_s'] / loop_s:>6.1f}%")


# ----------------------------------------------------------------------
# The serving workload
# ----------------------------------------------------------------------


def run_served(workload, seed: int, seconds: float, trace: bool):
    result = run_serve(ROOT, OUT_DIR, workload, seed, seconds, trace)
    window = result.window
    reads = window.reads
    answered = [r for r in reads if r.ok]
    metrics = Metrics()
    if not trace:
        metrics.put("setup_s", result.setup_s, "s", SERVER_SPAWNS)
        metrics.put("updates_per_s", window.writer_updates_per_s, "1/s", len(window.positions),
                    note="writer, from /healthz positions")
        latencies = [r.latency_s for r in answered]
        metrics.percentile("read_ms_p50", latencies, 0.50, "ms", 1e3)
        metrics.percentile("read_ms_p99", latencies, 0.99, "ms", 1e3)
        metrics.put("peak_rss_mb", result.peak_rss_mb, "MB")
    elif result.handler_us:
        handler_us = result.handler_us
        handler_metrics(metrics, handler_us, result.mix)
        waits = [r.latency_s - 1e-6 * handler_us[r.path]["fresh" if r.fresh else "cached"]
                 for r in answered]
        metrics.percentile("server.wait_ms_p50", waits, 0.5, "ms", 1e3)
        metrics.put("server.epoch_miss_ratio", sum(r.fresh for r in reads) / len(reads),
                    "ratio", len(reads))
        staleness = [r.staleness for r in reads if r.staleness is not None]
        metrics.percentile("server.staleness_events_p50", staleness, 0.5, "count")
        metrics.put("server.errors", window.server_errors, "count")
        metrics.put("loadgen.late_ms_max", 1e3 * max(r.late_s for r in reads), "ms", len(reads))
        metrics.put("setup.spawn_s", result.setup_s, "s", SERVER_SPAWNS)
        print_handler_table(handler_us)
    failed = sum(not r.ok for r in reads)
    print(f"\n{workload.name}: {len(reads)} reads ({failed} failed), "
          f"{len(window.covar_bodies)} /covar epochs replayed over {result.replay_events} events, "
          f"server errors {window.server_errors}")
    return metrics, result.problems, len(reads), failed


def run_one(workload, seed: int, seconds: float, trace: bool) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = run_served if workload.serve else run_inprocess
    metrics, problems, attempted, failed = runner(workload, seed, seconds, trace)
    problems += [f"metric {name} has no samples" for name in metrics.unmeasured()]
    metrics.put("failed_share", failed / attempted if attempted else 0.0, "ratio", attempted,
                in_result=False)
    kind = "per-layer (traced)" if trace else "end-to-end"
    metrics.print_table(f"{workload.name} seed {seed}: {kind} metrics")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.json(),
    }))
    return 1 if problems else 0

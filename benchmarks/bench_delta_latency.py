"""Per-update latency with persistent view indexes on vs. off.

The view-index subsystem converts F-IVM's per-update cost from
O(|sibling view|) scans to O(|delta| x matches) probes. This benchmark
measures what that buys at the latency-critical end of the spectrum —
small batches — where PR 1's batcher cannot amortize the scans:

1. **Delta latency** — a Retailer single-tuple stream ingested through
   ``apply_stream`` at batch sizes 1/10/100/1000, F-IVM with indexes
   enabled and disabled. Reports per-update latency and updates/s; in
   full mode the batch-size-1 run with indexes must be >= 5x faster than
   the scan path (warning on stderr otherwise; the CI smoke run never
   gates on timing).
2. **Cross-engine equivalence** — naive, first-order, per-aggregate and
   F-IVM (indexes on *and* off) consume the same stream; all final
   results must agree. This is asserted and is what CI gates on.
3. **Relational payloads** — per-update latency of the two apps that
   maintain the generalized cofactor ring with relational values on the
   per-tuple path: Retailer COVAR over the Figure-2b features at batch
   200 and Favorita MI at batch 500 (the serving recipes). Each final
   result is checked against a fresh engine on the stream's end state.

``--json PATH`` writes the measurements as a small JSON artifact
(updates/s per engine / ingest mode) that CI uploads to track the perf
trajectory across PRs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_delta_latency.py --smoke
    PYTHONPATH=src python benchmarks/bench_delta_latency.py  # full scale
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)
from repro.engine import (
    FIVMEngine,
    FirstOrderEngine,
    NaiveEngine,
    PerAggregateEngine,
)
from repro.rings import CountSpec, CovarSpec
from repro.serving import build_serving_scenario

# Sibling views on the Inventory path (V_Item, V_Weather, V@zip) must be
# large enough that per-update scans dominate fixed Python overhead —
# that is the regime the paper's O(delta) claim is about.
CONFIG = RetailerConfig(
    locations=32, dates=90, items=900, inventory_rows=40_000, seed=101
)
SMOKE_CONFIG = RetailerConfig(
    locations=4, dates=6, items=20, inventory_rows=200, seed=101
)

BATCH_SIZES = (1, 10, 100, 1000)


def make_events(database, config, total_updates, seed=7):
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=max(1, total_updates // 10),
        insert_ratio=0.8,
        seed=seed,
    )
    return list(stream.tuples(total_updates))


def bench_delta_latency(database, config, order, total_updates, records):
    """Batch-size sweep, indexes on vs off; returns the batch-1 speedup."""
    events = make_events(database, config, total_updates)
    query = retailer_query(CountSpec())
    print(f"## fivm per-update latency, {len(events)} updates (retailer stream)")
    print(
        f"{'batch':>6} {'view-index':>11} {'seconds':>9} "
        f"{'updates/s':>11} {'latency/upd':>12}"
    )
    seconds = {}
    results = {}
    for batch_size in BATCH_SIZES:
        for view_index in (False, True):
            engine = FIVMEngine(query, order=order, use_view_index=view_index)
            engine.initialize(database)
            started = time.perf_counter()
            engine.apply_stream(iter(events), batch_size=batch_size)
            elapsed = time.perf_counter() - started
            seconds[batch_size, view_index] = elapsed
            results[batch_size, view_index] = engine.result()
            latency_us = 1e6 * elapsed / len(events)
            print(
                f"{batch_size:>6} {'on' if view_index else 'off':>11} "
                f"{elapsed:>9.3f} {len(events) / elapsed:>11.0f} "
                f"{latency_us:>9.1f} µs"
            )
            records.append(
                {
                    "engine": "fivm",
                    "ingest": "stream",
                    "batch_size": batch_size,
                    "view_index": view_index,
                    "updates": len(events),
                    "seconds": round(elapsed, 6),
                    "updates_per_s": round(len(events) / elapsed, 1),
                    "latency_us": round(latency_us, 2),
                }
            )
    reference = results[BATCH_SIZES[0], False]
    assert all(result == reference for result in results.values()), (
        "fivm results diverged across batch sizes / index modes"
    )
    speedup = seconds[1, False] / seconds[1, True] if seconds[1, True] else float("inf")
    print(f"batch-size-1 view-index speedup: {speedup:.1f}x")
    return speedup


def bench_equivalence(database, config, order, total_updates, batch_size, records):
    """All four engines agree, with F-IVM's indexes both on and off."""
    events = make_events(database, config, total_updates, seed=11)
    count_query = retailer_query(CountSpec())
    features = continuous_covar_features(limit=2)
    covar_query = retailer_query(CovarSpec(features, backend="numeric"))
    engines = [
        ("naive", lambda: NaiveEngine(count_query, order=order)),
        ("first-order", lambda: FirstOrderEngine(count_query, order=order)),
        ("fivm", lambda: FIVMEngine(count_query, order=order)),
        (
            "fivm-noindex",
            lambda: FIVMEngine(count_query, order=order, use_view_index=False),
        ),
        (
            "per-aggregate",
            lambda: PerAggregateEngine(covar_query, features, order=order),
        ),
    ]
    print(f"\n## cross-engine equivalence, {len(events)} updates")
    results = {}
    instances = {}
    for label, factory in engines:
        engine = factory()
        engine.initialize(database)
        started = time.perf_counter()
        engine.apply_stream(iter(events), batch_size=batch_size)
        elapsed = time.perf_counter() - started
        instances[label] = engine
        results[label] = engine.result()
        print(
            f"{label:>14}: {len(events) / elapsed:>9.0f} updates/s "
            f"({len(results[label])} result keys)"
        )
        # view_index only means something for F-IVM rows; null elsewhere
        # so artifact consumers don't lump scan-based engines in with it.
        view_index = None
        if label.startswith("fivm"):
            view_index = label != "fivm-noindex"
        records.append(
            {
                "engine": label,
                "ingest": "stream",
                "batch_size": batch_size,
                "view_index": view_index,
                "updates": len(events),
                "seconds": round(elapsed, 6),
                "updates_per_s": round(len(events) / elapsed, 1),
                "latency_us": round(1e6 * elapsed / len(events), 2),
            }
        )
    # per-aggregate's result() is its count sub-view, so every engine's
    # final result is comparable against the count oracle.
    reference = results["naive"]
    for label, result in results.items():
        assert result.close_to(reference, 1e-6), (
            f"{label}: final result diverged from naive"
        )
    # Spot-check the per-aggregate COVAR assembly is finite and symmetric
    # (its sub-engines run the indexed maintenance path too).
    count, sums, quad = instances["per-aggregate"].covar_matrix()
    assert np.isfinite(count) and np.isfinite(sums).all()
    assert np.allclose(quad, quad.T), "per-aggregate COVAR not symmetric"
    print("all engines agree with indexes on and off ✓")


#: (dataset, payload, batch size, updates in full mode, in smoke mode)
RELATIONAL_RECIPES = (
    ("retailer", "covar", 200, 3000, 600),
    ("favorita", "mi", 500, 5000, 1500),
)


def bench_relational_payloads(smoke, records):
    """Per-tuple maintenance in the relational cofactor ring."""
    print("\n## relational-payload per-update latency (serving recipes)")
    for dataset, payload, batch_size, full_updates, smoke_updates in RELATIONAL_RECIPES:
        scenario = build_serving_scenario(dataset, payload)
        stream = scenario.stream(batch_size=batch_size)
        events = list(stream.tuples(smoke_updates if smoke else full_updates))
        engine = FIVMEngine(scenario.query, order=scenario.order)
        engine.initialize(scenario.database)
        started = time.perf_counter()
        engine.apply_stream(iter(events), batch_size=batch_size)
        elapsed = time.perf_counter() - started
        oracle = FIVMEngine(scenario.query, order=scenario.order)
        oracle.initialize(stream.shadow)
        assert engine.result().close_to(oracle.result(), 1e-6), (
            f"{dataset} {payload}: maintained result diverged from recomputation"
        )
        latency_us = 1e6 * elapsed / len(events)
        label = f"fivm-{dataset}-{payload}"
        print(
            f"{label:>20} batch {batch_size:>4}: {len(events) / elapsed:>8.0f} "
            f"updates/s, {latency_us:>7.1f} µs/update"
        )
        records.append(
            {
                "engine": label,
                "ingest": "stream",
                "batch_size": batch_size,
                "updates": len(events),
                "seconds": round(elapsed, 6),
                "updates_per_s": round(len(events) / elapsed, 1),
                "latency_us": round(latency_us, 2),
            }
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, CI gate")
    parser.add_argument("--updates", type=int, default=2000)
    parser.add_argument("--equivalence-updates", type=int, default=400)
    parser.add_argument("--equivalence-batch", type=int, default=64)
    parser.add_argument("--json", metavar="PATH", help="write measurements as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.updates = min(args.updates, 200)
        args.equivalence_updates = min(args.equivalence_updates, 120)

    config = SMOKE_CONFIG if args.smoke else CONFIG
    database = generate_retailer(config)
    order = retailer_variable_order()
    print(
        f"# delta-latency benchmark (retailer, "
        f"{'smoke' if args.smoke else 'full'} mode)\n"
    )
    records = []
    speedup = bench_delta_latency(database, config, order, args.updates, records)
    bench_equivalence(
        database,
        config,
        order,
        args.equivalence_updates,
        args.equivalence_batch,
        records,
    )
    bench_relational_payloads(args.smoke, records)
    if not args.smoke and speedup < 5.0:
        print(
            f"\nWARNING: batch-1 view-index speedup {speedup:.1f}x "
            "below the 5x target",
            file=sys.stderr,
        )
    if args.json:
        artifact = {
            "benchmark": "delta_latency",
            "mode": "smoke" if args.smoke else "full",
            "dataset": "retailer",
            "batch1_view_index_speedup": round(speedup, 2),
            "results": records,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"\nwrote {len(records)} measurements to {args.json}")
    print("\nview-index and scan paths agree ✓")
    return 0


if __name__ == "__main__":
    sys.exit(main())

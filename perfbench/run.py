"""End-to-end benchmark of the F-IVM system: four app-shaped workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload retailer-regression --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Each run checks the program's output against a
recomputation oracle and exits non-zero on a mismatch. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_program() -> None:
    """Put the checkout's ``src`` and ``benchmarks`` on the path, or exit."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {src}/repro; run from a full checkout")
    sys.path[:0] = [src, os.path.join(ROOT, "benchmarks")]


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        status = status or completed.returncode
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            summary["correct"] = False
            status = status or 1
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return status


def stop_children() -> None:
    """Stop every helper process this run started and wait for each to end.

    Shard workers are closed with their engines; any still alive is
    terminated here. The shared-memory transport also starts
    multiprocessing's resource tracker, which would otherwise outlive
    this process for a moment and stay unreaped; stopping it closes its
    pipe and waits for it to exit.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name (see perfbench/README.md) or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="dataset, stream and read-mix seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run size: about this many seconds of work on the reference host")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or 'all'")
    from report import run_one

    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    started = time.perf_counter()
    # A SIGTERM unwinds like an error, so engines and servers are closed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        code = main()
    finally:
        stop_children()
    print(f"# perfbench finished in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)

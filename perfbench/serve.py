"""The ``retailer-regression-serve`` workload: ``repro serve`` as a subprocess.

The server ingests its seeded stream as fast as it can while this process
sends an open-loop schedule of reads from one thread over two keep-alive
connections. A read is timed from its due time, so a stalled server also
delays the reads queued behind it. A read whose connection drops without
a response (``ServingApp.handle`` lets a ``KeyError`` escape) counts as
failed and the connection is reopened.

Afterwards the served stream is replayed in this process with
``bench_serving.verify_exact``: every sampled ``/covar`` body must equal
its replayed body bit for bit. The replay is not timed. The server runs
the same stream recipe as ``retailer-regression``, whose in-process loop
gives the refresh latency and the batcher, engine, publish and ml layers.
"""

from __future__ import annotations

import asyncio
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.serving.scenario import ServingScenario, build_serving_scenario

import bench_serving
from workloads import INSERT_RATIO, Workload, endpoint, peak_rss_mb, read_mix, time_handlers

#: Open-loop read rate (reads per second). At 100/s the server sits at the
#: edge of its read capacity on a 2-vCPU host (reads wait on the writer's
#: GIL), and a 10% slower phase of the host tips it into a growing
#: backlog; 50/s keeps it clear of that cliff.
READ_RATE = 50.0
#: Server start-ups per run; ``setup_s`` is their median.
SERVER_SPAWNS = 3
#: Keep-alive connections of the load generator.
CONNECTIONS = 2
#: Seconds allowed for a server to print its address or for a request.
START_TIMEOUT = 60.0
READ_FAILURES = (IndexError, ValueError, ConnectionError, asyncio.IncompleteReadError)


class Server:
    """One ``repro serve`` child process."""

    def __init__(self, root: str, workload: Workload, seed: int, log_path: str):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        command = [
            sys.executable, "-m", "repro", "serve",
            "--dataset", workload.dataset, "--payload", workload.payload,
            "--batch-size", str(workload.batch_size),
            "--insert-ratio", str(INSERT_RATIO),
            "--seed", str(seed), "--scale", "1",
            "--port", "0", "--updates", str(10**9), "--linger", "-1",
        ]
        started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        try:
            self.host, self.port = self._address()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.spawn_s = time.perf_counter() - started

    def _address(self) -> Tuple[str, int]:
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT)
        line = self.process.stdout.readline().decode() if ready else ""
        if " on http://" not in line:
            raise RuntimeError(f"repro serve did not report its address: {line!r}")
        host, _, port = line.rsplit("http://", 1)[1].strip().partition(":")
        return host, int(port)

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT
        url = f"http://{self.host}:{self.port}/healthz"
        while True:
            try:
                with urllib.request.urlopen(url, timeout=START_TIMEOUT) as response:
                    if response.status == 200:
                        return
            except (urllib.error.URLError, ConnectionError):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never answered /healthz with 200")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# Open-loop load generator
# ----------------------------------------------------------------------


class ReadSchedule:
    """Open loop: read ``k`` is due at ``k / READ_RATE`` seconds, its
    path drawn from the mix by a generator seeded with the run's seed."""

    def __init__(self, mix: List[Tuple[str, float]], seed: int):
        self.mix = mix
        self.rng = random.Random(seed)
        self.index = 0

    @property
    def next_due(self) -> float:
        return self.index / READ_RATE

    def pop(self) -> Tuple[float, str]:
        due = self.next_due
        self.index += 1
        draw, path = self.rng.random(), self.mix[-1][0]
        for candidate, share in self.mix:
            if draw < share:
                path = candidate
                break
            draw -= share
        return due, path


@dataclass
class Read:
    path: str
    latency_s: float
    late_s: float
    ok: bool
    fresh: bool
    staleness: Optional[int] = None


@dataclass
class Window:
    reads: List[Read] = field(default_factory=list)
    #: First ``/covar`` body seen per epoch, for the bit-exact replay.
    covar_bodies: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: ``(received_s, position)`` from every ``/healthz``.
    positions: List[Tuple[float, int]] = field(default_factory=list)
    server_errors: int = 0
    degraded: bool = False

    @property
    def writer_updates_per_s(self) -> float:
        (t0, p0), (t1, p1) = self.positions[0], self.positions[-1]
        return (p1 - p0) / (t1 - t0)


async def read_window(host: str, port: int, mix, seed: int, seconds: float) -> Window:
    """Send the read schedule for ``seconds``; never slow it down."""
    window = Window()
    schedule = ReadSchedule(mix, seed)
    queue: asyncio.Queue = asyncio.Queue()
    connections = [bench_serving.ReaderConnection(host, port) for _ in range(CONNECTIONS)]
    for conn in connections:
        await conn.connect()
    started = time.perf_counter()
    newest_epoch = 0

    async def pace() -> None:
        while schedule.next_due < seconds:
            due, path = schedule.pop()
            delay = started + due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((due, path))
        for _ in connections:
            queue.put_nowait(None)

    async def send(conn) -> None:
        nonlocal newest_epoch
        while True:
            item = await queue.get()
            if item is None:
                return
            due, path = item
            sent = time.perf_counter() - started
            try:
                status, body, _ = await conn.get(path)
                ok = status == 200
            except READ_FAILURES:
                ok, body = False, {}
                await conn.close()
                await conn.connect()
            done = time.perf_counter() - started
            epoch = body.get("epoch", 0)
            name = endpoint(path)
            window.reads.append(Read(
                path=name, latency_s=done - due, late_s=sent - due, ok=ok, fresh=epoch > newest_epoch,
                staleness=body.get("staleness"),
            ))
            newest_epoch = max(newest_epoch, epoch)
            if ok and name == "/healthz":
                window.positions.append((done, body["position"]))
                window.degraded |= bool(body.get("degraded"))
            elif ok and name == "/covar":
                window.covar_bodies.setdefault(epoch, body)

    await asyncio.gather(pace(), *(send(conn) for conn in connections))
    status, stats, _ = await connections[0].get("/stats")
    window.server_errors = stats["serving"]["errors"] if status == 200 else -1
    for conn in connections:
        await conn.close()
    return window


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


class KeptEngine:
    """The served scenario; keeps the engine ``replay_bodies`` builds, so
    the traced run can time ``ServingApp.handle`` on its last state."""

    def __init__(self, scenario: ServingScenario):
        self.scenario = scenario
        self.built = None

    def __getattr__(self, name):
        return getattr(self.scenario, name)

    def engine(self, *args, **kwargs):
        self.built = self.scenario.engine(*args, **kwargs)
        return self.built


@dataclass
class ServeResult:
    setup_s: float
    window: Window
    peak_rss_mb: float
    replay_events: int
    problems: List[str]
    handler_us: Dict[str, Dict[str, float]] = field(default_factory=dict)
    mix: list = field(default_factory=list)


def run_serve(root: str, out_dir: str, workload: Workload, seed: int, seconds: float,
              trace: bool) -> ServeResult:
    log_path = os.path.join(out_dir, f"{workload.name}-seed{seed}.server.log")
    spawn_times: List[float] = []
    server: Optional[Server] = None
    try:
        for _ in range(SERVER_SPAWNS):
            if server is not None:
                server.stop()
            server = Server(root, workload, seed, log_path)
            spawn_times.append(server.spawn_s)
        scenario = build_serving_scenario(workload.dataset, workload.payload, scale=1, seed=seed)
        mix = read_mix(scenario)
        window = asyncio.run(read_window(server.host, server.port, mix, seed, seconds))
        rss = peak_rss_mb() + peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()

    problems: List[str] = []
    if window.degraded:
        problems.append("server reported degraded serving (writer failed)")
    if len(window.positions) < 2:
        problems.append("fewer than two /healthz answers: no writer rate")
    replay = KeptEngine(scenario)
    replay_events = max((b["event_offset"] for b in window.covar_bodies.values()), default=0)
    if not window.covar_bodies:
        problems.append("no /covar body was served: nothing to replay")
    else:
        try:
            bench_serving.verify_exact(
                replay, window.covar_bodies, "/covar", workload.batch_size, INSERT_RATIO
            )
        except AssertionError as exc:
            problems.append(f"served /covar differs from its replay: {str(exc)[:400]}")
    result = ServeResult(
        setup_s=statistics.median(spawn_times), window=window, peak_rss_mb=rss,
        replay_events=replay_events, problems=problems, mix=mix,
    )
    if trace and replay.built is not None:
        result.handler_us = time_handlers(scenario, replay.built, replay_events)
    return result

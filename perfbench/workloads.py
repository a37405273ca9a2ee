"""The in-process workloads: set-up, ingest loop and oracle.

An in-process workload drives :class:`repro.data.UpdateBatcher` itself.
Every flush runs ``engine.apply_many``, ``engine.publish`` and the app's
model refresh (:class:`ModelRefresher`), in one thread, timed from
outside the program. Reads are not part of the loop: the cost of
answering them is timed separately (:func:`time_handlers`), and read
traffic beside writes is the serve workload's job.

Events come from ``scenario.stream(batch_size=B, insert_ratio=0.7)`` and
are generated in whole stream batches, a chunk at a time, with the loop
clock paused; so after the run ``stream.shadow`` holds exactly the
database the engine has consumed, and the oracle is a fresh engine
initialized on it.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.config import EngineConfig, create_engine
from repro.data import UpdateBatcher
from repro.data.delta import tuple_events
from repro.ml import (
    RidgeRegression,
    chow_liu_tree,
    covar_from_payload,
    mutual_information_matrix,
    rank_features,
)
from repro.serving import ServingApp
from repro.serving.scenario import ServingScenario, build_serving_scenario

from oracle import compare_views
from tracing import NullTracer

INSERT_RATIO = 0.7
#: Events generated per chunk (rounded to whole stream batches).
CHUNK_EVENTS = 2000
#: Set-ups per in-process run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Republished epochs over which ``ServingApp.handle`` is timed per endpoint.
HANDLER_ROUNDS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    payload: str
    batch_size: int
    #: An in-process run ingests ``events_per_s * seconds`` events, a fixed
    #: input size, so a faster program finishes sooner instead of growing a
    #: larger state. On a 2-vCPU host that is about ``seconds`` of ingest,
    #: 1.5 times that for retailer-regression, whose timings swing most
    #: with the host's speed.
    events_per_s: float = 0.0
    shards: int = 1
    serve: bool = False

    def config(self) -> EngineConfig:
        if self.shards == 1:
            return EngineConfig()
        return EngineConfig(shards=self.shards, backend="process", transport="shm")

    def events(self, seconds: float) -> int:
        """The run's input size, rounded up to whole chunks."""
        chunk = max(1, CHUNK_EVENTS // self.batch_size) * self.batch_size
        return chunk * math.ceil(self.events_per_s * seconds / chunk)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("retailer-regression", "retailer", "covar", 200, events_per_s=3000),
        Workload("retailer-count-b10", "retailer", "count", 10, events_per_s=14000),
        Workload("favorita-mi-2shard", "favorita", "mi", 500, events_per_s=7000, shards=2),
        Workload("retailer-regression-serve", "retailer", "covar", 200, serve=True),
    )
}
"""Why each workload was chosen is recorded in BENCHMARK.json and README.md."""


# ----------------------------------------------------------------------
# Read endpoints
# ----------------------------------------------------------------------


def predict_path(scenario: ServingScenario) -> str:
    features = [
        f.name
        for f in scenario.query.spec.build().features
        if f.name != scenario.regression_label
    ]
    return "/predict?" + "&".join(f"{name}=1" for name in features)


def read_mix(scenario: ServingScenario) -> List[Tuple[str, float]]:
    """``(path, share)`` of the endpoints whose handlers are timed.

    COVAR: the serve workload's read mix. The other payloads serve one
    model endpoint each (``/topk`` for MI, ``/result`` for COUNT).
    """
    if scenario.payload == "covar":
        return [(predict_path(scenario), 0.6), ("/model", 0.2), ("/covar", 0.1), ("/healthz", 0.1)]
    return [("/topk" if scenario.payload == "mi" else "/result", 1.0)]


def endpoint(path: str) -> str:
    return urlsplit(path).path


def split_path(path: str) -> Tuple[str, Dict[str, str]]:
    split = urlsplit(path)
    return split.path, dict(parse_qsl(split.query))


# ----------------------------------------------------------------------
# Model refresh (the app on top of each published epoch)
# ----------------------------------------------------------------------


def payload_plan(engine):
    plan = getattr(engine, "plan", None)
    return plan if plan is not None else engine.tree.plan


class ModelRefresher:
    """The paper's app for the payload, run on every published epoch.

    COVAR: ``covar_from_payload`` then ``RidgeRegression.fit_closed_form``.
    MI: ``mutual_information_matrix``, ``rank_features``, ``chow_liu_tree``.
    COUNT: the root result is read. A ``KeyError`` from ``ml.covar`` (the
    known cancelled-category defect) counts as a failed refresh.
    """

    def __init__(self, scenario: ServingScenario, engine, tracer):
        self.scenario = scenario
        self.plan = payload_plan(engine)
        self.failures = 0
        wrap = tracer.wrap
        if scenario.payload == "covar":
            features = tuple(
                f.name for f in self.plan.features if f.name != scenario.regression_label
            )
            solver = RidgeRegression(features, scenario.regression_label)
            self._covar = wrap("ml.covar", covar_from_payload)
            self._ridge = wrap("ml.ridge", solver.fit_closed_form)
        elif scenario.payload == "mi":
            self._mi = wrap("ml.mi", mutual_information_matrix)
            self._rank = wrap("ml.mi", rank_features)
            self._chowliu = wrap("ml.chowliu", chow_liu_tree)

    def refresh(self, snapshot) -> Any:
        payload = snapshot.result.payload(())
        try:
            if self.scenario.payload == "covar":
                return self._ridge(self._covar(payload, self.plan))
            if self.scenario.payload == "mi":
                mi = self._mi(payload, self.plan)
                self._rank(mi, self.scenario.mi_label)
                return self._chowliu(mi)
        except KeyError:
            self.failures += 1
            return None
        return payload


def time_handlers(scenario: ServingScenario, engine, position: int) -> Dict[str, Dict[str, float]]:
    """``ServingApp.handle`` per endpoint of :func:`read_mix`, on a freshly
    published epoch (``fresh``: derived-model caches miss) and right after
    (``cached``).

    Each round republishes the engine's current state as a new epoch.
    Medians over :data:`HANDLER_ROUNDS` rounds, in microseconds.
    """
    mix = read_mix(scenario)
    app = ServingApp(
        engine,
        regression_label=scenario.regression_label,
        mi_label=scenario.mi_label,
        position_source=lambda: position,
    )
    samples: Dict[str, Dict[str, List[float]]] = {
        endpoint(path): {"fresh": [], "cached": []} for path, _ in mix
    }
    for _ in range(HANDLER_ROUNDS):
        engine.publish(event_offset=position)
        for path, _share in mix:
            name, params = split_path(path)
            for state in ("fresh", "cached"):
                start = time.perf_counter()
                try:
                    app.handle(name, params)
                except KeyError:
                    pass
                samples[name][state].append(1e6 * (time.perf_counter() - start))
    return {
        name: {state: statistics.median(values) for state, values in by_state.items()}
        for name, by_state in samples.items()
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


@dataclass
class Setup:
    scenario: ServingScenario
    engine: Any
    dataset_s: float
    initialize_s: float


def set_up(workload: Workload, seed: int) -> Setup:
    started = time.perf_counter()
    scenario = build_serving_scenario(workload.dataset, workload.payload, scale=1, seed=seed)
    built = time.perf_counter()
    engine = create_engine(scenario.query, config=workload.config(), order=scenario.order)
    engine.initialize(scenario.database)
    return Setup(scenario, engine, built - started, time.perf_counter() - built)


def close_engine(engine) -> None:
    close = getattr(engine, "close", None)
    if close is not None:
        close()


def set_up_repeatedly(workload: Workload, seed: int) -> Tuple[Setup, Dict[str, float]]:
    """Set up :data:`SETUP_REPEATS` times; keep the last, report medians.

    Each earlier set-up is closed and dropped before the next starts, so
    at most one lives at a time and the repeats do not raise the peak RSS.
    """
    dataset_s: List[float] = []
    initialize_s: List[float] = []
    setup = None
    for _ in range(SETUP_REPEATS):
        if setup is not None:
            close_engine(setup.engine)
            setup = None
        setup = set_up(workload, seed)
        dataset_s.append(setup.dataset_s)
        initialize_s.append(setup.initialize_s)
    times = {
        "dataset_s": statistics.median(dataset_s),
        "initialize_s": statistics.median(initialize_s),
        "setup_s": statistics.median(d + i for d, i in zip(dataset_s, initialize_s)),
    }
    return setup, times


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def peak_rss_mb(pid: Any = "self") -> float:
    """Peak resident set (``VmHWM``) of one live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def private_mb(pid: Any) -> float:
    """Memory only this process holds (``Private_Clean`` + ``Private_Dirty``
    of ``smaps_rollup``), in MB. Pages a forked child still shares
    copy-on-write with its parent are left out."""
    kb = 0
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                kb += int(line.split()[1])
    return kb / 1024.0


def tree_peak_rss_mb() -> float:
    """Peak RSS of this process plus the private memory its live children
    (forked shard workers) hold now, at the end of the run.

    A forked worker's own ``VmHWM`` would count the pages it shares with
    this process again, so only its private pages are added: those are
    its shard state plus the pages it has copied on write.
    """
    return peak_rss_mb() + sum(private_mb(child.pid) for child in multiprocessing.active_children())


# ----------------------------------------------------------------------
# The ingest loop
# ----------------------------------------------------------------------


def stream_chunks(stream, batch_size: int, record: Optional[list]) -> Iterator[list]:
    """Whole stream batches, about :data:`CHUNK_EVENTS` events at a time."""
    per_chunk = max(1, CHUNK_EVENTS // batch_size)
    while True:
        chunk = list(tuple_events(stream.batches(per_chunk)))
        if record is not None:
            record.append(chunk)
        yield chunk


@dataclass
class LoopResult:
    events: int = 0
    loop_s: float = 0.0
    refresh_s: List[float] = field(default_factory=list)
    delta_tuples: int = 0
    flushes: int = 0
    refresh_failures: int = 0

    @property
    def updates_per_s(self) -> float:
        return self.events / self.loop_s


class InProcessRun:
    """One ingest loop over one engine: batcher -> apply -> publish ->
    model refresh, timed from outside the program."""

    def __init__(self, workload: Workload, scenario: ServingScenario, engine, tracer):
        self.engine = engine
        self.tracer = tracer
        self.result = LoopResult()
        self.refresher = ModelRefresher(scenario, engine, tracer)
        schemas = {
            name: engine.query.schema_of(name).attributes
            for name in engine.query.relation_names
        }
        self.batcher = UpdateBatcher(
            schemas,
            batch_size=workload.batch_size,
            on_flush=tracer.wrap("bench.flush", self._on_flush),
        )
        if workload.shards > 1:
            tracer.patch(engine, "apply", "sharded.apply")
        self._apply_many = tracer.wrap("engine.apply_many", engine.apply_many)
        self._publish = tracer.wrap("publish", engine.publish)
        self._add = tracer.wrap("batcher.add", self.batcher.add)
        self._close = tracer.wrap("batcher.close", self.batcher.close)
        self._started = 0.0
        self._paused = 0.0

    def clock(self) -> float:
        """Seconds of loop time (event generation excluded)."""
        return time.perf_counter() - self._started - self._paused

    def _on_flush(self, batch) -> None:
        started = time.perf_counter()
        result = self.result
        result.flushes += 1
        result.delta_tuples += sum(len(delta.data) for _name, delta in batch)
        self.tracer.epoch += 1
        self._apply_many(batch)
        snapshot = self._publish(event_offset=result.events)
        self.refresher.refresh(snapshot)
        result.refresh_s.append(time.perf_counter() - started)

    def run(self, chunks: Iterable[list], events: Optional[int] = None) -> LoopResult:
        """Consume whole chunks until ``events`` are in (or all chunks)."""
        result = self.result
        self.engine.publish(event_offset=0)
        self._started = time.perf_counter()
        source = iter(chunks)
        add = self._add
        while True:
            paused = time.perf_counter()
            chunk = next(source, None)
            self._paused += time.perf_counter() - paused
            if chunk is None:
                break
            for relation, row, multiplicity in chunk:
                result.events += 1
                add(relation, row, multiplicity)
            if events is not None and result.events >= events:
                break
        self._close()
        result.loop_s = self.clock()
        result.refresh_failures = self.refresher.failures
        self.tracer.restore()
        return result


def oracle_problems(scenario: ServingScenario, stream, engines) -> List[str]:
    """Compare each engine's root view to a fresh engine on ``stream.shadow``."""
    oracle = create_engine(scenario.query, config=EngineConfig(), order=scenario.order)
    oracle.initialize(stream.shadow)
    expected = oracle.result()
    problems: List[str] = []
    for label, engine in engines:
        problems += [f"{label}: {p}" for p in compare_views(engine.result(), expected)]
    return problems


def replay(workload: Workload, seed: int, chunks: List[list], shards: Optional[int] = None) -> Tuple[Any, LoopResult]:
    """Untraced replay of recorded chunks on a fresh engine."""
    if shards is not None:
        workload = replace(workload, shards=shards)
    setup = set_up(workload, seed)
    try:
        run = InProcessRun(workload, setup.scenario, setup.engine, NullTracer())
        return setup.engine, run.run(chunks)
    except BaseException:
        close_engine(setup.engine)
        raise

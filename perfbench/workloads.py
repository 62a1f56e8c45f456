"""The benchmark's four workloads.

Serving workloads drive the daemon (or the gateway) in a closed loop:
``N_CLIENTS`` threads of this process, one connection each, send the next
request only after the previous answer arrived.  The sweep workload calls
``run_grid`` in this process, which fans the grid out over a process pool.

Each workload returns a :class:`Run` with the end-to-end metrics of its
timed window, the counts the daemons report through their ``status`` op,
and, for a traced run, the per-layer metrics of ``layers.py``.
"""

from __future__ import annotations

import bisect
import os
import random
import resource
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gate
import layers
import streams
import sut
import tracing
from repro.analysis import batch
from repro.analysis.supervisor import SUPERVISOR_COUNTERS, SupervisedExecutor
from repro.core.allocation import clear_allocation_cache
from repro.scenarios.paper import pama_frontier
from repro.service.client import ClientError, PlanClient, PlanServiceError
from repro.service.metrics import percentile

#: Closed-loop clients: one per core of the 2-core reference host, so the
#: load generator never needs more threads than the host has cores.
N_CLIENTS = 2
SETUP_REPEATS = 3
#: Serving windows are cut into slices this long for the median figures.
SLICE_S = 2.0
#: Client ``i`` numbers its requests from ``(i + 1) * ID_STRIDE``: ids are
#: then unique across clients and clear of the gateway's health probes,
#: so spans in the daemons join the request that caused them.
ID_STRIDE = 10_000_000
RUN_DIR = Path(".perfbench_run")
FLEET_BACKENDS = 2
#: Cold workloads send this many requests of their own during set-up.
WARM_UP = 24
SWEEP_REFERENCE_SAMPLE = 16
GATEWAY_COUNTERS = (
    "forwards_total",
    "forward_attempts",
    "forward_transport_errors",
    "hedges_fired",
    "hedge_wins",
)
SERVER_COUNTERS = ("plan_coalesced", "requests_shed", "degraded_served")


@dataclass
class Run:
    """What one run of a workload measured."""

    attempted: int = 0
    failed: int = 0
    problems: "list[str]" = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    breakdown: list = field(default_factory=list)
    claims: list = field(default_factory=list)
    latency_samples: int = 0


@dataclass
class Window:
    """One closed-loop timed window against a serving address."""

    wall_s: float
    start_ns: int
    end_ns: int
    latencies: "list[float]"  #: sorted
    finished: "list[tuple[float, float]]"  #: (end time, latency), by end time
    cpu_samples: "list[tuple[float, float]]"  #: (time, SUT CPU seconds)
    answers: gate.Answers
    errors: Counter
    served_by: Counter


def n_cores() -> int:
    return len(os.sched_getaffinity(0))


def slice_medians(slices) -> "tuple[float, float, float]":
    """Medians over the ``(seconds, cpu_seconds, ops, latencies)`` slices
    of one window: ops/s, CPU ms per op, and p50 latency in ms.

    The shared host slows down for seconds at a time; a median over
    slices keeps one such stall from moving the whole run's figures."""
    slices = [s for s in slices if s[2] and s[3]]
    return (
        statistics.median(ops / seconds for seconds, _, ops, _ in slices),
        statistics.median(cpu * 1e3 / ops for _, cpu, ops, _ in slices),
        statistics.median(percentile(lat, 50.0) * 1e3 for *_, lat in slices),
    )


def _window_slices(window: Window):
    """The window cut at its CPU samples."""
    ends = [end for end, _ in window.finished]
    for (t0, c0), (t1, c1) in zip(window.cpu_samples, window.cpu_samples[1:]):
        lo, hi = bisect.bisect_left(ends, t0), bisect.bisect_left(ends, t1)
        yield t1 - t0, c1 - c0, hi - lo, [lat for _, lat in window.finished[lo:hi]]


def _run_clients(client_loop, monitor=None) -> None:
    """Run ``client_loop(k)`` on ``N_CLIENTS`` threads, and ``monitor()`` in
    this one meanwhile; re-raise the first exception a client died with."""
    crashes: "list[BaseException]" = []

    def guarded(k: int) -> None:
        try:
            client_loop(k)
        except BaseException as exc:  # re-raised in the calling thread
            crashes.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(k,), name=f"bench-client-{k}")
        for k in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    if monitor is not None:
        monitor()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]


def closed_loop(
    address: str, stream: streams.Stream, seconds: float, key_of, cpu_of
) -> Window:
    """``N_CLIENTS`` closed-loop clients for ``seconds``; ``cpu_of()`` is
    sampled at the edges of ``SLICE_S``-long slices of the window."""
    answers = [gate.Answers() for _ in range(N_CLIENTS)]
    finished: "list[list[tuple[float, float]]]" = [[] for _ in range(N_CLIENTS)]
    errors = [Counter() for _ in range(N_CLIENTS)]
    served_by = [Counter() for _ in range(N_CLIENTS)]
    samples = [(time.perf_counter(), cpu_of())]
    start = samples[0][0]
    deadline = start + seconds
    n_slices = max(1, round(seconds / SLICE_S))

    def monitor() -> None:
        for i in range(1, n_slices):
            time.sleep(max(0.0, start + i * seconds / n_slices - time.perf_counter()))
            samples.append((time.perf_counter(), cpu_of()))

    def client_loop(k: int) -> None:
        # Connects lazily, and reconnects after a transport error.
        client = PlanClient(address, timeout=60.0)
        client._next_id = (k + 1) * ID_STRIDE
        try:
            while time.perf_counter() < deadline:
                index, request = stream.next()
                t0 = time.perf_counter()
                try:
                    payload = client.request({"op": "plan", **request})
                except PlanServiceError as exc:
                    errors[k][exc.code] += 1
                    continue
                except ClientError:
                    errors[k]["transport"] += 1
                    continue
                t1 = time.perf_counter()
                finished[k].append((t1, t1 - t0))
                answers[k].add(key_of(index, request), request, payload)
                if "served_by" in payload:
                    served_by[k][payload["served_by"]] += 1
        finally:
            client.close()

    t0 = time.perf_counter_ns()
    _run_clients(client_loop, monitor)
    t1 = time.perf_counter_ns()
    samples.append((time.perf_counter(), cpu_of()))
    merged = answers[0]
    for other in answers[1:]:
        merged.merge(other)
    done = sorted(x for xs in finished for x in xs)
    return Window(
        wall_s=(t1 - t0) / 1e9,
        start_ns=t0,
        end_ns=t1,
        latencies=sorted(lat for _, lat in done),
        finished=done,
        cpu_samples=samples,
        answers=merged,
        errors=sum(errors, Counter()),
        served_by=sum(served_by, Counter()),
    )


def fill(address: str, plans: "list[dict]") -> None:
    """Ask for every plan once, from ``N_CLIENTS`` connections."""

    def client_loop(k: int) -> None:
        with PlanClient(address, timeout=60.0) as client:
            for request in plans[k::N_CLIENTS]:
                client.request({"op": "plan", **request})

    _run_clients(client_loop)


# ----------------------------------------------------------------------
# daemon status counts (free: no tracing needed)
# ----------------------------------------------------------------------
def _server_counts(status: dict) -> dict:
    cache = status["plan_cache"]
    memo = status["allocation_memo"]
    counters = status["metrics"]["counters"]
    return {
        "plan_cache_hits": cache["hits"],
        "plan_cache_misses": cache["misses"],
        "plan_cache_evictions": cache["evictions"],
        "alloc_memo_hits": memo["hits"],
        "alloc_memo_misses": memo["misses"],
        **{name: status["supervisor"].get(name, 0) for name in SUPERVISOR_COUNTERS},
        **{name: counters.get(name, 0) for name in SERVER_COUNTERS},
    }


def status_counts(daemon: sut.Daemon, fleet: bool) -> Counter:
    status = daemon.status()
    counts: Counter = Counter()
    if not fleet:
        counts.update(_server_counts(status))
        return counts
    counters = status["metrics"]["counters"]
    counts.update({name: counters.get(name, 0) for name in GATEWAY_COUNTERS})
    for row in status["backends"]:
        counts.update(_server_counts(daemon.status(row["address"])))
    return counts


def _delta(after: Counter, before: Counter) -> dict:
    return {name: after[name] - before[name] for name in sorted(after)}


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
def _daemon(workload: str, spans_path: "str | None") -> sut.Daemon:
    fleet = workload == "fleet-cold"
    address = f"unix:{RUN_DIR}/{'gateway' if fleet else 'plan'}.sock"
    if fleet:
        args = ["fleet", "--backends", str(FLEET_BACKENDS), "--socket", address,
                "--socket-dir", str(RUN_DIR / "fleet")]
    else:
        args = ["serve", "--socket", address]
    if spans_path is None:
        argv = ["-m", "repro", *args]
    else:
        argv = [str(Path(__file__).with_name("traced.py")), spans_path, *args]
    return sut.Daemon(argv, address, Path.cwd())


def _start(workload: str, fill_plans: "list[dict]", spans_path=None):
    """Start the daemon and fill it; returns it with the set-up seconds."""
    daemon = _daemon(workload, spans_path)
    seconds = daemon.start()
    t0 = time.perf_counter()
    try:
        fill(daemon.address, fill_plans)
    except BaseException:
        daemon.stop()
        raise
    return daemon, seconds + time.perf_counter() - t0


def serve(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    fleet = workload == "fleet-cold"
    frontier = pama_frontier()
    if workload == "serve-hot":
        fill_plans = streams.hot_working_set(seed)
        position = {id(request): k for k, request in enumerate(fill_plans)}
        requests = streams.hot_requests(seed, fill_plans)

        def key_of(index, request):
            return position[id(request)]
    else:
        # Warm-up: first contact with each scenario fills the allocation
        # memo and runs lazy imports; drawn apart from the timed stream.
        warm = streams.cold_requests(f"warm-up-{seed}")
        fill_plans = [next(warm) for _ in range(WARM_UP)]
        requests = streams.cold_requests(seed)

        def key_of(index, request):
            return index

    stream = streams.Stream(requests)
    run = Run()
    setups = []
    daemon = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        daemon, setup_s = _start(workload, fill_plans)
        setups.append(setup_s)
    try:
        window_s = seconds / 2 if trace else seconds
        before = status_counts(daemon, fleet)
        window = closed_loop(
            daemon.address, stream, window_s, key_of, daemon.cpu_seconds
        )
        rss = daemon.peak_rss_mb()
        counts = _delta(status_counts(daemon, fleet), before)
    finally:
        daemon.stop()
    ops_per_s, cpu_ms_per_op, p50_ms = _serve_figures(run, window, frontier, seed)
    run.counts = counts
    run.metrics = {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50_ms,
        "latency_p99_ms": percentile(window.latencies, 99.0) * 1e3,
        "cpu_ms_per_op": cpu_ms_per_op,
        "setup_s": statistics.median(setups),
        "rss_peak_mb": rss,
    }
    if trace:
        _traced_serve(run, workload, stream, window_s, key_of, fill_plans, frontier, seed)
    return run


def _serve_figures(run: Run, window: Window, frontier, seed: int):
    """Gate the window's answers into ``run``; returns its passed ops/s,
    CPU ms per passed op, and p50 latency in ms (medians over slices)."""
    failed, problems = gate.gate_answers(window.answers, frontier, seed)
    errors = sum(window.errors.values())
    served = window.answers.served
    run.attempted += served + errors
    run.failed += failed + errors
    run.problems += problems + [
        f"{count} {code} errors" for code, count in sorted(window.errors.items())
    ]
    run.latency_samples += len(window.latencies)
    if not served:
        return 0.0, 0.0, 0.0
    passed = (served - failed) / served
    rate, cpu_ms, p50_ms = slice_medians(_window_slices(window))
    return rate * passed, cpu_ms / max(passed, 1e-9), p50_ms


def _traced_serve(run, workload, stream, seconds, key_of, fill_plans, frontier, seed):
    fleet = workload == "fleet-cold"
    spans_path = str(RUN_DIR / "spans.json")
    tracer = tracing.Tracer()
    tracing.install_client(tracer)
    tracer.enabled = False
    daemon, _ = _start(workload, fill_plans, spans_path)
    try:
        before = status_counts(daemon, fleet)
        tracer.enabled = True
        window = closed_loop(daemon.address, stream, seconds, key_of, daemon.cpu_seconds)
        tracer.enabled = False
        counts = _delta(status_counts(daemon, fleet), before)
    finally:
        daemon.stop()
    ops_per_s, _, _ = _serve_figures(run, window, frontier, seed)
    counts["ops"] = window.answers.served
    counts["overhead_pct"] = 100.0 * (1.0 - ops_per_s / run.metrics["ops_per_s"])
    counts["served_by"] = dict(window.served_by)
    roles = {os.getpid(): "client"}
    spans = list(tracer.spans)
    files = [(spans_path, "gateway" if fleet else "server")]
    files += [(f"{spans_path}.backend-{k}", "backend") for k in range(FLEET_BACKENDS)]
    for path, role in files:
        if os.path.exists(path):
            # Daemons record from start to drain; keep the timed window,
            # and the executor start that happened at daemon start.
            loaded = [
                span for span in tracing.load_spans(path)
                if window.start_ns <= span[tracing.START] <= window.end_ns
                or span[tracing.NAME] == "executor.init"
            ]
            roles.update({span[tracing.SID] >> 32: role for span in loaded})
            spans += loaded
    _analyse(run, workload, layers.SpanSet(spans, roles), counts, sweep=False)


def _analyse(run: Run, workload: str, spans, counts: dict, *, sweep: bool) -> None:
    run.layer = layers.layer_metrics(spans, counts, sweep=sweep)
    run.breakdown = spans.breakdown()
    run.claims = layers.claims(workload, spans, run.layer)
    run.counts = {k: v for k, v in counts.items() if k != "served_by"}


# ----------------------------------------------------------------------
# the sweep workload
# ----------------------------------------------------------------------
def _pool_setup(seed: int, workers: int) -> float:
    """Frontier, grid, and a process pool answering its first cell."""
    t0 = time.perf_counter()
    frontier = pama_frontier()
    grid = streams.sweep_grid(seed)
    with SupervisedExecutor(frontier, n_workers=workers) as executor:
        executor.submit(grid[0]).result()
    return time.perf_counter() - t0


@dataclass
class Passes:
    """Whole sweep passes of one timed window."""

    slices: list = field(default_factory=list)  #: one ``slice_medians`` slice per pass
    cells: int = 0
    failed: int = 0
    rows: "list | None" = None  #: the first pass's rows


def _sweep_window(grid, frontier, workers, seconds, tracer=None) -> Passes:
    """Whole passes until ``seconds`` have gone."""
    passes = Passes()
    deadline = time.perf_counter() + seconds
    while not passes.slices or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        cpu0 = sut.cpu_seconds(os.getpid(), reaped_children=True)
        clear_allocation_cache()
        report = batch.run_grid(grid, frontier, n_workers=workers)
        cpu1 = sut.cpu_seconds(os.getpid(), reaped_children=True)
        # Latency of the planning cells only: a static cell takes a tenth
        # of a proposed one, and the median of an even split of the two
        # would fall in the gap between them.
        latencies = sorted(
            o.metrics.wall_s for o in report.outcomes if o.cell.policy == "proposed"
        )
        passes.slices.append(
            (time.perf_counter() - t0, cpu1 - cpu0, len(grid), latencies)
        )
        passes.cells += len(grid)
        passes.failed += len(report.failures)
        rows = report.rows()
        if passes.rows is None:
            passes.rows = rows
        elif rows != passes.rows:
            passes.failed += sum(1 for a, b in zip(rows, passes.rows) if a != b)
            passes.failed += abs(len(rows) - len(passes.rows))
        if tracer is not None:
            tracer.absorb(report.outcomes)
    return passes


def _sweep_figures(run: Run, passes: Passes, grid, frontier, seed: int):
    """Gate the passes into ``run``; returns passed cells/s, CPU ms per
    passed cell, and p50 latency in ms (medians over passes)."""
    passed = _score_sweep(run, grid, frontier, seed, passes) / passes.cells
    rate, cpu_ms, p50_ms = slice_medians(passes.slices)
    return rate * passed, cpu_ms / max(passed, 1e-9), p50_ms


def sweep(seed: int, seconds: float, trace: bool) -> Run:
    workers = n_cores()
    setups = [_pool_setup(seed, workers) for _ in range(1 if trace else SETUP_REPEATS)]
    frontier = pama_frontier()
    grid = streams.sweep_grid(seed)
    window_s = seconds / 2 if trace else seconds
    run = Run()
    passes = _sweep_window(grid, frontier, workers, window_s)
    child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    ops_per_s, cpu_ms_per_op, p50_ms = _sweep_figures(run, passes, grid, frontier, seed)
    latencies = sorted(x for *_, lat in passes.slices for x in lat)
    run.latency_samples = len(latencies)
    run.counts = {"passes": len(passes.slices), "cells": passes.cells}
    run.metrics = {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50_ms,
        "latency_p99_ms": percentile(latencies, 99.0) * 1e3,
        "cpu_ms_per_op": cpu_ms_per_op,
        "setup_s": statistics.median(setups),
        "rss_peak_mb": sut.peak_rss_mb(os.getpid()) + workers * child_mb,
    }
    if trace:
        tracer = tracing.Tracer()
        tracing.install_planner(tracer)
        tracer.install(batch, "run_grid", "sweep.pass")
        passes = _sweep_window(grid, frontier, workers, window_s, tracer)
        tracer.enabled = False
        traced_ops_per_s, _, _ = _sweep_figures(run, passes, grid, frontier, seed)
        counts = {
            "ops": passes.cells,
            "overhead_pct": 100.0 * (1.0 - traced_ops_per_s / ops_per_s),
            "cell_failures": passes.failed,
            "passes": len(passes.slices),
        }
        spans = layers.SpanSet(tracer.spans, {os.getpid(): "sweep"})
        _analyse(run, "sweep", spans, counts, sweep=True)
    return run


def _score_sweep(run: Run, grid, frontier, seed: int, passes: Passes) -> int:
    """Rows must repeat bit for bit across passes and match ``run_cell``
    on a seeded sample of cells; returns the passed cells."""
    failed = passes.failed
    if failed:
        run.problems.append(f"{failed} sweep cells failed or changed between passes")
    rng = random.Random(f"reference-{seed}")
    for index in rng.sample(range(len(grid)), SWEEP_REFERENCE_SAMPLE):
        reference = batch.run_cell(grid[index], frontier).cell.row()
        if index >= len(passes.rows) or passes.rows[index] != reference:
            failed += len(passes.slices)
            run.problems.append(f"sweep cell {index} differs from run_cell")
    failed = min(failed, passes.cells)
    run.attempted += passes.cells
    run.failed += failed
    return passes.cells - failed


# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    RUN_DIR.mkdir(parents=True)
    (RUN_DIR / "fleet").mkdir()
    try:
        if workload == "sweep":
            return sweep(seed, seconds, trace)
        return serve(workload, seed, seconds, trace)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

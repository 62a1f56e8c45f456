"""Parallel batch evaluation of sweep grids.

Every ablation/table benchmark reduces to the same workload shape: a grid
of (scenario × policy × knob) cells, each cell a *pure function* of its
inputs, tabulated into rows.  This module is the one engine behind that
shape:

* :class:`CellSpec` describes one grid cell (a fully-materialized scenario
  plus policy name and run knobs — no callables, so cells ship to worker
  processes).
* :func:`run_cell` executes one cell through the policy registry and
  captures per-cell metrics (wall time, allocation-cache hits/misses,
  Algorithm-1 iterations to feasibility).
* :func:`run_grid` runs a whole grid either serially or fanned out over a
  ``ProcessPoolExecutor`` with chunked scheduling, and returns a
  :class:`SweepReport` with the cells in grid order plus aggregate cache
  and timing numbers.

Determinism guarantee
---------------------
Cells are pure functions of immutable inputs and workers run the exact
same code path as the serial loop, so the parallel runner's rows are
**bit-identical** to the serial runner's, in the same order (``map``
preserves submission order; results are additionally index-sorted).  The
allocation memo cannot perturb this: :func:`~repro.core.allocation.allocate`
is deterministic, so a cache hit returns the same value a fresh computation
would.

Cache model
-----------
Grids frequently revisit one planning problem — every ``n_periods`` or
``supply_factor`` knob value shares the scenario's Algorithm-1 allocation.
The runner therefore (a) pre-plans each unique scenario **once** in the
parent process, (b) ships the resulting allocation-memo entries to every
worker via the pool initializer, and (c) lets workers look plans up by
content hash (schedule values + battery spec + knobs).  Identical
allocations are computed once per grid instead of once per cell.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.allocation import (
    AllocationResult,
    allocation_cache_entries,
    allocation_cache_stats,
    preload_allocation_cache,
    set_allocation_cache_enabled,
)
from ..core.pareto import OperatingFrontier
from ..scenarios.paper import PaperScenario
from ..util.jsonio import sanitize_for_json
from .energy import EnergyRunResult, build_manager, run_demand_follower, run_managed

__all__ = [
    "SweepCell",
    "CellSpec",
    "CellMetrics",
    "CellOutcome",
    "CellExecutor",
    "SweepReport",
    "register_policy",
    "policy_names",
    "run_cell",
    "run_grid",
    "warm_plans",
    "default_workers",
]


# ----------------------------------------------------------------------
# grid cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One evaluated grid cell of a sweep."""

    scenario: str
    policy: str
    knob: object  #: the swept value (None for plain scenario sweeps)
    result: EnergyRunResult

    def row(self) -> tuple:
        """Flat row: (scenario, policy, knob, wasted, undersupplied, util)."""
        return (
            self.scenario,
            self.policy,
            self.knob,
            self.result.wasted,
            self.result.undersupplied,
            self.result.utilization,
        )


@dataclass(frozen=True)
class CellSpec:
    """One grid cell *to be* evaluated.

    The scenario is fully materialized (knob mutations are applied by the
    grid builder, in the parent), so a spec is picklable and the cell run
    is a pure function of this object plus the frontier.
    """

    scenario: PaperScenario
    policy: str
    knob: object = None
    n_periods: int = 2
    supply_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.n_periods < 1:
            raise ValueError(f"n_periods must be >= 1, got {self.n_periods}")


@dataclass(frozen=True)
class CellMetrics:
    """Per-cell execution metrics captured by :func:`run_cell`."""

    wall_s: float  #: cell wall-clock time in its process
    cache_hits: int  #: allocation-memo hits charged to this cell
    cache_misses: int  #: allocation-memo misses charged to this cell
    plan_iterations: int | None  #: Algorithm-1 passes (None for plan-free policies)
    plan_used_fallback: bool | None
    plan_feasible: bool | None


@dataclass(frozen=True)
class CellOutcome:
    """A cell's result row plus its execution metrics."""

    index: int  #: position in the submitted grid (rows are ordered by it)
    cell: SweepCell
    metrics: CellMetrics


# ----------------------------------------------------------------------
# policy registry (the single dispatch shared by serial and parallel paths)
# ----------------------------------------------------------------------
PolicyRunner = Callable[[CellSpec, "OperatingFrontier | None"], EnergyRunResult]


def _run_proposed(spec: CellSpec, frontier: OperatingFrontier | None) -> EnergyRunResult:
    if frontier is None:
        raise ValueError("the 'proposed' policy needs an operating frontier")
    return run_managed(
        spec.scenario,
        frontier,
        n_periods=spec.n_periods,
        supply_factor=spec.supply_factor,
    )


def _run_static(spec: CellSpec, frontier: OperatingFrontier | None) -> EnergyRunResult:
    return run_demand_follower(
        spec.scenario,
        n_periods=spec.n_periods,
        supply_factor=spec.supply_factor,
    )


#: policy name → runner; extended via :func:`register_policy`
_POLICIES: dict[str, PolicyRunner] = {
    "proposed": _run_proposed,
    "static": _run_static,
}

#: policies whose cells go through Algorithm-1 planning (pre-planned by the
#: parent so workers hit the allocation memo)
_PLANNING_POLICIES = {"proposed"}


def register_policy(name: str, runner: PolicyRunner, *, plans: bool = False) -> None:
    """Add a policy to the grid dispatch.

    ``plans=True`` marks the policy as allocation-planning, making the
    parallel runner pre-plan its scenarios in the parent for cache warm-up.
    """
    _POLICIES[name] = runner
    if plans:
        _PLANNING_POLICIES.add(name)


def policy_names() -> tuple[str, ...]:
    """Registered policy names, registration-ordered."""
    return tuple(_POLICIES)


def run_cell(
    spec: CellSpec, frontier: OperatingFrontier | None = None, *, index: int = 0
) -> CellOutcome:
    """Evaluate one grid cell with timing and cache accounting."""
    runner = _POLICIES.get(spec.policy)
    if runner is None:
        raise ValueError(f"unknown policy {spec.policy!r}")
    before = allocation_cache_stats()
    t0 = time.perf_counter()
    result = runner(spec, frontier)
    wall = time.perf_counter() - t0
    after = allocation_cache_stats()
    metrics = CellMetrics(
        wall_s=wall,
        cache_hits=after.hits - before.hits,
        cache_misses=after.misses - before.misses,
        plan_iterations=result.plan_iterations,
        plan_used_fallback=result.plan_used_fallback,
        plan_feasible=result.plan_feasible,
    )
    cell = SweepCell(spec.scenario.name, spec.policy, spec.knob, result)
    return CellOutcome(index=index, cell=cell, metrics=metrics)


# ----------------------------------------------------------------------
# the sweep report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepReport:
    """Everything :func:`run_grid` learned about one grid run."""

    outcomes: tuple[CellOutcome, ...]  #: grid order (index-sorted)
    wall_s: float  #: end-to-end wall time of the grid run
    warm_s: float  #: parent-side pre-planning time (parallel runs only)
    n_workers: int  #: 0 for the serial path
    chunksize: int
    cache_enabled: bool
    #: cells supervision gave up on (supervised parallel runs only); the
    #: surviving ``outcomes`` are still complete and index-ordered
    failures: tuple = ()

    @property
    def cells(self) -> list[SweepCell]:
        """The evaluated cells, in grid order."""
        return [o.cell for o in self.outcomes]

    def rows(self) -> list[tuple]:
        """Flat result rows, in grid order."""
        return [o.cell.row() for o in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(o.metrics.cache_hits for o in self.outcomes)

    @property
    def cache_misses(self) -> int:
        return sum(o.metrics.cache_misses for o in self.outcomes)

    @property
    def cache_hit_rate(self) -> float:
        """Allocation-memo hit rate over the cells' lookups."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def summary(self) -> dict:
        """JSON-serializable run report (the bench artifact's payload)."""
        return {
            "n_cells": len(self.outcomes),
            "n_failures": len(self.failures),
            "failures": [f.as_dict() for f in self.failures],
            "n_workers": self.n_workers,
            "chunksize": self.chunksize,
            "cache_enabled": self.cache_enabled,
            "wall_s": self.wall_s,
            "warm_s": self.warm_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "cells": [
                {
                    "scenario": o.cell.scenario,
                    "policy": o.cell.policy,
                    "knob": _jsonable(o.cell.knob),
                    "wall_s": o.metrics.wall_s,
                    "cache_hits": o.metrics.cache_hits,
                    "cache_misses": o.metrics.cache_misses,
                    "plan_iterations": o.metrics.plan_iterations,
                    "plan_used_fallback": o.metrics.plan_used_fallback,
                    "plan_feasible": o.metrics.plan_feasible,
                    "wasted": o.cell.result.wasted,
                    "undersupplied": o.cell.result.undersupplied,
                    "utilization": o.cell.result.utilization,
                }
                for o in self.outcomes
            ],
        }


def _jsonable(value: object) -> object:
    # Strict sanitizer: NaN/Inf → null, numpy → Python, opaque → repr.
    return sanitize_for_json(value)


# ----------------------------------------------------------------------
# worker plumbing
# ----------------------------------------------------------------------
_worker_frontier: OperatingFrontier | None = None

#: How often a pool worker checks that the process that started it lives.
_PARENT_POLL_S = 1.0


def _exit_with_parent(parent_pid: int) -> None:
    """Poll until this worker is re-parented (its parent died, even by
    SIGKILL, which runs no cleanup), then exit so it is not left orphaned.

    Not ``PR_SET_PDEATHSIG``: that fires when the *thread* that forked the
    worker exits, and ``ProcessPoolExecutor`` forks from whichever thread
    first submits — a daemon connection thread whose exit would kill a
    healthy pool.
    """
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _init_worker(
    frontier: OperatingFrontier | None,
    entries: list[tuple[tuple, AllocationResult]],
    cache_enabled: bool,
) -> None:
    # Workers forked from a daemon inherit its Python-level signal
    # handlers.  Running the parent's SIGTERM drain inside a worker is
    # catastrophic: ``shutdown(2)`` on the *inherited* listener fd
    # un-listens the shared socket for the parent too, and the worker
    # wedges in drain logic so the pool can never join it.  Restore the
    # default dispositions so ``Process.terminate()`` just kills workers.
    import signal as _signal

    _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_parent,
        args=(os.getppid(),),
        name="parent-watch",
        daemon=True,
    ).start()
    global _worker_frontier
    _worker_frontier = frontier
    set_allocation_cache_enabled(cache_enabled)
    if cache_enabled and entries:
        preload_allocation_cache(entries)


def _run_indexed_cell(item: tuple[int, CellSpec]) -> CellOutcome:
    index, spec = item
    return run_cell(spec, _worker_frontier, index=index)


def warm_plans(
    cells: Sequence[CellSpec], frontier: OperatingFrontier | None
) -> int:
    """Pre-plan each unique planning scenario once (in the calling process).

    Populates the allocation memo so identical allocations are computed
    once per grid; returns the number of unique scenarios planned.
    """
    if frontier is None:
        return 0
    seen: set[PaperScenario] = set()
    for spec in cells:
        if spec.policy not in _PLANNING_POLICIES:
            continue
        if spec.scenario in seen:
            continue
        seen.add(spec.scenario)
        build_manager(spec.scenario, frontier).plan()
    return len(seen)


# ----------------------------------------------------------------------
# the reusable executor (shared by run_grid and the plan-serving daemon)
# ----------------------------------------------------------------------
class CellExecutor:
    """A long-lived evaluation engine for :class:`CellSpec` cells.

    Wraps the pool / warm-start plumbing that used to live inline in
    :func:`run_grid` so one-shot grid runs and the plan-serving daemon
    share the exact same execution path:

    * ``n_workers <= 1`` — cells run in this process on a single-thread
      executor.  They share the parent's allocation memo directly, so a
      resident daemon accumulates warm plans across requests for free.
    * ``n_workers > 1`` — cells fan out over a ``ProcessPoolExecutor``
      whose workers are warm-started with the parent memo's entries at
      pool creation (each worker's memo then grows organically).

    :meth:`submit` returns a ``concurrent.futures.Future`` resolving to a
    :class:`CellOutcome`, which is what gives the daemon per-request
    deadlines (bounded waits) and cancellation of still-queued work;
    :meth:`map_cells` preserves :func:`run_grid`'s chunked-``map``
    scheduling for whole grids.
    """

    def __init__(
        self,
        frontier: OperatingFrontier | None = None,
        *,
        n_workers: int = 0,
        cache: bool = True,
        warm_entries: "list[tuple[tuple, AllocationResult]] | None" = None,
        mp_context=None,
    ):
        self.frontier = frontier
        self.n_workers = max(0, int(n_workers))
        self.cache = bool(cache)
        self._closed = False
        self._outstanding = 0
        self._outstanding_lock = threading.Lock()
        if self.n_workers <= 1:
            self._mode = "thread"
            self._pool: ThreadPoolExecutor | ProcessPoolExecutor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="cell-exec"
            )
            if self.cache and warm_entries:
                preload_allocation_cache(warm_entries)
        else:
            self._mode = "process"
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=mp_context,
                initializer=_init_worker,
                initargs=(frontier, list(warm_entries or ()), self.cache),
            )

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"thread"`` (in-process) or ``"process"`` (fan-out pool)."""
        return self._mode

    @property
    def queue_depth(self) -> int:
        """Cells submitted via :meth:`submit` and not yet finished —
        queued plus running.  The daemon's ``status`` RPC reports this so
        health probes can see replica load, not just liveness."""
        with self._outstanding_lock:
            return self._outstanding

    def _settle(self, future: "Future") -> None:
        with self._outstanding_lock:
            self._outstanding -= 1

    def worker_pids(self) -> tuple[int, ...]:
        """Pids of the pool's live worker processes (empty in thread mode).

        Reads ``ProcessPoolExecutor``'s internal process table — stable
        across supported CPythons and the only way to target workers for
        supervision (watchdog kills) and chaos injection.
        """
        if self._mode != "process" or self._closed:
            return ()
        processes = getattr(self._pool, "_processes", None)
        if not processes:
            return ()
        return tuple(
            p.pid for p in list(processes.values()) if p.pid is not None and p.is_alive()
        )

    def warm(self, cells: Sequence[CellSpec]) -> int:
        """Pre-plan the cells' unique planning scenarios into this process's
        memo (thread mode: directly usable; process mode: call *before*
        constructing the executor and pass ``allocation_cache_entries()``
        as ``warm_entries`` instead)."""
        return warm_plans(cells, self.frontier)

    def submit(self, spec: CellSpec, *, index: int = 0) -> "Future[CellOutcome]":
        """Schedule one cell; the future resolves to its :class:`CellOutcome`.

        Futures for not-yet-started cells honour ``Future.cancel()`` — the
        daemon's deadline path sheds queued work that can no longer make
        its deadline.
        """
        if self._closed:
            raise RuntimeError("executor is shut down")
        if spec.policy not in _POLICIES:
            raise ValueError(f"unknown policy {spec.policy!r}")
        if self._mode == "thread":
            future = self._pool.submit(run_cell, spec, self.frontier, index=index)
        else:
            future = self._pool.submit(_run_indexed_cell, (index, spec))
        with self._outstanding_lock:
            self._outstanding += 1
        future.add_done_callback(self._settle)
        return future

    def map_cells(
        self, cells: Sequence[CellSpec], *, chunksize: int = 1
    ) -> list[CellOutcome]:
        """Evaluate a whole grid, preserving submission order."""
        if self._closed:
            raise RuntimeError("executor is shut down")
        if self._mode == "thread":
            return [
                f.result()
                for f in [self.submit(spec, index=i) for i, spec in enumerate(cells)]
            ]
        return list(
            self._pool.map(_run_indexed_cell, enumerate(cells), chunksize=chunksize)
        )

    def shutdown(self, *, wait: bool = True, cancel_futures: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# the grid runner
# ----------------------------------------------------------------------
def run_grid(
    cells: Iterable[CellSpec],
    frontier: OperatingFrontier | None = None,
    *,
    n_workers: int | None = None,
    chunksize: int | None = None,
    cache: bool = True,
    warm: bool = True,
    mp_context=None,
    supervise: bool = True,
) -> SweepReport:
    """Evaluate a grid of cells, serially or across worker processes.

    Parameters
    ----------
    cells:
        The grid, in the order rows should come back.
    frontier:
        Operating frontier for planning policies (shipped to each worker
        once via the pool initializer).
    n_workers:
        ``None``/``0``/``1`` → run serially in this process.  Otherwise a
        ``ProcessPoolExecutor`` with this many workers fans the cells out.
    chunksize:
        Cells per worker task; default splits the grid into ~4 chunks per
        worker.  Keep knob-sweep cells of one scenario adjacent in ``cells``
        so chunks inherit cache locality.
    cache:
        Toggle the allocation memo for this run (the serial baseline of the
        parallel-sweep bench disables it to measure the uncached cost).
    warm:
        Pre-plan unique scenarios in the parent and ship the memo entries
        to the workers (parallel path only; no-op when ``cache`` is off).
    mp_context:
        Optional ``multiprocessing`` context (e.g. for spawn-vs-fork tests).
    supervise:
        Run the parallel path under a
        :class:`~repro.analysis.supervisor.SupervisedExecutor`: a worker
        crash (e.g. a cell calling ``os._exit``) costs only the poison
        cell — reported in ``SweepReport.failures`` — instead of the whole
        grid.  Supervised runs submit cells individually (no chunked
        ``map``), so ``report.chunksize`` is 1.  ``supervise=False``
        restores the bare chunked executor.

    Returns the :class:`SweepReport`; ``report.cells``/``report.rows()`` are
    bit-identical between serial and parallel runs of the same grid.
    """
    cells = list(cells)
    for spec in cells:
        if spec.policy not in _POLICIES:
            raise ValueError(f"unknown policy {spec.policy!r}")
    serial = n_workers is None or n_workers <= 1
    t_start = time.perf_counter()

    previous_cache = set_allocation_cache_enabled(cache)
    try:
        if serial:
            outcomes = [
                run_cell(spec, frontier, index=i) for i, spec in enumerate(cells)
            ]
            wall = time.perf_counter() - t_start
            return SweepReport(
                outcomes=tuple(outcomes),
                wall_s=wall,
                warm_s=0.0,
                n_workers=0,
                chunksize=1,
                cache_enabled=cache,
            )

        warm_s = 0.0
        entries: list[tuple[tuple, AllocationResult]] = []
        if cache and warm:
            t_warm = time.perf_counter()
            warm_plans(cells, frontier)
            entries = allocation_cache_entries()
            warm_s = time.perf_counter() - t_warm

        failures: list = []
        if supervise:
            # Imported here: supervisor builds on this module's executor.
            from .supervisor import CellFailure, SupervisedExecutor

            chunksize = 1  # per-cell submission decouples cell fates
            with SupervisedExecutor(
                frontier,
                n_workers=n_workers,
                cache=cache,
                warm_entries=entries,
                mp_context=mp_context,
            ) as executor:
                results = executor.map_cells(cells)
            outcomes = [r for r in results if not isinstance(r, CellFailure)]
            failures = [r for r in results if isinstance(r, CellFailure)]
        else:
            if chunksize is None:
                chunksize = max(1, -(-len(cells) // (4 * n_workers)))
            with CellExecutor(
                frontier,
                n_workers=n_workers,
                cache=cache,
                warm_entries=entries,
                mp_context=mp_context,
            ) as executor:
                outcomes = executor.map_cells(cells, chunksize=chunksize)
    finally:
        set_allocation_cache_enabled(previous_cache)

    outcomes.sort(key=lambda o: o.index)
    wall = time.perf_counter() - t_start
    return SweepReport(
        outcomes=tuple(outcomes),
        wall_s=wall,
        warm_s=warm_s,
        n_workers=n_workers,
        chunksize=chunksize,
        cache_enabled=cache,
        failures=tuple(sorted(failures, key=lambda f: f.index)),
    )


def default_workers() -> int:
    """Worker count for ``--workers auto``: the visible CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1

"""The plan-serving daemon.

:class:`PlanServer` is the paper's resident controller as a service: a
long-running process that turns plan requests into ``(n, f, v)``
allocation results over a Unix or TCP socket, speaking the NDJSON
protocol of :mod:`repro.service.protocol`.

Serving model
-------------
* **Connections** — one thread per connection; requests on a connection
  are answered in order.  Concurrency comes from opening more
  connections (the bench drives 8 at once).
* **Caching** — finished plans live in a bounded LRU keyed by the
  request content digest.  A hit is answered in the connection thread,
  no dispatch at all.
* **Coalescing** — concurrent identical misses share one computation:
  the first requester submits to the executor, later ones attach to the
  same future.
* **Batching** — distinct misses fan out over the shared
  :class:`~repro.analysis.batch.CellExecutor` (the same pool/warm-start
  machinery the sweep runner uses), in-process for ``n_workers <= 1`` or
  across a warm-started ``ProcessPoolExecutor`` otherwise.
* **Deadlines** — a request's ``deadline_s`` (or the server default)
  bounds its wait.  On expiry the waiter answers ``deadline_exceeded``
  immediately; if it was the computation's last waiter and the work has
  not started, the future is cancelled (best-effort cancellation —
  running work completes and still populates the cache).
* **Backpressure** — at most ``max_pending`` computations may be in
  flight; beyond that, requests are *load-shed* with an ``overloaded``
  error response instead of queueing unboundedly.
* **Drain** — SIGTERM/SIGINT (or the ``shutdown`` RPC) stop accepting
  work, let in-flight computations finish (bounded by
  ``drain_timeout_s``), flush their responses, and exit cleanly.
* **Supervision** — the executor is a
  :class:`~repro.analysis.supervisor.SupervisedExecutor`: a crashed or
  hung worker triggers a pool rebuild and resubmission instead of
  failing every in-flight request, and repeat offenders are quarantined
  (surfacing as structured ``internal`` errors, not pool casualties).
* **Degraded mode** — when the pool is rebuilding (or just broke, or
  the replica is saturated past ``degraded_high_water``), a cache miss
  is answered with the *nearest* stale-but-valid cached plan for the
  same (scenario, policy, n_periods) — flagged ``degraded: true`` and
  counted — rather than shed.  The paper throttles before crossing
  ``Cmin`` instead of browning out; the daemon serves stale before
  erroring.
* **Snapshots** — with ``snapshot_path`` set, the plan cache is
  persisted atomically (and reloaded at start), so warm restarts keep
  their hit rate and their degraded-mode fallback inventory.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Mapping

from ..analysis.batch import CellOutcome, CellSpec, policy_names
from ..analysis.supervisor import CellFailure, SupervisedExecutor
from ..core.allocation import (
    allocation_cache_entries,
    allocation_cache_maxsize,
    allocation_cache_stats,
    set_allocation_cache_maxsize,
)
from ..core.pareto import OperatingFrontier
from ..scenarios.paper import pama_frontier
from .cache import LRUCache, load_cache_snapshot, save_cache_snapshot
from .protocol import (
    PlanRequest,
    ProtocolError,
    decode_message,
    encode_message,
    resolve_scenario,
    scenario_names,
)
from .transport import LineServer

__all__ = ["ServerConfig", "PlanServer"]

logger = logging.getLogger(__name__)

@dataclass
class ServerConfig:
    """Tunables of one :class:`PlanServer`."""

    address: str = "unix:repro-plan.sock"  #: ``unix:PATH`` or ``HOST:PORT``
    n_workers: int = 0  #: 0/1 = in-process execution; N>1 = process pool
    cache_size: int = 1024  #: plan-LRU entries
    max_pending: int = 64  #: in-flight computations before load-shedding
    max_sweep_cells: int = 512  #: largest grid one ``sweep`` request may ask for
    default_deadline_s: "float | None" = 30.0  #: None = wait forever
    drain_timeout_s: float = 10.0  #: bound on the SIGTERM drain
    metrics_interval_s: float = 60.0  #: periodic log cadence (0 disables)
    alloc_memo_size: "int | None" = None  #: resize the allocation memo
    verify: bool = False  #: run every computed plan through the oracle
    # --- supervision (see repro.analysis.supervisor) ---
    cell_timeout_s: "float | None" = None  #: watchdog kill for hung cells (None = off)
    max_cell_retries: int = 2  #: resubmissions after a pool break, per cell
    quarantine_threshold: int = 3  #: consecutive interruptions before quarantine
    # --- degraded mode ---
    degraded_grace_s: float = 5.0  #: serve stale this long after a pool break
    degraded_high_water: float = 0.9  #: saturation fraction of max_pending
    # --- crash-safe plan-cache snapshot ---
    snapshot_path: "str | None" = None  #: None disables persistence
    snapshot_interval_s: float = 30.0  #: periodic save cadence (0 = only at drain)


class _Inflight:
    """One in-flight plan computation plus its attached waiter count."""

    __slots__ = ("future", "waiters")

    def __init__(self, future):
        self.future = future
        self.waiters = 0


class PlanServer(LineServer):
    """See the module docstring for the serving model."""

    name = "plan-server"
    stopped_event = "service_stopped"

    def __init__(
        self,
        config: "ServerConfig | None" = None,
        *,
        frontier: "OperatingFrontier | None" = None,
    ):
        super().__init__(config or ServerConfig())
        self.frontier = frontier if frontier is not None else pama_frontier()
        self._verifier = None
        if self.config.verify:
            from ..verify.runtime import RuntimeVerifier

            self._verifier = RuntimeVerifier(
                frontier=self.frontier, metrics=self.metrics
            )
        self._plan_cache: "LRUCache[str, dict]" = LRUCache(self.config.cache_size)
        # Degraded-mode fallback inventory: (scenario, policy, n_periods) →
        # {digest: supply_factor} for every payload the plan cache holds,
        # so a miss under duress can be answered with the nearest stale plan.
        self._fallback_lock = threading.Lock()
        self._fallback_index: "dict[tuple, dict[str, float]]" = {}
        self._executor: "SupervisedExecutor | None" = None

        self._dispatch_lock = threading.Lock()
        self._inflight: "dict[str, _Inflight]" = {}
        self._pending = 0

    # ------------------------------------------------------------------
    # lifecycle (socket plumbing: repro.service.transport.LineServer)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Build the executor, bind, start the acceptor and metrics threads."""
        super().start()
        if self.config.metrics_interval_s > 0:
            self._spawn(self._metrics_loop, "metrics")
        if self.config.snapshot_path and self.config.snapshot_interval_s > 0:
            self._spawn(self._snapshot_loop, "snapshot")
        logger.info(
            "plan server listening on %s (%s executor, %d workers, "
            "cache %d, max_pending %d)",
            self._endpoint,
            self._executor.mode,
            self.config.n_workers,
            self.config.cache_size,
            self.config.max_pending,
        )

    def _setup(self) -> None:
        if self.config.alloc_memo_size is not None:
            set_allocation_cache_maxsize(self.config.alloc_memo_size)
        self._executor = SupervisedExecutor(
            self.frontier,
            n_workers=self.config.n_workers,
            cache=True,
            warm_entries=allocation_cache_entries(),
            max_retries=self.config.max_cell_retries,
            cell_timeout_s=self.config.cell_timeout_s,
            quarantine_threshold=self.config.quarantine_threshold,
            metrics=self.metrics,
        )
        if self.config.snapshot_path:
            restored = load_cache_snapshot(self._plan_cache, self.config.snapshot_path)
            if restored:
                self._rebuild_fallback_index()
                self.metrics.inc("snapshot_entries_loaded", restored)
                logger.info(
                    "restored %d cached plans from snapshot %s",
                    restored,
                    self.config.snapshot_path,
                )

    def _idle(self) -> bool:
        with self._dispatch_lock:
            return self._pending == 0

    def _quiesce(self) -> None:
        if self._executor is not None:
            # Cancelled futures wake any remaining waiters with a
            # ``shutting_down`` response — shed, never hung.
            self._executor.shutdown(wait=True, cancel_futures=True)

    def _release(self) -> None:
        self._save_snapshot(reason="drain")

    # The codec is called through this module's globals so the benchmark
    # tracer (perfbench/tracing.py) can wrap them here.
    def _decode(self, line: bytes) -> dict:
        return decode_message(line)

    def _encode(self, response: dict) -> bytes:
        return encode_message(response)

    # ------------------------------------------------------------------
    # plan-cache snapshot persistence
    # ------------------------------------------------------------------
    def _save_snapshot(self, *, reason: str) -> None:
        path = self.config.snapshot_path
        if not path:
            return
        try:
            n = save_cache_snapshot(self._plan_cache, path)
        except OSError as exc:
            logger.warning("plan-cache snapshot to %s failed: %s", path, exc)
            return
        self.metrics.inc("snapshot_saves")
        logger.debug("plan-cache snapshot (%s): %d entries -> %s", reason, n, path)

    def _snapshot_loop(self) -> None:
        while not self._stop_event.wait(self.config.snapshot_interval_s):
            self._save_snapshot(reason="periodic")

    def _rebuild_fallback_index(self) -> None:
        """Re-derive the degraded-mode index from the plan cache (after a
        snapshot restore)."""
        with self._fallback_lock:
            self._fallback_index.clear()
            for digest, payload in self._plan_cache.snapshot_items():
                try:
                    key = (
                        payload["scenario"],
                        payload["policy"],
                        payload["n_periods"],
                    )
                    factor = float(payload["supply_factor"])
                except (KeyError, TypeError, ValueError):
                    continue
                self._fallback_index.setdefault(key, {})[digest] = factor

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, op: object, message: Mapping) -> dict:
        if op == "ping":
            return {"pong": True, "draining": self._draining.is_set()}
        if op == "status":
            return self._handle_status()
        if self._draining.is_set():
            raise ProtocolError("shutting_down", "daemon is draining; retry elsewhere")
        if op == "plan":
            return self._handle_plan(message)
        if op == "sweep":
            return self._handle_sweep(message)
        if op == "shutdown":
            self._spawn(self.stop, "shutdown")
            return {"stopping": True}
        raise ProtocolError(
            "bad_request",
            f"unknown op {op!r}; known: plan, sweep, status, ping, shutdown",
        )

    # ------------------------------------------------------------------
    # degraded mode
    # ------------------------------------------------------------------
    def _degraded_reason(self) -> "str | None":
        """Why the replica should prefer stale plans right now (or None).

        Degraded when the worker pool is mid-rebuild, within the grace
        window after a pool break (workers are cold, the next miss may
        hit the same fault), or saturated past the high-water mark.
        """
        executor = self._executor
        if executor is None:
            return None
        if executor.rebuilding:
            return "pool_rebuilding"
        age = executor.last_break_age_s()
        if age is not None and age < self.config.degraded_grace_s:
            return "pool_break_grace"
        high_water = max(
            1, int(self.config.degraded_high_water * self.config.max_pending)
        )
        with self._dispatch_lock:
            pending = self._pending
        if pending >= high_water:
            return "saturated"
        return None

    def _degraded_fallback(self, request: PlanRequest, digest: str) -> "dict | None":
        """The cached plan for the same (scenario, policy, n_periods) whose
        ``supply_factor`` is nearest the request's — stale but valid, its
        payload self-consistent under the oracle.  None if nothing cached.
        """
        key = (request.scenario, request.policy, request.n_periods)
        with self._fallback_lock:
            candidates = dict(self._fallback_index.get(key, ()))
        best: "dict | None" = None
        best_distance = float("inf")
        for candidate_digest, factor in candidates.items():
            if candidate_digest == digest:
                continue  # that is the plan we don't have
            payload = self._plan_cache.peek(candidate_digest)
            if payload is None:  # evicted since indexing
                with self._fallback_lock:
                    entries = self._fallback_index.get(key)
                    if entries is not None:
                        entries.pop(candidate_digest, None)
                continue
            distance = abs(factor - request.supply_factor)
            if distance < best_distance:
                best, best_distance = payload, distance
        return best

    def _serve_degraded(self, payload: dict, reason: str) -> dict:
        self.metrics.inc("degraded_served")
        logger.debug("degraded serve (%s): %s", reason, payload.get("digest"))
        return {**payload, "cached": True, "degraded": True, "degraded_reason": reason}

    # ------------------------------------------------------------------
    def _handle_plan(self, message: Mapping) -> dict:
        request = PlanRequest.from_payload(message)
        digest = request.digest()
        cached = self._plan_cache.get(digest)
        if cached is not None:
            self.metrics.inc("plan_cache_hits")
            return {**cached, "cached": True}
        self.metrics.inc("plan_cache_misses")
        degraded = self._degraded_reason()
        if degraded is not None:
            fallback = self._degraded_fallback(request, digest)
            if fallback is not None:
                return self._serve_degraded(fallback, degraded)
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        executor = self._executor
        assert executor is not None
        submitted = False
        shed_message: "str | None" = None
        with self._dispatch_lock:
            if self._draining.is_set():
                raise ProtocolError("shutting_down", "daemon is draining")
            entry = self._inflight.get(digest)
            if entry is None:
                # The computation may have finished between the cache probe
                # and taking the lock; its done-callback cached the payload.
                finished = self._plan_cache.peek(digest)
                if finished is not None:
                    self.metrics.inc("plan_cache_hits")
                    return {**finished, "cached": True}
                if self._pending >= self.config.max_pending:
                    shed_message = (
                        f"{self._pending} computations in flight "
                        f"(max_pending={self.config.max_pending}); retry later"
                    )
                else:
                    future = executor.submit(request.to_cell_spec())
                    self._pending += 1
                    entry = _Inflight(future)
                    self._inflight[digest] = entry
                    submitted = True
            else:
                self.metrics.inc("plan_coalesced")
            if entry is not None and shed_message is None:
                entry.waiters += 1
        if shed_message is not None:
            # Saturated: a stale plan beats an error, an error beats an
            # unbounded queue.
            fallback = self._degraded_fallback(request, digest)
            if fallback is not None:
                return self._serve_degraded(fallback, "saturated")
            self.metrics.inc("requests_shed")
            raise ProtocolError("overloaded", shed_message)
        if submitted:
            # Registered outside the lock: a future that finished already
            # runs its callback inline here, and the callback itself takes
            # the dispatch lock.
            entry.future.add_done_callback(
                lambda f, d=digest, r=request: self._on_plan_done(d, r, f)
            )
        try:
            outcome = entry.future.result(timeout=deadline_s)
        except (FuturesTimeoutError, TimeoutError):
            self.metrics.inc("deadline_exceeded")
            raise ProtocolError(
                "deadline_exceeded",
                f"plan {digest[:12]} not ready within {deadline_s}s",
            ) from None
        except CancelledError:
            raise ProtocolError(
                "shutting_down", "plan computation cancelled during drain"
            ) from None
        except Exception as exc:
            raise ProtocolError(
                "internal", f"plan computation failed: {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            # The cancel must happen outside the lock: cancelling a queued
            # future runs its done-callback inline, and the callback takes
            # this lock.  Unpublishing the entry first keeps later
            # identical requests from attaching to a future that is about
            # to be cancelled.
            with self._dispatch_lock:
                entry.waiters -= 1
                abandoned = (
                    entry.waiters == 0
                    and not entry.future.done()
                    and not entry.future.running()
                )
                if abandoned:
                    self._inflight.pop(digest, None)
            if abandoned and entry.future.cancel():
                self.metrics.inc("plans_cancelled")
        if isinstance(outcome, CellFailure):
            # Supervision gave up on this cell (poison/quarantined).  A
            # stale neighbour still beats an error if we have one.
            self.metrics.inc("plan_failures")
            fallback = self._degraded_fallback(request, digest)
            if fallback is not None:
                return self._serve_degraded(fallback, "cell_failure")
            raise ProtocolError(
                "internal",
                f"plan computation failed ({outcome.reason} after "
                f"{outcome.attempts} attempt(s)): {outcome.message}",
            )
        return {**self._plan_payload(request, digest, outcome), "cached": False}

    def _on_plan_done(self, digest: str, request: PlanRequest, future) -> None:
        with self._dispatch_lock:
            self._inflight.pop(digest, None)
            self._pending -= 1
        if future.cancelled() or future.exception() is not None:
            return
        result = future.result()
        if isinstance(result, CellFailure):
            return  # failures are answered, never cached
        payload = self._plan_payload(request, digest, result)
        self._plan_cache.put(digest, payload)
        key = (request.scenario, request.policy, request.n_periods)
        with self._fallback_lock:
            self._fallback_index.setdefault(key, {})[digest] = request.supply_factor
        if self._verifier is not None:
            # Once per computed plan (cache hits re-serve a checked payload);
            # violations are counted and logged, never block serving.
            self._verifier.check_payload(payload)

    @staticmethod
    def _plan_payload(request: PlanRequest, digest: str, outcome: CellOutcome) -> dict:
        result = outcome.cell.result
        return {
            "scenario": request.scenario,
            "policy": request.policy,
            "n_periods": request.n_periods,
            "supply_factor": request.supply_factor,
            "digest": digest,
            "wasted": float(result.wasted),
            "undersupplied": float(result.undersupplied),
            "utilization": float(result.utilization),
            "plan_iterations": result.plan_iterations,
            "plan_used_fallback": result.plan_used_fallback,
            "plan_feasible": result.plan_feasible,
            "allocated_power": result.allocated_power,  # NaN → null on encode
            "compute_wall_s": outcome.metrics.wall_s,
            "alloc_cache_hits": outcome.metrics.cache_hits,
            "alloc_cache_misses": outcome.metrics.cache_misses,
        }

    # ------------------------------------------------------------------
    def _handle_sweep(self, message: Mapping) -> dict:
        names = message.get("scenarios")
        if not isinstance(names, list) or not names:
            raise ProtocolError("bad_request", "scenarios must be a non-empty list")
        policies = message.get("policies", ["proposed", "static"])
        if not isinstance(policies, list) or not policies:
            raise ProtocolError("bad_request", "policies must be a non-empty list")
        factors = message.get("supply_factors") or [None]
        if not isinstance(factors, list) or not factors:
            raise ProtocolError("bad_request", "supply_factors must be a list")
        n_periods = message.get("n_periods", 2)
        if not isinstance(n_periods, int) or isinstance(n_periods, bool) or n_periods < 1:
            raise ProtocolError("bad_request", "n_periods must be an int >= 1")
        deadline = message.get("deadline_s", self.config.default_deadline_s)
        for policy in policies:
            if policy not in policy_names():
                raise ProtocolError("unknown_policy", f"unknown policy {policy!r}")
        # Same grid nesting as the one-shot CLI sweep: scenario × factor × policy.
        cells = [
            CellSpec(
                scenario=resolve_scenario(name),
                policy=policy,
                knob=factor,
                n_periods=n_periods,
                supply_factor=1.0 if factor is None else float(factor),
            )
            for name in names
            for factor in factors
            for policy in policies
        ]
        if len(cells) > self.config.max_sweep_cells:
            raise ProtocolError(
                "bad_request",
                f"{len(cells)} cells exceeds max_sweep_cells="
                f"{self.config.max_sweep_cells}",
            )
        executor = self._executor
        assert executor is not None
        t0 = time.perf_counter()
        with self._dispatch_lock:
            if self._pending + len(cells) > self.config.max_pending:
                self.metrics.inc("requests_shed")
                raise ProtocolError(
                    "overloaded",
                    f"sweep of {len(cells)} cells would exceed "
                    f"max_pending={self.config.max_pending}; retry later",
                )
            futures = []
            for index, spec in enumerate(cells):
                future = executor.submit(spec, index=index)
                self._pending += 1
                futures.append(future)
        for future in futures:
            # Outside the lock — the callback takes it (see _handle_plan).
            future.add_done_callback(self._on_sweep_cell_done)
        end = None if deadline is None else time.monotonic() + float(deadline)
        rows = []
        try:
            for future, spec in zip(futures, cells):
                timeout = None if end is None else max(0.0, end - time.monotonic())
                try:
                    outcome = future.result(timeout=timeout)
                except (FuturesTimeoutError, TimeoutError):
                    self.metrics.inc("deadline_exceeded")
                    raise ProtocolError(
                        "deadline_exceeded",
                        f"sweep not finished within {deadline}s",
                    ) from None
                except CancelledError:
                    raise ProtocolError(
                        "shutting_down", "sweep cancelled during drain"
                    ) from None
                except Exception as exc:
                    raise ProtocolError(
                        "internal",
                        f"sweep cell failed: {type(exc).__name__}: {exc}",
                    ) from exc
                if isinstance(outcome, CellFailure):
                    raise ProtocolError(
                        "internal",
                        f"sweep cell {outcome.scenario}/{outcome.policy} failed "
                        f"({outcome.reason}): {outcome.message}",
                    )
                result = outcome.cell.result
                rows.append(
                    {
                        "scenario": spec.scenario.name,
                        "policy": spec.policy,
                        "supply_factor": spec.supply_factor,
                        "wasted": float(result.wasted),
                        "undersupplied": float(result.undersupplied),
                        "utilization": float(result.utilization),
                        "plan_iterations": result.plan_iterations,
                    }
                )
        finally:
            for future in futures:
                future.cancel()
        return {
            "n_cells": len(cells),
            "wall_s": time.perf_counter() - t0,
            "rows": rows,
        }

    def _on_sweep_cell_done(self, future) -> None:
        with self._dispatch_lock:
            self._pending -= 1

    # ------------------------------------------------------------------
    def _handle_status(self) -> dict:
        executor = self._executor
        memo = allocation_cache_stats()
        cache_stats = self._plan_cache.stats()
        degraded_reason = self._degraded_reason()
        with self._dispatch_lock:
            pending = self._pending
            inflight = len(self._inflight)
        # Minus this status request itself: the caller wants to know how
        # loaded the replica is, not that it is being asked.
        active = self._active_requests - 1
        return {
            # The one-stop load view gateway health probes read: how busy
            # is this replica right now, and is its cache pulling weight?
            "load": {
                "active_requests": active,
                "executor_queue_depth": (
                    executor.queue_depth if executor is not None else 0
                ),
                "pending": pending,
                "inflight": inflight,
                "plan_cache_hits": cache_stats.hits,
                "plan_cache_misses": cache_stats.misses,
                "plan_cache_hit_rate": cache_stats.hit_rate,
                "degraded": degraded_reason is not None,
                "degraded_reason": degraded_reason,
                "verify": (
                    self._verifier.snapshot()
                    if self._verifier is not None
                    else {"enabled": False, "plans_checked": 0, "violations": 0}
                ),
            },
            "server": {
                "address": self._endpoint,
                "pid": os.getpid(),
                "uptime_s": self.metrics.uptime_s,
                "draining": self._draining.is_set(),
                "n_workers": self.config.n_workers,
                "executor_mode": executor.mode if executor is not None else None,
                "pending": pending,
                "inflight": inflight,
                "active_requests": active,
                "executor_queue_depth": (
                    executor.queue_depth if executor is not None else 0
                ),
                "max_pending": self.config.max_pending,
                "default_deadline_s": self.config.default_deadline_s,
                "scenarios": list(scenario_names()),
                "policies": list(policy_names()),
                "worker_pids": (
                    list(executor.worker_pids()) if executor is not None else []
                ),
                "snapshot_path": self.config.snapshot_path,
            },
            "supervisor": (
                {
                    **executor.counters(),
                    "rebuilding": executor.rebuilding,
                    "last_break_age_s": executor.last_break_age_s(),
                }
                if executor is not None
                else {}
            ),
            "plan_cache": cache_stats.as_dict(),
            "allocation_memo": {
                "hits": memo.hits,
                "misses": memo.misses,
                "size": memo.size,
                "maxsize": allocation_cache_maxsize(),
                "hit_rate": memo.hit_rate,
            },
            "metrics": self.metrics.snapshot(),
        }

    # ------------------------------------------------------------------
    def _metrics_loop(self) -> None:
        while not self._stop_event.wait(self.config.metrics_interval_s):
            with self._dispatch_lock:
                pending = self._pending
            logger.info(
                "%s",
                self.metrics.log_line(
                    pending=pending,
                    plan_cache_size=len(self._plan_cache),
                ),
            )

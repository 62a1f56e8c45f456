"""The fleet gateway: one front door for N plan-serving replicas.

:class:`PlanGateway` speaks the same NDJSON protocol as
:class:`~repro.service.server.PlanServer` — any existing
:class:`~repro.service.client.PlanClient` can point at it unchanged —
but instead of computing plans it *routes* them:

* **Routing** — each ``plan`` request is routed by rendezvous hashing on
  its content digest (:mod:`repro.fleet.router`), so identical requests
  always land on the same replica and hit that replica's warm plan LRU.
  ``sweep`` requests route the same way on a digest of the grid fields.
* **Health** — a background monitor probes every replica's ``status``
  and per-request outcomes feed the same per-backend circuit breakers
  (:mod:`repro.fleet.health`); open breakers are routed around.
* **Retries** — transport failures and load-sheds fail over to the
  next-ranked replica with full-jitter backoff
  (:mod:`repro.fleet.retry`).  Deterministic rejections (unknown
  scenario, bad request, deadline exceeded) are returned immediately —
  no replica would answer differently.
* **Hedging** — optionally, a ``plan`` forward that has been in flight
  longer than a high percentile of recent latencies fires a second
  attempt at the next-ranked replica and takes whichever answers first.
  Plans are deterministic and content-cached, so duplicated work is
  bounded and harmless.
* **Aggregation** — ``status`` returns a fleet view: per-replica health,
  load, and cache stats plus fleet-wide totals.

Error contract: ``overloaded`` only when every healthy replica shed the
request; ``unavailable`` when no healthy replica could be reached at
all; everything else is the replica's own answer, passed through.
"""

from __future__ import annotations

import hashlib
import logging
import os
import queue
import random
import threading
import time
from dataclasses import dataclass, field

from ..service.client import ClientError, PlanServiceError
from ..service.protocol import (
    PlanRequest,
    ProtocolError,
    decode_message,
    encode_message,
)
from ..service.transport import LineServer
from ..util.jsonio import dumps_json
from .health import HealthMonitor
from .pool import PoolGroup
from .retry import BackoffPolicy, LatencyTracker
from .router import RendezvousRouter

__all__ = ["GatewayConfig", "PlanGateway"]

logger = logging.getLogger(__name__)

#: Error codes that mean "this replica cannot take the request right
#: now, another might" — they trigger failover, not failure.
_SHED_CODES = ("overloaded", "shutting_down")


@dataclass
class GatewayConfig:
    """Tunables of one :class:`PlanGateway`."""

    address: str = "unix:repro-fleet.sock"  #: gateway bind address
    backends: "tuple[str, ...]" = field(default_factory=tuple)  #: replica addresses
    request_timeout_s: "float | None" = 60.0  #: per-forward socket timeout
    max_attempts: int = 4  #: replica attempts per request (first included)
    backoff_base_s: float = 0.02  #: first-retry jitter ceiling
    backoff_cap_s: float = 0.5  #: retry jitter ceiling
    probe_interval_s: float = 1.0  #: health-probe cadence
    probe_timeout_s: float = 2.0  #: health-probe socket timeout
    failure_threshold: int = 3  #: consecutive transport failures to trip a breaker
    reset_timeout_s: float = 2.0  #: open → half-open delay
    hedge: bool = True  #: fire a second ``plan`` attempt on slow primaries
    hedge_quantile: float = 95.0  #: latency percentile that arms the hedge
    hedge_min_delay_s: float = 0.05  #: hedge never fires sooner than this
    hedge_max_delay_s: float = 1.0  #: ... nor later than this
    max_idle_per_backend: int = 8  #: pooled connections per replica
    drain_timeout_s: float = 10.0  #: bound on the SIGTERM drain
    rng_seed: "int | None" = None  #: seed the retry jitter (tests)


class PlanGateway(LineServer):
    """See the module docstring for the serving model."""

    name = "fleet-gateway"
    stopped_event = "gateway_stopped"

    def __init__(self, config: GatewayConfig):
        if not config.backends:
            raise ValueError("gateway needs at least one backend address")
        super().__init__(config)
        self._router = RendezvousRouter(config.backends)
        self._monitor = HealthMonitor(
            config.backends,
            interval_s=config.probe_interval_s,
            probe_timeout_s=config.probe_timeout_s,
            failure_threshold=config.failure_threshold,
            reset_timeout_s=config.reset_timeout_s,
        )
        self._pools = PoolGroup(
            list(config.backends),
            timeout_s=config.request_timeout_s,
            max_idle=config.max_idle_per_backend,
        )
        self._backoff = BackoffPolicy(
            base_s=config.backoff_base_s,
            cap_s=config.backoff_cap_s,
            max_attempts=config.max_attempts,
        )
        self._latency = LatencyTracker(
            quantile=config.hedge_quantile,
            min_delay_s=config.hedge_min_delay_s,
            max_delay_s=config.hedge_max_delay_s,
        )
        self._rng = random.Random(config.rng_seed)

    # ------------------------------------------------------------------
    # lifecycle (socket plumbing: repro.service.transport.LineServer)
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        self._monitor.start()
        logger.info(
            "fleet gateway listening on %s fronting %d backends "
            "(max_attempts %d, hedge %s)",
            self._endpoint,
            len(self.config.backends),
            self.config.max_attempts,
            "on" if self.config.hedge else "off",
        )

    def _quiesce(self) -> None:
        self._monitor.stop()

    def _release(self) -> None:
        self._pools.close()

    # The codec is called through this module's globals so the benchmark
    # tracer (perfbench/tracing.py) can wrap them here.
    def _decode(self, line: bytes) -> dict:
        return decode_message(line)

    def _encode(self, response: dict) -> bytes:
        return encode_message(response)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, op: object, message: dict) -> dict:
        if op == "ping":
            return {
                "pong": True,
                "draining": self._draining.is_set(),
                "role": "gateway",
                "backends": len(self.config.backends),
                "healthy_backends": len(self._monitor.healthy()),
            }
        if op == "status":
            return self._handle_status()
        if self._draining.is_set():
            raise ProtocolError("shutting_down", "gateway is draining")
        if op == "plan":
            # Validate at the edge: malformed requests never cost a
            # forward, and the digest doubles as the routing key.
            request = PlanRequest.from_payload(message)
            return self._forward(message, request.digest(), op="plan")
        if op == "sweep":
            return self._forward(message, self._sweep_key(message), op="sweep")
        if op == "shutdown":
            self._spawn(self.stop, "shutdown")
            return {"stopping": True, "role": "gateway"}
        raise ProtocolError(
            "bad_request",
            f"unknown op {op!r}; known: plan, sweep, status, ping, shutdown",
        )

    # ------------------------------------------------------------------
    # supervision hooks
    # ------------------------------------------------------------------
    def notify_backend_restarted(self, address: str) -> None:
        """Re-register a restarted backend (the fleet launcher's
        ``on_restart`` hook): force-close its circuit breaker, forget its
        stale health view, and drop pooled sockets that still point at the
        dead process — so traffic returns on the next request instead of
        after the breaker's reset window."""
        if address not in self._monitor.addresses:
            logger.warning("restart notification for unknown backend %s", address)
            return
        self._monitor.notify_restarted(address)
        self._pools.discard_idle(address)
        self.metrics.inc("backend_restarts")
        logger.info("backend %s re-registered after restart", address)

    @staticmethod
    def _sweep_key(message: dict) -> str:
        """Routing key for a sweep: digest of its grid-defining fields."""
        fields = {
            key: message.get(key)
            for key in ("scenarios", "policies", "supply_factors", "n_periods")
        }
        blob = dumps_json(fields, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def _forward(self, message: dict, key: str, *, op: str) -> dict:
        payload = {k: v for k, v in message.items() if k != "id"}
        ranked = self._router.rank(key)
        candidates = [addr for addr in ranked if self._monitor.allow(addr)]
        self.metrics.inc("forwards_total")
        if not candidates:
            self.metrics.inc("requests_unavailable")
            raise ProtocolError(
                "unavailable",
                f"no healthy backend for this request "
                f"(all {len(ranked)} breakers open)",
            )
        # Try distinct replicas in rendezvous order; wrap around so a
        # single-replica fleet still gets its full retry budget against
        # transient faults (e.g. a backend restarting in place).
        budget = self.config.max_attempts
        sequence = [candidates[i % len(candidates)] for i in range(budget)]
        shed: "PlanServiceError | None" = None
        transport: "ClientError | OSError | None" = None
        index = 0
        attempt = 0
        while index < len(sequence):
            if attempt > 0:
                time.sleep(self._backoff.delay_s(attempt - 1, self._rng))
            primary = sequence[index]
            backup = sequence[index + 1] if index + 1 < len(sequence) else None
            hedge_ok = (
                op == "plan"
                and self.config.hedge
                and backup is not None
                and backup != primary
            )
            if hedge_ok:
                consumed, outcome = self._hedged_attempt(primary, backup, payload)
            else:
                consumed, outcome = 1, self._classified_attempt(primary, payload)
            index += consumed
            attempt += consumed
            status, value = outcome
            if status == "ok":
                address, result = value
                return {**result, "served_by": address}
            if status == "reject":
                raise ProtocolError(value.code, value.message)
            if status == "shed":
                shed = value
            else:  # transport
                transport = value
        if shed is not None and transport is None:
            self.metrics.inc("requests_all_shed")
            raise ProtocolError(
                "overloaded",
                f"every healthy replica shed the request "
                f"(last: [{shed.code}] {shed.message})",
            )
        if shed is not None:
            self.metrics.inc("requests_all_shed")
            raise ProtocolError(
                "overloaded",
                f"all {attempt} attempts failed; last shed: "
                f"[{shed.code}] {shed.message}",
            )
        self.metrics.inc("requests_unavailable")
        raise ProtocolError(
            "unavailable",
            f"no replica reachable after {attempt} attempts (last: {transport})",
        )

    def _classified_attempt(self, address: str, payload: dict):
        """One forward to one replica → ``(status, value)``.

        ``("ok", (address, result))`` · ``("shed", error)`` — alive but
        refusing, try elsewhere · ``("reject", error)`` — deterministic
        answer, do not retry · ``("transport", error)`` — unreachable,
        breaker notified.
        """
        self.metrics.inc("forward_attempts")
        t0 = time.perf_counter()
        try:
            with self._pools[address].lease() as client:
                result = client.request(payload)
        except (ClientError, OSError) as exc:
            self._monitor.record_failure(address)
            if self._monitor.backend(address).breaker.state == "open":
                # A tripped breaker means the replica is gone; its pooled
                # sockets are dead too — drop them now, not one error at
                # a time.
                self._pools.discard_idle(address)
            self.metrics.inc("forward_transport_errors")
            return ("transport", exc)
        except PlanServiceError as exc:
            self._monitor.record_success(address)  # it answered: alive
            if exc.code in _SHED_CODES:
                self.metrics.inc("forward_shed")
                return ("shed", exc)
            return ("reject", exc)
        self._monitor.record_success(address)
        self._latency.observe(time.perf_counter() - t0)
        return ("ok", (address, result))

    def _hedged_attempt(self, primary: str, backup: str, payload: dict):
        """Primary attempt with a latency-triggered hedge to ``backup``.

        Returns ``(n_replicas_consumed, outcome)``.  The hedge fires only
        if the primary is still in flight after the tracker's delay; the
        first *successful* outcome wins (a fast failure from one side
        waits for the other before giving up).
        """
        outcomes: "queue.SimpleQueue" = queue.SimpleQueue()

        def attempt(address: str, kind: str) -> None:
            outcomes.put((kind, self._classified_attempt(address, payload)))

        threading.Thread(
            target=attempt, args=(primary, "primary"),
            name="fleet-forward-primary", daemon=True,
        ).start()
        try:
            first = outcomes.get(timeout=self._latency.hedge_delay_s())
        except queue.Empty:
            first = None
        if first is not None:
            # Primary answered before the hedge armed — backup untouched.
            return 1, first[1]
        self.metrics.inc("hedges_fired")
        threading.Thread(
            target=attempt, args=(backup, "hedge"),
            name="fleet-forward-hedge", daemon=True,
        ).start()
        first = outcomes.get()
        kind, outcome = first
        if outcome[0] == "ok":
            if kind == "hedge":
                self.metrics.inc("hedge_wins")
            return 2, outcome
        # The faster attempt failed; the slower one may still succeed.
        kind2, outcome2 = outcomes.get()
        if outcome2[0] == "ok":
            if kind2 == "hedge":
                self.metrics.inc("hedge_wins")
            return 2, outcome2
        # Both failed: prefer reporting the shed/reject over transport
        # noise (it is the more actionable answer).
        order = {"reject": 0, "shed": 1, "transport": 2}
        return 2, min(outcome, outcome2, key=lambda o: order[o[0]])

    # ------------------------------------------------------------------
    # fleet status
    # ------------------------------------------------------------------
    def _handle_status(self) -> dict:
        backends = self._monitor.snapshot()
        healthy = self._monitor.healthy()
        fleet = {
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
            "pending": 0,
            "active_requests": 0,
            "reachable": 0,
        }
        for row in backends:
            cache = row.get("plan_cache")
            if cache:
                fleet["plan_cache_hits"] += cache.get("hits", 0)
                fleet["plan_cache_misses"] += cache.get("misses", 0)
            load = row.get("load")
            if load:
                fleet["pending"] += load.get("pending", 0)
                fleet["active_requests"] += load.get("active_requests", 0)
            if row.get("healthy"):
                fleet["reachable"] += 1
        return {
            "gateway": {
                "address": self._endpoint,
                "pid": os.getpid(),
                "uptime_s": self.metrics.uptime_s,
                "draining": self._draining.is_set(),
                "active_requests": self._active_requests,
                "n_backends": len(self.config.backends),
                "healthy_backends": len(healthy),
                "router": "rendezvous",
                "max_attempts": self.config.max_attempts,
                "hedge": {
                    "enabled": self.config.hedge,
                    "quantile": self.config.hedge_quantile,
                    "current_delay_s": self._latency.hedge_delay_s(),
                    "samples": len(self._latency),
                },
            },
            "backends": backends,
            "fleet": fleet,
            "pools": self._pools.stats(),
            "metrics": self.metrics.snapshot(),
        }

"""The plan-serving daemon: a resident power-management service.

The paper's manager is a *resident controller*: it continuously turns
(schedule, battery, supply) state into ``(n, f, v)`` plans.  This package
is that controller as a network service — a long-running daemon that
accepts newline-delimited JSON requests over a Unix or TCP socket and
answers them off the same planning machinery the one-shot CLI uses:

* :mod:`repro.service.protocol` — request/response schemas, the
  content digest plan requests are cached under, and framing helpers;
* :mod:`repro.service.cache` — the bounded LRU fronting the planner;
* :mod:`repro.service.metrics` — request/latency/cache counters and
  histograms behind the ``status`` RPC and the periodic log line;
* :mod:`repro.service.transport` —
  :class:`~repro.service.transport.LineServer`, the socket lifecycle the
  daemon and the fleet gateway share (bind, self-healing acceptor,
  per-connection loop, request accounting, drain, signal handlers);
* :mod:`repro.service.server` — :class:`~repro.service.server.PlanServer`
  (request coalescing, executor batching, deadlines, backpressure,
  graceful drain);
* :mod:`repro.service.client` — :class:`~repro.service.client.PlanClient`,
  the thin blocking client the CLI and tests drive the daemon with.

See ``docs/SERVICE.md`` for the protocol reference.
"""

from .cache import CacheStats, LRUCache, load_cache_snapshot, save_cache_snapshot
from .client import ClientError, PlanClient, PlanServiceError
from .metrics import Histogram, ServiceMetrics
from .protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    PlanRequest,
    ProtocolError,
    decode_message,
    encode_message,
    parse_address,
    plan_payload_digest,
    scenario_names,
)
from .server import PlanServer, ServerConfig

__all__ = [
    "CacheStats",
    "LRUCache",
    "load_cache_snapshot",
    "save_cache_snapshot",
    "ClientError",
    "PlanClient",
    "PlanServiceError",
    "Histogram",
    "ServiceMetrics",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "PlanRequest",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "parse_address",
    "plan_payload_digest",
    "scenario_names",
    "PlanServer",
    "ServerConfig",
]

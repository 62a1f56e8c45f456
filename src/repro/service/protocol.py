"""Wire protocol of the plan-serving daemon.

Framing is newline-delimited JSON ("NDJSON"): every request and every
response is one JSON object on one ``\\n``-terminated line, UTF-8
encoded, at most :data:`MAX_LINE_BYTES` long.  A connection carries any
number of request/response pairs; requests on one connection are served
in order (concurrency comes from opening more connections).

Requests
--------
Every request carries ``op`` plus op-specific fields; ``id`` is optional
and echoed verbatim in the response so clients can match them up::

    {"id": 1, "op": "plan", "scenario": "scenario1", "policy": "proposed",
     "n_periods": 2, "supply_factor": 1.0, "deadline_s": 0.5}
    {"id": 2, "op": "sweep", "scenarios": ["scenario1", "scenario2"],
     "policies": ["proposed", "static"], "supply_factors": [1.0, 0.9]}
    {"id": 3, "op": "status"}
    {"id": 4, "op": "ping"}
    {"id": 5, "op": "shutdown"}

Responses
---------
``{"id": ..., "ok": true, "result": {...}}`` on success, or
``{"id": ..., "ok": false, "error": {"code": "...", "message": "..."}}``
with a code from :data:`ERROR_CODES`.  All floats are strict JSON — a
plan-free policy's per-slot ``allocated_power`` serializes as ``null``,
never a bare ``NaN`` token.

A result that is already encoded (an :class:`EncodedResult`, e.g. a
cached plan) is spliced into its frame by :func:`ok_frame`, byte for
byte what :func:`encode_message` of the matching :func:`ok_response`
writes, without decoding or re-encoding it.

Content digest
--------------
A plan request is cached and coalesced under :meth:`PlanRequest.digest`,
the SHA-256 of its canonical field encoding.  Two requests share a digest
iff they describe the same planning problem — the service-level analogue
of the content key :func:`repro.core.allocation.allocation_key` files
allocation problems under.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Mapping

from ..scenarios.library import library_scenarios
from ..scenarios.paper import PaperScenario, paper_scenarios
from ..util.jsonio import dumps_json
from ..analysis.batch import CellSpec, policy_names

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ERROR_CODES",
    "ProtocolError",
    "EncodedResult",
    "encode_message",
    "decode_message",
    "ok_response",
    "ok_frame",
    "error_response",
    "scenario_names",
    "resolve_scenario",
    "PlanRequest",
    "PLAN_PAYLOAD_DETERMINISTIC_FIELDS",
    "plan_payload_digest",
    "parse_address",
]

PROTOCOL_VERSION = 1

#: Upper bound on one framed line; longer lines are a protocol error
#: (keeps a misbehaving client from ballooning server memory).
MAX_LINE_BYTES = 1 << 20

#: Error codes a response may carry.
ERROR_CODES = (
    "bad_request",        #: malformed JSON / missing or invalid fields
    "unknown_scenario",   #: scenario name not in the registry
    "unknown_policy",     #: policy name not registered with the batch runner
    "deadline_exceeded",  #: the request's deadline elapsed before completion
    "overloaded",         #: load shed: too many distinct computations in flight
    "shutting_down",      #: daemon is draining; no new work accepted
    "unavailable",        #: gateway: no healthy replica reachable for this request
    "internal",           #: unexpected server-side failure
)


class ProtocolError(ValueError):
    """A request the server must answer with an error response."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class EncodedResult(bytes):
    """A ``result`` object already in the compact JSON that
    :func:`encode_message` writes for it (no newline).  A dispatcher that
    returns one has its reply framed by :func:`ok_frame` instead of being
    encoded again."""

    __slots__ = ()


def _check_frame_size(line: bytes) -> bytes:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("internal", f"message exceeds {MAX_LINE_BYTES} bytes")
    return line


def encode_message(payload: Mapping) -> bytes:
    """One NDJSON frame: strict JSON, compact separators, ``\\n`` terminator."""
    return _check_frame_size(
        dumps_json(payload, separators=(",", ":")).encode("utf-8") + b"\n"
    )


def _reject_constant(token: str) -> None:
    raise ProtocolError("bad_request", f"non-finite JSON token {token!r}")


def decode_message(line: "bytes | str") -> dict:
    """Parse one frame into a request/response object (strict JSON only)."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("bad_request", f"line exceeds {MAX_LINE_BYTES} bytes")
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad_request", f"invalid UTF-8: {exc}") from exc
    try:
        payload = json.loads(line, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad_request", f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        # pathologically nested frames blow the parser's stack; without
        # this they would kill the connection thread with no response.
        raise ProtocolError("bad_request", "JSON nesting too deep") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("bad_request", "message must be a JSON object")
    return payload


def ok_response(request_id: object, result: Mapping) -> dict:
    return {"id": request_id, "ok": True, "result": dict(result)}


def ok_frame(request_id: object, body: bytes) -> bytes:
    """The frame ``encode_message(ok_response(request_id, result))`` for a
    result whose encoding is ``body``: the id is encoded, the body spliced
    in as is.  Raises the same ``internal`` error past ``MAX_LINE_BYTES``."""
    head = b'{"id":' + dumps_json(request_id, separators=(",", ":")).encode("utf-8")
    return _check_frame_size(head + b',"ok":true,"result":' + body + b"}\n")


def error_response(request_id: object, code: str, message: str) -> dict:
    if code not in ERROR_CODES:
        code = "internal"
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}


# ----------------------------------------------------------------------
# the scenario registry (names a request may reference)
# ----------------------------------------------------------------------
_registry_cache: "dict[str, Callable[[], PaperScenario]] | None" = None


def _scenario_registry() -> "dict[str, Callable[[], PaperScenario]]":
    global _registry_cache
    if _registry_cache is None:
        registry: dict[str, Callable[[], PaperScenario]] = {}

        def _add(scenario: PaperScenario) -> None:
            registry[scenario.name] = lambda sc=scenario: sc

        for scenario in paper_scenarios():
            _add(scenario)
        for scenario in library_scenarios():
            _add(scenario)
        _registry_cache = registry
    return _registry_cache


def scenario_names() -> tuple[str, ...]:
    """Every scenario name a request may reference."""
    return tuple(_scenario_registry())


def resolve_scenario(name: str) -> PaperScenario:
    factory = _scenario_registry().get(name)
    if factory is None:
        raise ProtocolError(
            "unknown_scenario",
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}",
        )
    return factory()


# ----------------------------------------------------------------------
# plan requests
# ----------------------------------------------------------------------
def _field(payload: Mapping, key: str, kind: type, default=None, *, required=False):
    value = payload.get(key, default)
    if value is None:
        if required:
            raise ProtocolError("bad_request", f"missing field {key!r}")
        return default
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ProtocolError(
            "bad_request", f"field {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class PlanRequest:
    """A validated ``plan`` request (one grid cell to serve)."""

    scenario: str
    policy: str = "proposed"
    n_periods: int = 2
    supply_factor: float = 1.0
    deadline_s: "float | None" = None

    @classmethod
    def from_payload(cls, payload: Mapping) -> "PlanRequest":
        scenario = _field(payload, "scenario", str, required=True)
        policy = _field(payload, "policy", str, "proposed")
        n_periods = _field(payload, "n_periods", int, 2)
        supply_factor = _field(payload, "supply_factor", float, 1.0)
        deadline_s = _field(payload, "deadline_s", float)
        if n_periods < 1:
            raise ProtocolError("bad_request", "n_periods must be >= 1")
        if not supply_factor > 0:
            raise ProtocolError("bad_request", "supply_factor must be > 0")
        if deadline_s is not None and not deadline_s > 0:
            raise ProtocolError("bad_request", "deadline_s must be > 0")
        if policy not in policy_names():
            raise ProtocolError(
                "unknown_policy",
                f"unknown policy {policy!r}; known: {', '.join(policy_names())}",
            )
        resolve_scenario(scenario)  # fail fast on unknown names
        return cls(scenario, policy, n_periods, supply_factor, deadline_s)

    def canonical(self) -> dict:
        """The fields that define the planning problem (deadline excluded —
        it shapes *serving*, not the plan)."""
        return {
            "v": PROTOCOL_VERSION,
            "scenario": self.scenario,
            "policy": self.policy,
            "n_periods": self.n_periods,
            "supply_factor": self.supply_factor,
        }

    def digest(self) -> str:
        """Content hash the plan cache and request coalescing key on."""
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_cell_spec(self) -> CellSpec:
        """The exact :class:`CellSpec` the one-shot CLI path would build."""
        return CellSpec(
            scenario=resolve_scenario(self.scenario),
            policy=self.policy,
            knob=None if self.supply_factor == 1.0 else self.supply_factor,
            n_periods=self.n_periods,
            supply_factor=self.supply_factor,
        )


#: The plan-payload fields that are pure functions of the request — what
#: "bit-identical plans" means across replicas.  Serving metadata
#: (``cached``, ``compute_wall_s``, allocation-memo traffic, the
#: gateway's ``served_by`` tag) varies by which process answered and is
#: excluded by construction.
PLAN_PAYLOAD_DETERMINISTIC_FIELDS = (
    "scenario",
    "policy",
    "n_periods",
    "supply_factor",
    "digest",
    "wasted",
    "undersupplied",
    "utilization",
    "plan_iterations",
    "plan_used_fallback",
    "plan_feasible",
    "allocated_power",
)


def plan_payload_digest(payload: Mapping) -> str:
    """SHA-256 over the deterministic subset of a plan payload.

    Two replicas served the same plan iff their payloads share this
    digest — the cross-replica determinism check the fleet tests and the
    gateway's hedged requests rely on.
    """
    subset = {key: payload.get(key) for key in PLAN_PAYLOAD_DETERMINISTIC_FIELDS}
    blob = dumps_json(subset, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------
def parse_address(address: str) -> tuple:
    """Parse a service address string.

    ``unix:/path/to.sock`` (or any string containing ``/``) names a Unix
    socket; ``tcp:HOST:PORT`` or ``HOST:PORT`` names a TCP endpoint.
    Returns ``("unix", path)`` or ``("tcp", host, port)``.
    """
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ValueError("empty unix socket path")
        return ("unix", path)
    if address.startswith("tcp:"):
        address = address[len("tcp:"):]
    elif "/" in address or address.endswith(".sock"):
        return ("unix", address)
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"cannot parse address {address!r} (want unix:PATH or HOST:PORT)"
        )
    try:
        return ("tcp", host, int(port))
    except ValueError as exc:
        raise ValueError(f"invalid port in address {address!r}") from exc

"""The thin blocking client for the plan-serving daemon.

:class:`PlanClient` speaks the NDJSON protocol of
:mod:`repro.service.protocol` over one connection.  Requests on one
client are serialized (matching the server's per-connection ordering);
open more clients for concurrency — they are cheap, and the bench drives
eight at once.

Usage::

    with PlanClient("unix:/tmp/repro-plan.sock") as client:
        result = client.plan("scenario1", supply_factor=0.9)
        print(result["utilization"], result["cached"])
        print(client.status()["plan_cache"]["hit_rate"])
"""

from __future__ import annotations

import socket
import time
from typing import Mapping

from .protocol import (
    MAX_LINE_BYTES,
    EncodedResult,
    ProtocolError,
    decode_message,
    encode_message,
    parse_address,
)

__all__ = ["PlanServiceError", "ClientError", "PlanClient"]


class PlanServiceError(RuntimeError):
    """An error response from the daemon (or a protocol violation)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class ClientError(ConnectionError):
    """A transport-level failure: connect refused, send/recv timeout, EOF
    or truncation mid-frame.

    Whenever this is raised the client has already closed its socket, so
    the *next* call reconnects from a clean frame boundary instead of
    reading the tail of an abandoned response.  Distinct from
    :class:`PlanServiceError` (the daemon answered, with an error) so
    callers — the fleet gateway's retry loop, the CLI's exit-code map —
    can tell "replica unreachable" from "replica said no".
    """


class PlanClient:
    """One connection to a :class:`~repro.service.server.PlanServer`."""

    def __init__(self, address: str, *, timeout: "float | None" = 60.0):
        self.address = address
        self.timeout = timeout
        self._sock: "socket.socket | None" = None
        self._fh = None
        self._next_id = 0

    # ------------------------------------------------------------------
    def connect(self) -> "PlanClient":
        if self._sock is not None:
            return self
        parsed = parse_address(self.address)
        try:
            if parsed[0] == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(parsed[1])
            else:
                _, host, port = parsed
                sock = socket.create_connection((host, port), timeout=self.timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise ClientError(f"cannot connect to {self.address}: {exc}") from exc
        self._sock = sock
        self._fh = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    @property
    def connected(self) -> bool:
        """True while the socket is open (transport errors auto-close it)."""
        return self._sock is not None

    def __enter__(self) -> "PlanClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def wait_for_server(
        cls, address: str, *, timeout: float = 10.0, interval: float = 0.05
    ) -> "PlanClient":
        """Poll until the daemon answers ``ping`` (bounded), then return a
        connected client — the CI smoke test's startup barrier."""
        deadline = time.monotonic() + timeout
        last_error: "Exception | None" = None
        while time.monotonic() < deadline:
            client = cls(address, timeout=timeout)
            try:
                client.connect()
                client.ping()
                return client
            except (OSError, PlanServiceError) as exc:
                last_error = exc
                client.close()
                time.sleep(interval)
        raise TimeoutError(
            f"no server answering at {address} within {timeout}s: {last_error}"
        )

    # ------------------------------------------------------------------
    def request(self, payload: Mapping) -> dict:
        """Send one raw request object, return the matched ``result``.

        Raises :class:`PlanServiceError` for ``ok: false`` responses and
        :class:`ClientError` — after closing the socket — for transport
        failures: connect/send/recv errors, timeouts, and EOF or
        truncation mid-frame.  Closing matters: a timed-out request's
        response is still in flight, and reusing the socket would hand
        that stale frame to the *next* request.  The next call
        reconnects transparently.
        """
        return self._parse(*self._exchange(payload))

    def request_encoded(self, payload: Mapping) -> "EncodedResult | dict":
        """:meth:`request`, but a success frame exactly as this package's
        encoder writes it (``{"id":<n>,"ok":true,"result":{...}}``) comes
        back as its undecoded ``result`` object bytes, for relaying
        without a decode/re-encode round trip.  Every other frame — an
        error, a foreign encoding, a mismatched id — gets :meth:`request`'s
        full decode, checks and exceptions.  The result must be the frame's
        last member, as ``ok_response`` and ``ok_frame`` order it.
        """
        request_id, line = self._exchange(payload)
        head = b'{"id":%d,"ok":true,"result":{' % request_id
        if line.startswith(head) and line.endswith(b"}}\n"):
            return EncodedResult(line[len(head) - 1:-2])
        return self._parse(request_id, line)

    def _exchange(self, payload: Mapping) -> "tuple[int, bytes]":
        """Send one request; return its id and the complete response line
        (transport failures close the socket and raise ``ClientError``)."""
        if self._sock is None:
            self.connect()
        assert self._sock is not None and self._fh is not None
        self._next_id += 1
        request_id = self._next_id
        message = {"id": request_id, **payload}
        try:
            self._sock.sendall(encode_message(message))
            line = self._fh.readline(MAX_LINE_BYTES + 1)
        except OSError as exc:
            self.close()
            raise ClientError(
                f"request to {self.address} failed mid-frame "
                f"({type(exc).__name__}: {exc}); connection closed"
            ) from exc
        if not line:
            self.close()
            raise ClientError(
                f"server at {self.address} closed the connection mid-request"
            )
        if not line.endswith(b"\n"):
            # EOF (or the MAX_LINE_BYTES cap) landed mid-frame: the tail
            # of this response must never be parsed as the next one.
            self.close()
            raise ClientError(
                f"truncated frame from {self.address} "
                f"({len(line)} bytes, no terminator); connection closed"
            )
        return request_id, line

    def _parse(self, request_id: int, line: bytes) -> dict:
        """The ``result`` of one response line to request ``request_id``."""
        try:
            response = decode_message(line)
        except ProtocolError as exc:
            self.close()
            raise PlanServiceError("bad_request", f"unparseable response: {exc}")
        if response.get("id") not in (request_id, None):
            # A frame for some other request: the stream is desynced
            # (classically: a previous call timed out and its response
            # arrived late).  Drop the connection rather than guess.
            self.close()
            raise PlanServiceError(
                "internal",
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}; connection closed",
            )
        if not response.get("ok"):
            error = response.get("error") or {}
            raise PlanServiceError(
                str(error.get("code", "internal")),
                str(error.get("message", "unknown error")),
            )
        result = response.get("result")
        if not isinstance(result, dict):
            raise PlanServiceError("internal", f"malformed result: {result!r}")
        return result

    # ------------------------------------------------------------------
    def plan(
        self,
        scenario: str,
        *,
        policy: str = "proposed",
        n_periods: int = 2,
        supply_factor: float = 1.0,
        deadline_s: "float | None" = None,
    ) -> dict:
        """One plan request; see ``docs/SERVICE.md`` for the result schema."""
        payload: dict = {
            "op": "plan",
            "scenario": scenario,
            "policy": policy,
            "n_periods": n_periods,
            "supply_factor": supply_factor,
        }
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        return self.request(payload)

    def sweep(
        self,
        scenarios: "list[str]",
        *,
        policies: "list[str] | None" = None,
        supply_factors: "list[float] | None" = None,
        n_periods: int = 2,
        deadline_s: "float | None" = None,
    ) -> dict:
        payload: dict = {
            "op": "sweep",
            "scenarios": list(scenarios),
            "n_periods": n_periods,
        }
        if policies is not None:
            payload["policies"] = list(policies)
        if supply_factors is not None:
            payload["supply_factors"] = list(supply_factors)
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        return self.request(payload)

    def status(self) -> dict:
        return self.request({"op": "status"})

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def shutdown(self) -> dict:
        """Ask the daemon to drain and exit."""
        return self.request({"op": "shutdown"})

"""One NDJSON line server: the socket lifecycle both daemons share.

:class:`LineServer` owns everything about serving newline-delimited JSON
over a Unix or TCP socket that does not depend on what a request means:

* **Bind** — ``unix:PATH`` or ``HOST:PORT``; a stale unix socket left by a
  dead process is reclaimed, a live one is never stolen (``EADDRINUSE``).
* **Accept** — one thread accepts, one thread per connection answers its
  requests in order.  Transient ``accept()`` failures (fd or memory
  pressure) are retried in place; any other failure closes the listener
  and binds the same endpoint afresh (``listener_rebinds``), so the
  socket never stays bound-but-unserved.
* **Requests** — :meth:`LineServer._handle_line` decodes one frame, counts
  it (``requests_total``, ``requests_<op>``, ``errors_<code>``), times it
  (``latency_<op>_s``), tracks the active-request count, and turns a
  :class:`~repro.service.protocol.ProtocolError` into an error response.
  What an op *does* is the subclass's :meth:`LineServer._dispatch`.
* **Replies** — a dict result is wrapped in an ``ok`` response and
  encoded by the subclass's :meth:`LineServer._encode`; a result that is
  already bytes (an :class:`~repro.service.protocol.EncodedResult`: a
  cached plan, a forwarded backend reply) is spliced into its frame by
  :func:`~repro.service.protocol.ok_frame` and never encoded again.
* **Drain** — :meth:`LineServer.stop` stops accepting, waits (bounded by
  ``drain_timeout_s``) until :meth:`LineServer._idle`, then runs the
  subclass's :meth:`LineServer._quiesce` and :meth:`LineServer._release`
  hooks around closing the connections and unlinking the socket.
* **Signals** — SIGTERM/SIGINT start the drain, but only in the process
  that installed the handlers: a forked child that inherited them dies
  like a default SIGTERM instead of draining the parent's state.

Subclasses: :class:`~repro.service.server.PlanServer` and
:class:`~repro.fleet.gateway.PlanGateway`; a subclass's config must have
``address`` and ``drain_timeout_s``.
"""

from __future__ import annotations

import errno
import logging
import os
import signal
import socket
import threading
import time
from contextlib import suppress
from typing import Mapping

from .metrics import ServiceMetrics
from .protocol import (
    MAX_LINE_BYTES,
    EncodedResult,
    ProtocolError,
    error_response,
    ok_frame,
    ok_response,
    parse_address,
)

__all__ = ["ACCEPT_BACKLOG", "LineServer"]

logger = logging.getLogger(__name__)

#: ``listen()`` backlog of every listener.
ACCEPT_BACKLOG = 128

#: ``accept()`` failures worth retrying in place (load- or fd-pressure
#: hiccups); anything else gets a full listener rebind.
_ACCEPT_TRANSIENT_ERRNOS = frozenset(
    getattr(errno, name)
    for name in ("ECONNABORTED", "EMFILE", "ENFILE", "ENOBUFS", "ENOMEM", "EPROTO")
    if hasattr(errno, name)
)


class LineServer:
    """See the module docstring; subclasses implement :meth:`_dispatch`."""

    #: Prefix of every thread name (``<name>-accept``, ``<name>-conn``, ...).
    name = "line-server"
    #: ``event`` field of the final metrics log line written by :meth:`stop`.
    stopped_event = "stopped"

    def __init__(self, config) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self._listener: "socket.socket | None" = None
        self._endpoint: "str | None" = None
        self._unix_path: "str | None" = None
        self._threads: "list[threading.Thread]" = []
        self._conns: "dict[int, socket.socket]" = {}
        self._conn_lock = threading.Lock()
        self._active_lock = threading.Lock()
        self._active_requests = 0  # requests currently being handled

        self._started = False
        self._stop_lock = threading.Lock()
        self._stopping = False
        self._draining = threading.Event()
        self._stop_event = threading.Event()
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _dispatch(self, op: object, message: Mapping) -> "dict | EncodedResult":
        """Answer one decoded request; raise ``ProtocolError`` to refuse it."""
        raise NotImplementedError

    def _decode(self, line: bytes) -> dict:
        raise NotImplementedError

    def _encode(self, response: dict) -> bytes:
        raise NotImplementedError

    def _setup(self) -> None:
        """Work that must be done before the listener opens."""

    def _idle(self) -> bool:
        """True once nothing is left for the drain to wait for."""
        return self._active_requests == 0

    def _quiesce(self) -> None:
        """Stop background work after the drain, before connections close."""

    def _release(self) -> None:
        """Release resources once every connection has closed."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> str:
        """The bound address (with the real port for ``tcp:...:0`` binds)."""
        if self._endpoint is None:
            raise RuntimeError(f"{self.name} is not started")
        return self._endpoint

    def start(self) -> None:
        """Run :meth:`_setup`, bind, and start the acceptor thread."""
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        self._started = True
        self._setup()
        self._listener = self._bind(self.config.address)
        self._spawn(self._accept_loop, "accept")

    def _spawn(self, target, role: str, *args) -> None:
        thread = threading.Thread(
            target=target, args=args, name=f"{self.name}-{role}", daemon=True
        )
        self._threads.append(thread)
        thread.start()

    def _bind(self, address: str) -> socket.socket:
        parsed = parse_address(address)
        if parsed[0] == "unix":
            path = parsed[1]
            if os.path.exists(path):
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(path)
                except OSError:
                    os.unlink(path)  # stale socket from a dead process
                else:
                    # EADDRINUSE, same as a TCP bind collision would raise:
                    # callers get one error type for "address taken".
                    raise OSError(
                        errno.EADDRINUSE,
                        f"address {path!r} already has a live server",
                    )
                finally:
                    probe.close()
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(path)
            self._unix_path = path
            self._endpoint = f"unix:{path}"
        else:
            _, host, port = parsed
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            self._endpoint = f"tcp:{host}:{sock.getsockname()[1]}"
        sock.listen(ACCEPT_BACKLOG)
        return sock

    def serve_forever(self) -> None:
        """Start (if needed) and block until the server has fully stopped."""
        if not self._started:
            self.start()
        while not self._stopped.wait(0.2):
            pass

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (call from the main thread)."""
        owner_pid = os.getpid()

        def _handler(signum: int, frame) -> None:
            if os.getpid() != owner_pid:
                # A forked child (e.g. a pool worker spawned after these
                # handlers were installed) inherited this handler.  The
                # drain must never run against inherited server state —
                # shutdown(2) on the shared listener fd would un-listen
                # the socket for the parent too.  Die like a default
                # SIGTERM would.
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)
                return
            logger.info("received signal %d: draining %s", signum, self.name)
            self._spawn(self.stop, "drain")

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    def stop(self, *, drain: bool = True) -> None:
        """Stop serving; with ``drain``, finish in-flight work first."""
        with self._stop_lock:
            if self._stopping:
                self._stopped.wait(self.config.drain_timeout_s + 5.0)
                return
            self._stopping = True
        self._draining.set()
        self._stop_event.set()
        if self._listener is not None:
            # shutdown() before close(): closing alone does not wake a
            # blocked accept() on Linux, which would stall the drain on
            # the acceptor thread's join timeout.
            with suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)
            with suppress(OSError):
                self._listener.close()
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout_s
            while time.monotonic() < deadline and not self._idle():
                time.sleep(0.005)
        self._quiesce()
        # Unblock connection readers; each thread flushes its last write
        # and closes its own socket on the way out.
        with self._conn_lock:
            conns = list(self._conns.values())
        for conn in conns:
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RD)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=2.0)
        with self._conn_lock:
            for conn in self._conns.values():
                with suppress(OSError):
                    conn.close()
            self._conns.clear()
        self._unlink_socket()
        self._release()
        logger.info("%s", self.metrics.log_line(event=self.stopped_event))
        self._stopped.set()

    def _unlink_socket(self) -> None:
        if self._unix_path and os.path.exists(self._unix_path):
            with suppress(OSError):
                os.unlink(self._unix_path)

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop_event.is_set():
            listener = self._listener
            if listener is None:
                break
            try:
                conn, _ = listener.accept()
            except OSError as exc:
                if self._stop_event.is_set():
                    break  # listener closed by stop()
                # A dead acceptor is the worst failure mode: the socket
                # stays bound-but-unserved, refusing every new client
                # while established connections keep working — invisible
                # to connection-pooling health checks.  Never die silently.
                if exc.errno in _ACCEPT_TRANSIENT_ERRNOS:
                    logger.warning("accept failed (%s); retrying", exc)
                    time.sleep(0.05)
                    continue
                logger.error("accept failed (%s); rebinding listener", exc)
                if not self._rebind_listener():
                    break
                continue
            self.metrics.inc("connections_opened")
            with self._conn_lock:
                self._conns[id(conn)] = conn
            self._spawn(self._serve_connection, "conn", conn)

    def _rebind_listener(self) -> bool:
        """Self-heal a listener whose ``accept()`` keeps failing hard
        (e.g. the fd was sabotaged out from under us): close it, clear a
        stale unix socket file, and bind the same endpoint afresh."""
        if self._listener is not None:
            with suppress(OSError):
                self._listener.close()
        self._unlink_socket()
        try:
            # The resolved endpoint, not config.address: a ``tcp:...:0``
            # bind must come back on the port clients already know.
            self._listener = self._bind(self.endpoint)
        except OSError as exc:
            logger.critical(
                "listener rebind on %s failed (%s); acceptor exiting",
                self._endpoint,
                exc,
            )
            return False
        self.metrics.inc("listener_rebinds")
        logger.warning("listener re-bound on %s", self._endpoint)
        return True

    def _serve_connection(self, conn: socket.socket) -> None:
        fh = conn.makefile("rb")
        try:
            while True:
                line = fh.readline(MAX_LINE_BYTES + 1)
                if not line:
                    break
                response = self._handle_line(line)
                if not isinstance(response, bytes):
                    response = self._encode(response)
                try:
                    conn.sendall(response)
                except OSError:
                    break
        finally:
            with suppress(OSError):
                fh.close()
            with suppress(OSError):
                conn.close()
            with self._conn_lock:
                self._conns.pop(id(conn), None)
            self.metrics.inc("connections_closed")

    def _handle_line(self, line: bytes) -> "dict | bytes":
        """The response to one frame: a dict to encode, or a finished frame."""
        try:
            message = self._decode(line)
        except ProtocolError as exc:
            self.metrics.inc("requests_total")
            self.metrics.inc(f"errors_{exc.code}")
            return error_response(None, exc.code, exc.message)
        request_id = message.get("id")
        op = message.get("op")
        self.metrics.inc("requests_total")
        self.metrics.inc(f"requests_{op}" if isinstance(op, str) else "requests_invalid")
        with self._active_lock:
            self._active_requests += 1
        t0 = time.perf_counter()
        try:
            result = self._dispatch(op, message)
            if isinstance(result, EncodedResult):
                response = ok_frame(request_id, result)
            else:
                response = ok_response(request_id, result)
        except ProtocolError as exc:
            self.metrics.inc(f"errors_{exc.code}")
            response = error_response(request_id, exc.code, exc.message)
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("internal error handling %r", op)
            self.metrics.inc("errors_internal")
            response = error_response(request_id, "internal", f"{type(exc).__name__}: {exc}")
        finally:
            if isinstance(op, str):
                self.metrics.observe(f"latency_{op}_s", time.perf_counter() - t0)
            with self._active_lock:
                self._active_requests -= 1
        return response

"""The socket lifecycle both daemons inherit from
:class:`repro.service.transport.LineServer`: bind and stale-socket
reclaim, the self-healing acceptor, framing errors, and the owner-pid
signal guard — each case run against the plan daemon and the gateway."""

from __future__ import annotations

import errno
import json
import logging
import os
import signal
import socket
import threading
import time

import pytest

from repro.fleet.gateway import GatewayConfig, PlanGateway
from repro.service.client import PlanClient
from repro.service.server import PlanServer, ServerConfig
from repro.service.transport import LineServer

pytestmark = [pytest.mark.service, pytest.mark.fleet]

LIFECYCLE = (
    "endpoint",
    "_bind",
    "_accept_loop",
    "_rebind_listener",
    "_serve_connection",
    "_handle_line",
    "stop",
    "serve_forever",
    "install_signal_handlers",
)


@pytest.fixture(params=["server", "gateway"])
def make_daemon(request, tmp_path, frontier):
    """``make_daemon(address)`` → an unstarted daemon of the parametrized
    kind.  A gateway fronts one in-process backend.  Every daemon made is
    stopped at teardown, gateways before their backend."""
    made: "list[LineServer]" = []

    def make(address: str) -> LineServer:
        if request.param == "server":
            daemon = PlanServer(
                ServerConfig(address=address, metrics_interval_s=0.0),
                frontier=frontier,
            )
        else:
            if not made:
                backend = PlanServer(
                    ServerConfig(
                        address=f"unix:{tmp_path}/backend.sock",
                        metrics_interval_s=0.0,
                    ),
                    frontier=frontier,
                )
                backend.start()
                made.append(backend)
            daemon = PlanGateway(
                GatewayConfig(
                    address=address,
                    backends=(made[0].endpoint,),
                    probe_interval_s=30.0,
                    drain_timeout_s=5.0,
                )
            )
        made.append(daemon)
        return daemon

    yield make
    for daemon in reversed(made):
        daemon.stop()


def _wait_for(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _ping(endpoint: str) -> dict:
    with PlanClient(endpoint, timeout=5.0) as client:
        return client.ping()


class _FlakyListener:
    """A listener whose first ``accept()`` fails with ``EMFILE``."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.failures = 0

    def accept(self):
        if self.failures == 0:
            self.failures += 1
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return self._sock.accept()

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


@pytest.mark.parametrize("cls", [PlanServer, PlanGateway])
def test_socket_lifecycle_is_inherited_not_copied(cls):
    assert issubclass(cls, LineServer)
    for name in LIFECYCLE:
        assert name not in vars(cls), f"{cls.__name__} redefines {name}"
        assert name in vars(LineServer)


class TestBind:
    def test_stale_socket_is_reclaimed(self, make_daemon, tmp_path):
        path = str(tmp_path / "daemon.sock")
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(path)
        stale.close()  # leaves the filesystem entry behind, like a dead daemon
        daemon = make_daemon(f"unix:{path}")
        daemon.start()
        assert _ping(daemon.endpoint)["pong"] is True

    def test_live_socket_is_not_stolen(self, make_daemon, tmp_path):
        address = f"unix:{tmp_path}/daemon.sock"
        daemon = make_daemon(address)
        daemon.start()
        second = make_daemon(address)
        with pytest.raises(OSError, match="live server"):
            second.start()
        second.stop()  # releases whatever it built before failing to bind
        # the live daemon is unharmed: its socket survives and it answers
        assert os.path.exists(str(tmp_path / "daemon.sock"))
        assert _ping(daemon.endpoint)["pong"] is True


class TestConnections:
    def test_malformed_line_gets_bad_request(self, make_daemon, tmp_path):
        daemon = make_daemon(f"unix:{tmp_path}/daemon.sock")
        daemon.start()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(5.0)
            raw.connect(daemon.endpoint[len("unix:"):])
            raw.sendall(b"this is not json\n")
            response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("transport", ["unix", "tcp"])
    def test_sabotaged_listener_is_rebound(
        self, make_daemon, tmp_path, caplog, transport
    ):
        address = (
            f"unix:{tmp_path}/daemon.sock" if transport == "unix" else "127.0.0.1:0"
        )
        daemon = make_daemon(address)
        daemon.start()
        endpoint = daemon.endpoint
        with caplog.at_level(logging.WARNING, logger="repro.service.transport"):
            daemon._listener.shutdown(socket.SHUT_RDWR)
            assert _wait_for(lambda: daemon.metrics.counter("listener_rebinds") == 1)
        assert any("listener re-bound on" in r.getMessage() for r in caplog.records)
        assert daemon.endpoint == endpoint  # same port/path clients know
        assert _ping(endpoint)["pong"] is True
        assert daemon.metrics.counter("listener_rebinds") == 1

    def test_transient_accept_error_is_retried_in_place(
        self, make_daemon, tmp_path, caplog
    ):
        daemon = make_daemon(f"unix:{tmp_path}/daemon.sock")
        bind = daemon._bind
        daemon._bind = lambda address: _FlakyListener(bind(address))
        with caplog.at_level(logging.WARNING, logger="repro.service.transport"):
            daemon.start()
            listener = daemon._listener
            assert _ping(daemon.endpoint)["pong"] is True
        assert listener.failures == 1
        assert daemon._listener is listener  # retried, not rebound
        assert daemon.metrics.counter("listener_rebinds") == 0
        assert any("retrying" in r.getMessage() for r in caplog.records)


class TestSignals:
    @pytest.fixture
    def restore_signal_handlers(self):
        saved = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}
        yield
        for sig, handler in saved.items():
            signal.signal(sig, handler)

    def test_inherited_handler_dies_by_default_instead_of_draining(
        self, make_daemon, tmp_path, monkeypatch, restore_signal_handlers
    ):
        daemon = make_daemon(f"unix:{tmp_path}/daemon.sock")
        daemon.start()
        daemon.install_signal_handlers()
        handler = signal.getsignal(signal.SIGTERM)
        child_pid = os.getpid() + 1
        kills = []
        with monkeypatch.context() as patch:
            patch.setattr(os, "getpid", lambda: child_pid)
            patch.setattr(os, "kill", lambda pid, signum: kills.append((pid, signum)))
            handler(signal.SIGTERM, None)
        assert kills == [(child_pid, signal.SIGTERM)]
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        assert not daemon._draining.is_set()
        assert not any(t.name.endswith("-drain") for t in threading.enumerate())
        assert _ping(daemon.endpoint)["pong"] is True
        # In the owner process the same handler drains.
        signal.getsignal(signal.SIGINT)(signal.SIGINT, None)
        assert daemon._stopped.wait(10.0)

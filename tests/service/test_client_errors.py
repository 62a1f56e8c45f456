"""Client transport failures: the mid-frame desync bug and its fix.

A ``PlanClient`` whose request times out (or whose server vanishes
mid-frame) must *close its socket* before raising, so the next call
reconnects at a clean frame boundary.  Before the fix, the abandoned
response stayed in flight and the next request read it as its own
answer — silently returning the wrong plan.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

import repro.analysis.batch as batch
from repro.analysis.batch import register_policy
from repro.analysis.energy import run_demand_follower
from repro.service.client import ClientError, PlanClient, PlanServiceError
from repro.service.protocol import EncodedResult
from repro.service.server import PlanServer, ServerConfig

pytestmark = pytest.mark.service

SLEEPY_S = 0.5


@pytest.fixture
def sleepy_policy():
    def runner(spec, frontier):
        time.sleep(SLEEPY_S)
        return run_demand_follower(
            spec.scenario, n_periods=spec.n_periods, supply_factor=spec.supply_factor
        )

    register_policy("sleepy", runner)
    try:
        yield
    finally:
        batch._POLICIES.pop("sleepy", None)
        batch._PLANNING_POLICIES.discard("sleepy")


@contextmanager
def scripted_listener(tmp_path, respond):
    """One-connection-at-a-time fake server; ``respond(message) -> bytes``
    is sent verbatim (empty bytes: close without answering)."""
    path = f"{tmp_path}/fake.sock"
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(path)
    sock.listen(4)

    def serve() -> None:
        while True:
            try:
                conn, _ = sock.accept()
            except OSError:
                return
            with conn:
                fh = conn.makefile("rb")
                line = fh.readline()
                reply = respond(json.loads(line)) if line else b""
                if reply:
                    try:
                        conn.sendall(reply)
                    except OSError:
                        pass
                # close the makefile handle too, or the socket's FIN is
                # deferred and the client sees a timeout instead of EOF
                fh.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"unix:{path}"
    finally:
        sock.close()


class TestConnectFailures:
    def test_connect_refused_raises_client_error(self, tmp_path):
        client = PlanClient(f"unix:{tmp_path}/nobody-home.sock", timeout=1.0)
        with pytest.raises(ClientError):
            client.connect()
        assert not client.connected
        # request() funnels through the same path
        with pytest.raises(ClientError):
            client.ping()


class TestMidFrameFailures:
    def test_timeout_mid_request_closes_socket_and_raises(
        self, tmp_path, frontier, sleepy_policy
    ):
        server = PlanServer(
            ServerConfig(
                address=f"unix:{tmp_path}/plan.sock", metrics_interval_s=0.0
            ),
            frontier=frontier,
        )
        server.start()
        try:
            client = PlanClient(server.endpoint, timeout=0.1)
            with pytest.raises(ClientError, match="mid-frame"):
                client.plan("scenario1", policy="sleepy", n_periods=1)
            # The fix: the desynced socket is gone ...
            assert not client.connected
            # ... so the next call reconnects and gets *its own* response,
            # not the sleepy plan still in flight on the old connection.
            client.timeout = 10.0
            assert client.ping() == {"pong": True, "draining": False}
            result = client.plan("scenario1", n_periods=1)
            assert result["policy"] == "proposed"
            client.close()
        finally:
            server.stop()

    def test_eof_mid_request_raises_client_error(self, tmp_path):
        with scripted_listener(tmp_path, lambda message: b"") as address:
            client = PlanClient(address, timeout=2.0)
            with pytest.raises(ClientError, match="closed the connection"):
                client.ping()
            assert not client.connected

    def test_truncated_frame_raises_client_error(self, tmp_path):
        half = b'{"id": 1, "ok": true, "result": {"pong"'
        with scripted_listener(tmp_path, lambda message: half) as address:
            client = PlanClient(address, timeout=2.0)
            with pytest.raises(ClientError, match="truncated frame"):
                client.ping()
            assert not client.connected

    def test_mismatched_response_id_drops_the_connection(self, tmp_path):
        def stale_frame(message):
            reply = {"id": 999, "ok": True, "result": {"pong": True}}
            return (json.dumps(reply) + "\n").encode("utf-8")

        with scripted_listener(tmp_path, stale_frame) as address:
            client = PlanClient(address, timeout=2.0)
            with pytest.raises(PlanServiceError, match="does not match"):
                client.ping()
            assert not client.connected


class TestEncodedRequest:
    """``request_encoded``: the gateway's relay path keeps every check."""

    def test_exact_ok_frame_comes_back_as_result_bytes(self, tmp_path):
        def compact(message):
            return b'{"id":%d,"ok":true,"result":{"pong":true}}\n' % message["id"]

        with scripted_listener(tmp_path, compact) as address:
            client = PlanClient(address, timeout=2.0)
            result = client.request_encoded({"op": "ping"})
            assert isinstance(result, EncodedResult)
            assert result == b'{"pong":true}'
            client.close()

    def test_other_encodings_are_decoded(self, tmp_path):
        def spaced(message):
            reply = {"id": message["id"], "ok": True, "result": {"pong": True}}
            return (json.dumps(reply) + "\n").encode("utf-8")

        with scripted_listener(tmp_path, spaced) as address:
            client = PlanClient(address, timeout=2.0)
            assert client.request_encoded({"op": "ping"}) == {"pong": True}
            client.close()

    def test_error_frame_raises_the_service_error(self, tmp_path):
        def refuse(message):
            return (
                b'{"id":%d,"ok":false,"error":{"code":"overloaded","message":"busy"}}\n'
                % message["id"]
            )

        with scripted_listener(tmp_path, refuse) as address:
            client = PlanClient(address, timeout=2.0)
            with pytest.raises(PlanServiceError) as info:
                client.request_encoded({"op": "plan"})
            assert info.value.code == "overloaded"
            client.close()

    def test_mismatched_id_drops_the_connection(self, tmp_path):
        def stale(message):
            return b'{"id":999,"ok":true,"result":{"pong":true}}\n'

        with scripted_listener(tmp_path, stale) as address:
            client = PlanClient(address, timeout=2.0)
            with pytest.raises(PlanServiceError, match="does not match") as info:
                client.request_encoded({"op": "ping"})
            assert info.value.code == "internal"
            assert not client.connected

    def test_truncated_frame_raises_client_error(self, tmp_path):
        def half(message):
            return b'{"id":%d,"ok":true,"result":{"pong"' % message["id"]

        with scripted_listener(tmp_path, half) as address:
            client = PlanClient(address, timeout=2.0)
            with pytest.raises(ClientError, match="truncated frame"):
                client.request_encoded({"op": "ping"})
            assert not client.connected

"""Gateway fault injection over real sockets: dead backends, mid-frame
disconnects, slow replicas (hedging), restarts, and fleet-wide shed.

The invariant under test, from the serving contract: **zero failed
requests while at least one healthy replica remains**, and the gateway
only answers ``overloaded`` when every healthy replica shed, or
``unavailable`` when none could be reached at all.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.fleet.gateway import GatewayConfig, PlanGateway, _with_served_by
from repro.fleet.router import RendezvousRouter
from repro.service.client import PlanClient, PlanServiceError
from repro.service.protocol import (
    EncodedResult,
    PlanRequest,
    encode_message,
    error_response,
    ok_frame,
    ok_response,
)
from repro.service.server import PlanServer, ServerConfig

pytestmark = pytest.mark.fleet


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
@contextmanager
def running_server(tmp_path, frontier, name="backend", **overrides):
    overrides.setdefault("address", f"unix:{tmp_path}/{name}.sock")
    overrides.setdefault("metrics_interval_s", 0.0)
    server = PlanServer(ServerConfig(**overrides), frontier=frontier)
    server.start()
    try:
        yield server
    finally:
        server.stop()


@contextmanager
def running_gateway(tmp_path, backends, **overrides):
    overrides.setdefault("address", f"unix:{tmp_path}/gw.sock")
    overrides.setdefault("hedge", False)
    overrides.setdefault("rng_seed", 0)
    overrides.setdefault("backoff_base_s", 0.001)
    overrides.setdefault("backoff_cap_s", 0.01)
    overrides.setdefault("request_timeout_s", 10.0)
    overrides.setdefault("probe_interval_s", 30.0)  # the start-up probe only
    overrides.setdefault("failure_threshold", 2)
    overrides.setdefault("reset_timeout_s", 60.0)
    overrides.setdefault("drain_timeout_s", 5.0)
    gateway = PlanGateway(GatewayConfig(backends=tuple(backends), **overrides))
    gateway.start()
    try:
        yield gateway
    finally:
        gateway.stop()


class ScriptedBackend:
    """A minimal NDJSON listener whose reply to each request is scripted.

    ``script(message)`` returns one of::

        ("send", response_dict)   # a well-formed frame
        ("send_raw", bytes)       # raw bytes, then close (mid-frame cut)
        ("close", None)           # close without answering
        ("hang", seconds)         # hold the request open, never answer
    """

    def __init__(self, path: str, script):
        self.path = path
        self.script = script
        self.requests: "list[dict]" = []
        self._stop = threading.Event()
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(path)
        self._sock.listen(16)
        threading.Thread(target=self._accept, daemon=True).start()

    @property
    def address(self) -> str:
        return f"unix:{self.path}"

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        fh = conn.makefile("rb")
        try:
            while True:
                line = fh.readline()
                if not line:
                    return
                message = json.loads(line)
                self.requests.append(message)
                action, value = self.script(message)
                if action == "send":
                    conn.sendall((json.dumps(value) + "\n").encode("utf-8"))
                elif action == "send_raw":
                    conn.sendall(value)
                    return
                elif action == "hang":
                    self._stop.wait(value)
                    return
                else:  # close
                    return
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass


def _probe_ok(message: dict):
    """A healthy-looking ``status`` answer so probes keep breakers closed."""
    return (
        "send",
        ok_response(
            message.get("id"),
            {"server": {"pid": 0, "draining": False},
             "load": {"pending": 0, "active_requests": 0}},
        ),
    )


def plan_routed_to(backends, target, *, n_periods=1):
    """A PlanRequest whose rendezvous primary is ``target``."""
    router = RendezvousRouter(backends)
    for k in range(4000):
        request = PlanRequest(
            "scenario1", "proposed", n_periods, round(1.0 + k * 1e-4, 6)
        )
        if router.rank(request.digest())[0] == target:
            return request
    raise AssertionError(f"no request routed to {target!r} in 4000 tries")


def gateway_plan(client: PlanClient, request: PlanRequest) -> dict:
    return client.plan(
        request.scenario,
        policy=request.policy,
        n_periods=request.n_periods,
        supply_factor=request.supply_factor,
    )


# ----------------------------------------------------------------------
# happy path: routing, stickiness, aggregation
# ----------------------------------------------------------------------
class TestRoutingAndStatus:
    def test_plan_through_gateway_matches_direct_and_is_sticky(
        self, tmp_path, frontier
    ):
        with running_server(tmp_path, frontier, "a") as a, \
                running_server(tmp_path, frontier, "b") as b:
            direct = PlanClient.wait_for_server(a.endpoint).plan(
                "scenario1", n_periods=1
            )
            with running_gateway(tmp_path, [a.endpoint, b.endpoint]) as gw:
                with PlanClient(gw.endpoint, timeout=30.0) as client:
                    first = client.plan("scenario1", n_periods=1)
                    second = client.plan("scenario1", n_periods=1)
        assert first["served_by"] in (a.endpoint, b.endpoint)
        # Sticky routing: the repeat hits the same replica's warm cache.
        assert second["served_by"] == first["served_by"]
        assert second["cached"] is True
        for key in ("wasted", "utilization", "allocated_power", "digest"):
            assert first[key] == direct[key]

    def test_sweep_routes_whole_grid_to_one_replica(self, tmp_path, frontier):
        with running_server(tmp_path, frontier, "a") as a, \
                running_server(tmp_path, frontier, "b") as b:
            with running_gateway(tmp_path, [a.endpoint, b.endpoint]) as gw:
                with PlanClient(gw.endpoint, timeout=60.0) as client:
                    report = client.sweep(
                        ["scenario1"], policies=["proposed"],
                        supply_factors=[1.0, 0.9], n_periods=1,
                    )
        assert report["n_cells"] == 2
        assert len(report["rows"]) == 2
        assert report["served_by"] in (a.endpoint, b.endpoint)

    def test_ping_and_fleet_status_aggregate(self, tmp_path, frontier):
        with running_server(tmp_path, frontier, "a") as a, \
                running_server(tmp_path, frontier, "b") as b:
            with running_gateway(tmp_path, [a.endpoint, b.endpoint]) as gw:
                gw._monitor.probe_once()  # deterministic instead of waiting
                with PlanClient(gw.endpoint, timeout=30.0) as client:
                    pong = client.ping()
                    client.plan("scenario1", n_periods=1)
                    client.plan("scenario1", n_periods=1)
                    gw._monitor.probe_once()  # refresh cached replica stats
                    status = client.status()
        assert pong == {
            "pong": True, "draining": False, "role": "gateway",
            "backends": 2, "healthy_backends": 2,
        }
        assert set(status) >= {"gateway", "backends", "fleet", "pools", "metrics"}
        assert status["gateway"]["healthy_backends"] == 2
        assert status["gateway"]["router"] == "rendezvous"
        rows = {row["address"]: row for row in status["backends"]}
        assert set(rows) == {a.endpoint, b.endpoint}
        assert all(isinstance(row["pid"], int) for row in rows.values())
        # One replica served miss+hit; the fleet view sums replica caches.
        assert status["fleet"]["plan_cache_hits"] == 1
        assert status["fleet"]["plan_cache_misses"] == 1
        assert status["fleet"]["reachable"] == 2

    def test_shutdown_op_drains_the_gateway(self, tmp_path, frontier):
        with running_server(tmp_path, frontier, "a") as a:
            with running_gateway(tmp_path, [a.endpoint]) as gw:
                with PlanClient(gw.endpoint, timeout=10.0) as client:
                    assert client.shutdown() == {"stopping": True, "role": "gateway"}
                assert gw._stopped.wait(10.0)


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_dead_socket_fails_over_then_breaker_opens(self, tmp_path, frontier):
        dead = f"unix:{tmp_path}/dead.sock"  # nothing ever listened here
        with running_server(tmp_path, frontier, "live") as live:
            backends = [dead, live.endpoint]
            request = plan_routed_to(backends, dead)
            with running_gateway(tmp_path, backends) as gw:
                with PlanClient(gw.endpoint, timeout=30.0) as client:
                    for _ in range(3):  # enough to trip failure_threshold=2
                        result = gateway_plan(client, request)
                        assert result["served_by"] == live.endpoint
                assert gw.metrics.counter("forward_transport_errors") >= 1
                assert gw._monitor.healthy() == (live.endpoint,)
                assert gw._monitor.backend(dead).breaker.state == "open"

    def test_mid_frame_disconnect_fails_over(self, tmp_path, frontier):
        def cut_mid_frame(message):
            if message.get("op") == "status":
                return _probe_ok(message)
            return ("send_raw", b'{"id": 1, "ok": true, "resu')

        flaky = ScriptedBackend(f"{tmp_path}/flaky.sock", cut_mid_frame)
        try:
            with running_server(tmp_path, frontier, "live") as live:
                backends = [flaky.address, live.endpoint]
                request = plan_routed_to(backends, flaky.address)
                with running_gateway(tmp_path, backends) as gw:
                    with PlanClient(gw.endpoint, timeout=30.0) as client:
                        result = gateway_plan(client, request)
                    assert result["served_by"] == live.endpoint
                    assert result["plan_feasible"] is True
                    assert gw.metrics.counter("forward_transport_errors") >= 1
            assert any(m.get("op") == "plan" for m in flaky.requests)
        finally:
            flaky.close()

    def test_immediate_close_fails_over(self, tmp_path, frontier):
        def slam_the_door(message):
            if message.get("op") == "status":
                return _probe_ok(message)
            return ("close", None)

        rude = ScriptedBackend(f"{tmp_path}/rude.sock", slam_the_door)
        try:
            with running_server(tmp_path, frontier, "live") as live:
                backends = [rude.address, live.endpoint]
                request = plan_routed_to(backends, rude.address)
                with running_gateway(tmp_path, backends) as gw:
                    with PlanClient(gw.endpoint, timeout=30.0) as client:
                        assert gateway_plan(client, request)["served_by"] == live.endpoint
        finally:
            rude.close()

    def test_slow_backend_loses_to_the_hedge(self, tmp_path, frontier):
        def hang(message):
            if message.get("op") == "status":
                return _probe_ok(message)
            return ("hang", 30.0)

        slow = ScriptedBackend(f"{tmp_path}/slow.sock", hang)
        try:
            with running_server(tmp_path, frontier, "live") as live:
                backends = [slow.address, live.endpoint]
                request = plan_routed_to(backends, slow.address)
                with running_gateway(
                    tmp_path, backends,
                    hedge=True, request_timeout_s=5.0,
                    probe_timeout_s=0.3, failure_threshold=10,
                ) as gw:
                    with PlanClient(gw.endpoint, timeout=30.0) as client:
                        result = gateway_plan(client, request)
                    assert result["served_by"] == live.endpoint
                    assert gw.metrics.counter("hedges_fired") >= 1
                    assert gw.metrics.counter("hedge_wins") >= 1
        finally:
            slow.close()

    def test_backend_restart_is_routed_to_again(self, tmp_path, frontier):
        with running_server(tmp_path, frontier, "b") as b:
            address_a = f"unix:{tmp_path}/a.sock"
            server_a = PlanServer(
                ServerConfig(address=address_a, metrics_interval_s=0.0),
                frontier=frontier,
            )
            server_a.start()
            try:
                backends = [address_a, b.endpoint]
                request = plan_routed_to(backends, address_a)
                with running_gateway(
                    tmp_path, backends,
                    probe_interval_s=0.1, failure_threshold=1,
                    reset_timeout_s=0.1,
                ) as gw:
                    with PlanClient(gw.endpoint, timeout=30.0) as client:
                        assert gateway_plan(client, request)["served_by"] == address_a
                        server_a.stop()
                        # Replica gone: same request keeps succeeding via b.
                        assert gateway_plan(client, request)["served_by"] == b.endpoint
                        # ... and comes back once the replica restarts.
                        server_a = PlanServer(
                            ServerConfig(address=address_a, metrics_interval_s=0.0),
                            frontier=frontier,
                        )
                        server_a.start()
                        deadline = time.monotonic() + 10.0
                        served_by = None
                        while time.monotonic() < deadline:
                            served_by = gateway_plan(client, request)["served_by"]
                            if served_by == address_a:
                                break
                            time.sleep(0.05)
                        assert served_by == address_a
            finally:
                server_a.stop()

    def test_all_healthy_replicas_shedding_maps_to_overloaded(self, tmp_path):
        def shed(message):
            if message.get("op") == "status":
                return _probe_ok(message)
            return ("send", error_response(message.get("id"), "overloaded", "full"))

        one = ScriptedBackend(f"{tmp_path}/shed1.sock", shed)
        two = ScriptedBackend(f"{tmp_path}/shed2.sock", shed)
        try:
            with running_gateway(tmp_path, [one.address, two.address]) as gw:
                with PlanClient(gw.endpoint, timeout=10.0) as client:
                    with pytest.raises(PlanServiceError) as excinfo:
                        client.plan("scenario1", n_periods=1)
                assert excinfo.value.code == "overloaded"
                assert gw.metrics.counter("requests_all_shed") == 1
                # Shedding replicas are alive: breakers never trip.
                assert set(gw._monitor.healthy()) == {one.address, two.address}
        finally:
            one.close()
            two.close()

    def test_no_reachable_replica_maps_to_unavailable(self, tmp_path):
        backends = [f"unix:{tmp_path}/ghost1.sock", f"unix:{tmp_path}/ghost2.sock"]
        with running_gateway(tmp_path, backends, failure_threshold=1) as gw:
            with PlanClient(gw.endpoint, timeout=10.0) as client:
                with pytest.raises(PlanServiceError) as excinfo:
                    client.plan("scenario1", n_periods=1)
                assert excinfo.value.code == "unavailable"
                # Breakers are open now; the no-candidates path must keep
                # reporting unavailable rather than flipping to overloaded.
                with pytest.raises(PlanServiceError) as excinfo:
                    client.plan("scenario1", n_periods=1)
                assert excinfo.value.code == "unavailable"
            assert gw._monitor.healthy() == ()

    def test_deterministic_rejections_are_not_retried(self, tmp_path, frontier):
        with running_server(tmp_path, frontier, "a") as a:
            with running_gateway(tmp_path, [a.endpoint]) as gw:
                with PlanClient(gw.endpoint, timeout=10.0) as client:
                    # Rejected at the gateway edge: zero forwards burned.
                    with pytest.raises(PlanServiceError) as excinfo:
                        client.plan("atlantis", n_periods=1)
                    assert excinfo.value.code == "unknown_scenario"
                    assert gw.metrics.counter("forward_attempts") == 0
                    # Rejected by the replica: exactly one forward, no retry.
                    with pytest.raises(PlanServiceError) as excinfo:
                        client.sweep(["atlantis"], n_periods=1)
                    assert excinfo.value.code == "unknown_scenario"
                    assert gw.metrics.counter("forward_attempts") == 1


# ----------------------------------------------------------------------
# the headline invariant
# ----------------------------------------------------------------------
class TestZeroFailures:
    def test_no_failed_requests_while_a_backend_dies_mid_run(
        self, tmp_path, frontier
    ):
        n_workers, n_requests = 8, 5
        with running_server(tmp_path, frontier, "a") as a, \
                running_server(tmp_path, frontier, "b") as b, \
                running_server(tmp_path, frontier, "c") as c:
            backends = [a.endpoint, b.endpoint, c.endpoint]
            with running_gateway(
                tmp_path, backends, failure_threshold=1, max_attempts=4
            ) as gw:
                errors: "list[Exception]" = []
                results: "list[dict]" = []
                lock = threading.Lock()
                started = threading.Barrier(n_workers + 1)

                def worker(w: int) -> None:
                    started.wait()
                    with PlanClient(gw.endpoint, timeout=60.0) as client:
                        for i in range(n_requests):
                            sf = 1.0 + (w * n_requests + i) * 1e-3
                            try:
                                result = client.plan(
                                    "scenario1", n_periods=1, supply_factor=sf
                                )
                            except Exception as exc:  # noqa: BLE001 - the assert
                                with lock:
                                    errors.append(exc)
                            else:
                                with lock:
                                    results.append(result)

                threads = [
                    threading.Thread(target=worker, args=(w,))
                    for w in range(n_workers)
                ]
                for thread in threads:
                    thread.start()
                started.wait()
                time.sleep(0.05)
                a.stop()  # one replica dies mid-run, in-flight work drains
                for thread in threads:
                    thread.join(timeout=120.0)
                assert errors == []
                assert len(results) == n_workers * n_requests
                assert all(r["plan_feasible"] for r in results)
                survivors = {b.endpoint, c.endpoint}
                late = [r["served_by"] for r in results[-n_workers:]]
                assert set(late) <= survivors | {a.endpoint}


# ----------------------------------------------------------------------
# pass-through: the backend's result bytes plus served_by
# ----------------------------------------------------------------------
def _no_duplicate_keys(pairs):
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


def _raw_exchange(endpoint: str, message: dict) -> bytes:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30.0)
        sock.connect(endpoint[len("unix:"):])
        sock.sendall(encode_message(message))
        with sock.makefile("rb") as fh:
            return fh.readline()


class TestPassThrough:
    ADDRESSES = ("unix:/tmp/backend-0.sock", 'tcp:host"q\\é:80')

    @pytest.mark.parametrize("address", ADDRESSES)
    @pytest.mark.parametrize("request_id", [1, -7, 2**64, 0.5, None, "é\"\\", [1, {}]])
    def test_splice_equals_encoding_the_merged_dict(self, request_id, address):
        result = {"a": 1, "b": [0.1, None, "x\n"], "cached": True}
        body = EncodedResult(encode_message(result)[:-1])
        spliced = _with_served_by(body, address)
        assert isinstance(spliced, EncodedResult)
        assert ok_frame(request_id, spliced) == encode_message(
            ok_response(request_id, {**result, "served_by": address})
        )

    @pytest.mark.parametrize(
        "body, expected",
        [
            (b"{}", {"served_by": "unix:/b"}),
            (b'{"x":1,"served_by":"unix:/a"}', {"x": 1, "served_by": "unix:/b"}),
        ],
    )
    def test_empty_or_tagged_results_take_the_dict_path(self, body, expected):
        tagged = _with_served_by(EncodedResult(body), "unix:/b")
        assert type(tagged) is dict and tagged == expected

    @pytest.mark.parametrize(
        "result", [{}, {"pong": True, "served_by": "somewhere-else"}]
    )
    def test_relayed_frames_stay_well_formed(self, tmp_path, result):
        def script(message):
            if message.get("op") == "status":
                return _probe_ok(message)
            reply = ok_response(message["id"], result)
            return ("send_raw", encode_message(reply))

        backend = ScriptedBackend(f"{tmp_path}/b.sock", script)
        try:
            with running_gateway(tmp_path, [backend.address]) as gw:
                line = _raw_exchange(
                    gw.endpoint, {"id": 5, "op": "sweep", "scenarios": ["scenario1"]}
                )
        finally:
            backend.close()
        reply = json.loads(line, object_pairs_hook=_no_duplicate_keys)
        assert reply == {
            "id": 5, "ok": True, "result": {**result, "served_by": backend.address}
        }

    def test_gateway_frame_is_the_backend_hit_plus_served_by(
        self, tmp_path, frontier
    ):
        with running_server(tmp_path, frontier, "a") as a:
            with PlanClient(a.endpoint, timeout=30.0) as client:
                client.plan("scenario1", n_periods=6)
                direct = client.plan("scenario1", n_periods=6)
            assert direct["cached"] is True
            with running_gateway(tmp_path, [a.endpoint]) as gw:
                message = {"id": "req-1", "op": "plan", "scenario": "scenario1",
                           "n_periods": 6}
                line = _raw_exchange(gw.endpoint, message)
        assert line == encode_message(
            ok_response("req-1", {**direct, "served_by": a.endpoint})
        )

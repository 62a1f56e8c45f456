"""Pre-encoded replies: cache hits answered with stored bytes.

A plan-cache hit is answered with the result bytes encoded on the
entry's first hit, spliced into a frame by ``ok_frame``.  Every frame
must be byte for byte what encoding the dict reply afresh would write,
the bytes must live and die with their LRU entry, and snapshots must not
see them.
"""

from __future__ import annotations

import json
import socket
import sys
from contextlib import contextmanager

import pytest

from repro.service.cache import (
    LRUCache,
    PlanEntry,
    load_cache_snapshot,
    save_cache_snapshot,
)
from repro.service.client import PlanClient
from repro.service.protocol import (
    MAX_LINE_BYTES,
    EncodedResult,
    PlanRequest,
    ProtocolError,
    encode_message,
    ok_frame,
    ok_response,
    parse_address,
)
from repro.service.server import PlanServer, ServerConfig

pytestmark = pytest.mark.service

#: Request ids of every JSON kind a client may send.
IDS = [
    7,
    -3,
    2**70,
    1.5,
    None,
    'quote " backslash \\ tab \t newline \n é ☃ \U0001F600',
    {"nested": [1, {"k": "v"}, None, 2.5], "": []},
]


@contextmanager
def running_server(tmp_path, frontier, **overrides):
    overrides.setdefault("address", f"unix:{tmp_path}/plan.sock")
    overrides.setdefault("metrics_interval_s", 0.0)
    server = PlanServer(ServerConfig(**overrides), frontier=frontier)
    server.start()
    try:
        yield server
    finally:
        server.stop()


def raw_exchange(endpoint: str, message: dict) -> bytes:
    """Send one frame, return the response line exactly as it arrived."""
    _, path = parse_address(endpoint)
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30.0)
        sock.connect(path)
        sock.sendall(encode_message(message))
        with sock.makefile("rb") as fh:
            return fh.readline(MAX_LINE_BYTES + 1)


def plan_fields(request: PlanRequest) -> dict:
    return {
        "op": "plan",
        "scenario": request.scenario,
        "policy": request.policy,
        "n_periods": request.n_periods,
        "supply_factor": request.supply_factor,
    }


class TestOkFrame:
    @pytest.mark.parametrize("request_id", IDS, ids=repr)
    def test_equals_encoding_the_dict_response(self, request_id):
        body = encode_message({"a": [1.25, None, "xé"], "b": {"c": True}})[:-1]
        assert ok_frame(request_id, body) == encode_message(
            ok_response(request_id, json.loads(body))
        )

    def test_oversized_frame_is_the_encoder_internal_error(self):
        result = {"pad": "x" * (MAX_LINE_BYTES - 40)}
        body = encode_message(result)[:-1]
        with pytest.raises(ProtocolError) as spliced:
            ok_frame(12345, body)
        with pytest.raises(ProtocolError) as encoded:
            encode_message(ok_response(12345, result))
        assert spliced.value.code == encoded.value.code == "internal"
        assert spliced.value.message == encoded.value.message

    def test_oversized_hit_becomes_an_internal_error_response(
        self, tmp_path, frontier
    ):
        request = PlanRequest("scenario1", n_periods=1)
        with running_server(tmp_path, frontier) as server:
            raw_exchange(server.endpoint, {"id": 1, **plan_fields(request)})
            entry = server._plan_cache.peek(request.digest())
            pad = b"x" * MAX_LINE_BYTES
            entry.hit_body = EncodedResult(b'{"pad":"' + pad + b'"}')
            line = raw_exchange(server.endpoint, {"id": 2, **plan_fields(request)})
            reply = json.loads(line)
            assert reply["id"] == 2 and reply["ok"] is False
            assert reply["error"]["code"] == "internal"
            assert str(MAX_LINE_BYTES) in reply["error"]["message"]
            with PlanClient(server.endpoint, timeout=10.0) as client:
                assert client.ping()["pong"] is True


class TestCachedHitFrames:
    def test_every_cached_entry_hits_with_the_fresh_encode_bytes(
        self, tmp_path, frontier
    ):
        requests = [
            PlanRequest(scenario, policy, n_periods, factor)
            for n_periods in (1, 6, 24)
            for scenario, policy, factor in (
                ("scenario1", "proposed", 1.0),
                ("scenario2", "proposed", 0.85),
                ("scenario1", "static", 1.1),
            )
        ]
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=60.0) as client:
                for request in requests:
                    assert client.request(plan_fields(request))["cached"] is False
            entries = server._plan_cache.snapshot_items()
            assert len(entries) == len(requests)
            for digest, entry in entries:
                assert type(entry) is PlanEntry and entry.hit_body is None
                request = PlanRequest(
                    entry["scenario"], entry["policy"], entry["n_periods"],
                    entry["supply_factor"],
                )
                for request_id in IDS:
                    # what the dict path writes for this hit
                    expected = encode_message(
                        ok_response(request_id, {**entry, "cached": True})
                    )
                    frame = raw_exchange(
                        server.endpoint, {"id": request_id, **plan_fields(request)}
                    )
                    assert frame == expected
                body = server._plan_cache.peek(digest).hit_body
                assert isinstance(body, EncodedResult)
                assert body == encode_message({**entry, "cached": True})[:-1]

    def test_body_is_encoded_once_per_entry(self, tmp_path, frontier, monkeypatch):
        import repro.service.server as server_module

        calls = []
        real = server_module.encode_message

        def counting(payload):
            calls.append(payload.get("digest"))
            return real(payload)

        monkeypatch.setattr(server_module, "encode_message", counting)
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=30.0) as client:
                client.plan("scenario1", n_periods=1)
                calls.clear()
                for _ in range(5):
                    assert client.plan("scenario1", n_periods=1)["cached"] is True
        # one body encode on the first hit, and no reply encode for any
        # hit: later hits only splice their id into the stored bytes
        assert len(calls) == 1 and calls[0] is not None

    def test_eviction_drops_the_encoded_body(self, tmp_path, frontier):
        first = PlanRequest("scenario1", n_periods=1, supply_factor=0.9)
        with running_server(tmp_path, frontier, cache_size=2) as server:
            with PlanClient(server.endpoint, timeout=30.0) as client:
                client.request(plan_fields(first))
                assert client.request(plan_fields(first))["cached"] is True
                body = server._plan_cache.peek(first.digest()).hit_body
                assert body is not None
                for factor in (0.8, 0.7):
                    client.plan("scenario1", n_periods=1, supply_factor=factor)
                assert first.digest() not in server._plan_cache
                # Only this frame's name and the call's argument still
                # hold the bytes: the evicted entry was their one owner.
                assert sys.getrefcount(body) == 2
                assert len(server._plan_cache) == 2
                again = client.request(plan_fields(first))
                assert again["cached"] is False


class TestPayloadReaders:
    def test_snapshot_document_ignores_hit_bodies(self, tmp_path, frontier):
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=30.0) as client:
                for factor in (1.0, 0.9, 0.8):
                    client.plan("scenario1", n_periods=2, supply_factor=factor)
                client.plan("scenario1", n_periods=2, supply_factor=0.9)  # a hit
            cache = server._plan_cache
            assert sum(e.hit_body is not None for _, e in cache.snapshot_items()) == 1
            first, plain, again = (str(tmp_path / n) for n in ("a", "b", "c"))
            save_cache_snapshot(cache, first)
            # the document a cache of plain payload dicts writes
            reference = LRUCache(8)
            for digest, entry in cache.snapshot_items():
                reference.put(digest, dict(entry))
            save_cache_snapshot(reference, plain)
            restored = LRUCache(8)
            assert load_cache_snapshot(restored, first) == 3
            assert all(type(e) is PlanEntry for _, e in restored.snapshot_items())
            save_cache_snapshot(restored, again)
        with open(first, "rb") as a, open(plain, "rb") as b, open(again, "rb") as c:
            document = a.read()
            assert document == b.read() == c.read()
        assert json.loads(document)["version"] == 1

    def test_degraded_reply_stays_a_dict(self, tmp_path, frontier):
        with running_server(tmp_path, frontier) as server:
            with PlanClient(server.endpoint, timeout=30.0) as client:
                client.plan("scenario1", n_periods=1, supply_factor=1.0)
                client.plan("scenario1", n_periods=1, supply_factor=1.0)  # a hit
            server._degraded_reason = lambda: "saturated"
            stale = PlanRequest("scenario1", n_periods=1, supply_factor=0.95)
            reply = server._dispatch("plan", {"id": 1, **plan_fields(stale)})
        assert type(reply) is dict
        assert reply["degraded"] is True and reply["cached"] is True
        assert reply["degraded_reason"] == "saturated"

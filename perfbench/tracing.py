"""Span recording for the benchmark's traced runs.

The program under test has no tracing of its own, so the benchmark wraps
the public functions at each layer boundary from outside: ``install_*``
replace module and class attributes with timing wrappers that record one
span per call.  A span is the tuple::

    (name, start_ns, end_ns, span_id, parent_id, request_id, note)

Parents come from a per-thread stack.  Two links cross threads and are
made explicitly: a cell submitted to the executor (``CellExecutor.submit``
publishes the submitting span, ``run_cell`` adopts it and records the
``executor.queue`` span for the wait in between), and spans recorded in
forked pool workers, which ride back to the parent on the cell outcome
(:class:`TracedOutcome`).  Request ids are the NDJSON ``id`` the client
sent; the traced gateway forwards it to the backends as ``trace``.

Spans stay in memory until the traced process ends and are then written
as one JSON list (:meth:`Tracer.dump`).  Times come from
``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux), so spans from
different processes on one host share a time axis.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import os
import threading
import time

from repro.analysis import batch
from repro.analysis.supervisor import SupervisedExecutor
from repro.core import allocation, manager
from repro.core.manager import DynamicPowerManager
from repro.service import client, server
from repro.service.cache import LRUCache
from repro.service.protocol import PlanRequest
from repro.service.server import PlanServer

NAME, START, END, SID, PARENT, RID, NOTE = range(7)


@dataclasses.dataclass(frozen=True)
class TracedOutcome(batch.CellOutcome):
    """A cell outcome carrying the spans its pool worker recorded."""

    spans: tuple = ()


class Tracer:
    """In-memory span recorder for one process (see the module docstring)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = True
        self.spans: list = []
        self._ids = itertools.count((self.pid << 32) + 1)
        self._local = threading.local()
        self._links: dict = {}
        self._child_pid: "int | None" = None

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _enter_child(self) -> None:
        """First span in a forked pool worker: drop the parent's state."""
        pid = os.getpid()
        if pid != self.pid and self._child_pid != pid:
            self._child_pid = pid
            self.spans = []
            self._links = {}
            self._ids = itertools.count((pid << 32) + 1)
            self._local = threading.local()

    def _adopt(self, key: object, t0: int) -> "int | None":
        link = self._links.pop(key, None) if os.getpid() == self.pid else None
        if link is None:
            return None
        t_submit, parent = link
        self.spans.append(
            ("executor.queue", t_submit, t0, next(self._ids), parent, None, None)
        )
        return parent

    def wrap(self, name, func, *, rid=None, note=None, publish=None, adopt=None,
             ship=False):
        """A timing wrapper of ``func`` recording spans called ``name``.

        ``rid(args, kwargs)`` names the request, ``note(args, kwargs,
        result)`` stores one value on the span, ``publish(args)`` /
        ``adopt(args)`` key the cross-thread executor link, and ``ship``
        returns a forked worker's spans on the cell outcome.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            if ship:
                tracer._enter_child()
            stack = tracer._stack()
            t0 = time.perf_counter_ns()
            parent = stack[-1] if stack else None
            if parent is None and adopt is not None:
                parent = tracer._adopt(adopt(args), t0)
            if publish is not None:
                tracer._links[publish(args)] = (t0, parent)
            sid = next(tracer._ids)
            request_id = rid(args, kwargs) if rid is not None else None
            stack.append(sid)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer.spans.append(
                    (name, t0, time.perf_counter_ns(), sid, parent, request_id, None)
                )
                raise
            t1 = time.perf_counter_ns()
            stack.pop()
            value = note(args, kwargs, result) if note is not None else None
            tracer.spans.append((name, t0, t1, sid, parent, request_id, value))
            if ship and os.getpid() != tracer.pid:
                shipped, tracer.spans = tuple(tracer.spans), []
                return TracedOutcome(
                    result.index, result.cell, result.metrics, spans=shipped
                )
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a traced wrapper (static and class
        methods stay what they were)."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, **options)))
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, **options)))
        else:
            setattr(owner, attr, self.wrap(name, raw, **options))

    def absorb(self, outcomes) -> None:
        """Move the spans that pool workers shipped on cell outcomes here."""
        for outcome in outcomes:
            self.spans.extend(getattr(outcome, "spans", ()))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]


# ----------------------------------------------------------------------
# what to wrap, per process role
# ----------------------------------------------------------------------
def _index(args, kwargs, result):
    return kwargs.get("index", 0)


def _used_fallback(args, kwargs, result):
    return bool(result.used_fallback)


def _encoded_size(args, kwargs, result):
    return len(result)


def _request_id(args, kwargs):
    message = args[2]
    return message.get("trace", message.get("id"))


def _op(args, kwargs, result):
    return args[1]


def install_planner(tracer: Tracer) -> None:
    """Executor, energy runs and Algorithms 1-3 (any process that plans)."""
    tracer.install(SupervisedExecutor, "__init__", "executor.init")
    tracer.install(
        batch.CellExecutor, "submit", "executor.submit",
        publish=lambda args: id(args[1]), note=_index,
    )
    tracer.install(
        batch, "run_cell", "executor.cell",
        adopt=lambda args: id(args[0]), note=_index, ship=True,
    )
    tracer.install(batch, "run_managed", "energy.proposed")
    tracer.install(batch, "run_demand_follower", "energy.static")
    tracer.install(DynamicPowerManager, "plan", "manager.plan")
    tracer.install(DynamicPowerManager, "advance", "manager.advance")
    tracer.install(manager, "allocate_cached", "alloc.call")
    tracer.install(allocation, "allocate", "alloc.miss", note=_used_fallback)
    tracer.install(manager, "plan_parameters", "params.plan")
    tracer.install(manager, "redistribute_deviation", "update.redistribute")


def _connection_ids():
    """``(remember, recall)`` request-id callbacks: the response is encoded
    after ``_handle_line`` returns, in the same connection thread, so its
    span takes the id of the request that thread dispatched last."""
    last = threading.local()

    def remember(args, kwargs):
        last.rid = _request_id(args, kwargs)
        return last.rid

    def recall(args, kwargs):
        return getattr(last, "rid", None)

    return remember, recall


def install_server(tracer: Tracer) -> None:
    """The plan daemon: protocol, cache, handler, and the planner below."""
    remember, recall = _connection_ids()
    tracer.install(server, "decode_message", "protocol.decode")
    tracer.install(
        server, "encode_message", "protocol.encode", rid=recall, note=_encoded_size
    )
    tracer.install(PlanRequest, "from_payload", "protocol.parse")
    tracer.install(PlanRequest, "digest", "protocol.digest")
    tracer.install(LRUCache, "get", "cache.probe")
    tracer.install(PlanServer, "_handle_line", "server.handle")
    tracer.install(PlanServer, "_dispatch", "server.dispatch", rid=remember, note=_op)
    tracer.install(PlanServer, "_handle_plan", "server.plan")
    tracer.install(PlanServer, "_plan_payload", "server.payload")
    install_planner(tracer)


def install_gateway(tracer: Tracer) -> None:
    """The fleet gateway: protocol, forwarding and hedged attempts."""
    from repro.fleet import gateway
    from repro.fleet.gateway import PlanGateway

    forward = PlanGateway._forward

    def _forward(self, message, key, *, op):
        # Carry the client's id to the backend so its spans join the request.
        message.setdefault("trace", message.get("id"))
        return forward(self, message, key, op=op)

    PlanGateway._forward = _forward
    remember, recall = _connection_ids()
    tracer.install(gateway, "decode_message", "protocol.decode")
    tracer.install(
        gateway, "encode_message", "protocol.encode", rid=recall, note=_encoded_size
    )
    tracer.install(PlanRequest, "from_payload", "protocol.parse")
    tracer.install(PlanRequest, "digest", "protocol.digest")
    tracer.install(PlanGateway, "_handle_line", "gateway.handle")
    tracer.install(PlanGateway, "_dispatch", "gateway.dispatch", rid=remember, note=_op)
    tracer.install(
        PlanGateway, "_forward", "gateway.forward",
        rid=lambda args, kwargs: args[1].get("id"),
    )
    tracer.install(
        PlanGateway, "_classified_attempt", "gateway.attempt",
        rid=lambda args, kwargs: args[2].get("trace"),
    )


def install_client(tracer: Tracer) -> None:
    """The benchmark's own load generator: request round trip and decode."""
    tracer.install(
        client.PlanClient, "request", "client.request",
        rid=lambda args, kwargs: args[0]._next_id + 1,
    )
    tracer.install(client, "decode_message", "client.decode")

"""Per-layer metrics from the spans of one traced run.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Spans from different processes are
joined into one tree per request before self times are taken: a daemon's
``server.handle`` becomes a child of the client's ``client.request`` with
the same request id, a backend's becomes a child of the gateway attempt
that forwarded it, and sweep cells shipped back from pool workers become
children of the pass that ran them.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracing import END, NAME, NOTE, PARENT, RID, SID, START

#: Per-layer metrics: name, unit, which direction is better.
PER_LAYER = (
    ("protocol.decode_us", "us", "lower"),
    ("protocol.encode_us", "us", "lower"),
    ("protocol.digest_us", "us", "lower"),
    ("protocol.response_bytes", "bytes", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.lookups", "count", "higher"),
    ("cache.probe_us", "us", "lower"),
    ("cache.evictions", "count", "lower"),
    ("server.handle_ms", "ms", "lower"),
    ("server.coalesced", "count", "higher"),
    ("server.shed", "count", "lower"),
    ("server.degraded", "count", "lower"),
    ("executor.queue_wait_ms", "ms", "lower"),
    ("executor.cell_ms", "ms", "lower"),
    ("executor.pool_start_s", "s", "lower"),
    ("executor.retries", "count", "lower"),
    ("executor.failures", "count", "lower"),
    ("energy.run_ms.proposed", "ms", "lower"),
    ("energy.run_ms.static", "ms", "lower"),
    ("alloc.calls", "count", "lower"),
    ("alloc.memo_hit_ratio", "ratio", "higher"),
    ("alloc.miss_ms", "ms", "lower"),
    ("alloc.fallback_share", "ratio", "lower"),
    ("params.calls", "count", "lower"),
    ("params.ms", "ms", "lower"),
    ("manager.plan_ms", "ms", "lower"),
    ("manager.slots", "count", "higher"),
    ("manager.advance_us", "us", "lower"),
    ("update.redistribute_us", "us", "lower"),
    ("gateway.hop_ms", "ms", "lower"),
    ("gateway.attempts_per_request", "count", "lower"),
    ("gateway.hedges_fired", "count", "lower"),
    ("gateway.hedge_win_ratio", "ratio", "higher"),
    ("router.max_backend_share", "ratio", "lower"),
    ("gateway.transport_errors", "count", "lower"),
    ("client.decode_us", "us", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.accounted_share", "ratio", "higher"),
    ("trace.alg3_self_share", "ratio", "lower"),
    ("trace.alg2_cell_share", "ratio", "lower"),
)

#: Share of end-to-end time the traced layers' self times may leave
#: uncovered.  The rest is the self time of ``client.request`` (or
#: ``sweep.pass``): socket transfer, thread wake-ups and interpreter-lock
#: hand-offs, which no function call of the program spans.  On serve-hot,
#: where a request is ~0.5 ms, that is about half of it.
ACCOUNTED_TOLERANCE = 0.7
#: Algorithm 2 counts as a material part of a sweep cell above this share.
ALG2_MATERIAL_SHARE = 0.10

ALG3 = ("manager.advance", "update.redistribute")
PLANNER_CALLS = ("alloc.call", "params.plan", "manager.advance")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _union(intervals, lo: int, hi: int) -> int:
    covered = 0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


class SpanSet:
    """All spans of one traced run, joined across processes."""

    def __init__(self, spans, roles: "dict[int, str]") -> None:
        self.spans = [list(span) for span in spans]
        self.roles = roles
        self.by_sid = {span[SID]: span for span in self.spans}
        self.by_name = defaultdict(list)
        for span in self.spans:
            self.by_name[span[NAME]].append(span)
        self._join()
        children = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[span[PARENT]].append((span[START], span[END]))
        self.self_ns = {
            span[SID]: span[END] - span[START]
            - _union(children.get(span[SID], ()), span[START], span[END])
            for span in self.spans
        }

    def role(self, span) -> str:
        return self.roles.get(span[SID] >> 32, "worker")

    def named(self, name: str):
        return self.by_name.get(name, [])

    def durations_us(self, name: str) -> "list[float]":
        return [(span[END] - span[START]) / 1e3 for span in self.named(name)]

    def self_us(self, name: str) -> float:
        return sum(self.self_ns[span[SID]] for span in self.named(name)) / 1e3

    def _join(self) -> None:
        # The request id a daemon learns in dispatch belongs to its handler.
        for span in self.spans:
            if span[NAME].endswith(".dispatch") and span[RID] is not None:
                parent = self.by_sid.get(span[PARENT])
                if parent is not None:
                    parent[RID] = span[RID]
        callers: "dict[tuple, list]" = defaultdict(list)
        for span in self.spans:
            if span[RID] is not None and span[NAME] in (
                "client.request", "gateway.forward", "gateway.attempt"
            ):
                callers[(span[NAME], span[RID])].append(span)
        for span in self.spans:
            if span[PARENT] is not None or span[RID] is None:
                continue
            role = self.role(span)
            if role == "gateway" and span[NAME] == "gateway.attempt":
                caller = "gateway.forward"
            elif role == "backend":
                caller = "gateway.attempt"
            elif role in ("server", "gateway"):
                caller = "client.request"
            else:
                continue
            candidates = callers.get((caller, span[RID]), ())
            for candidate in candidates:
                if candidate[START] <= span[START] <= candidate[END]:
                    span[PARENT] = candidate[SID]
                    break
        # Cells shipped back from pool workers: children of their pass.
        passes = self.named("sweep.pass")
        for span in self.spans:
            if span[PARENT] is None and span[NAME] == "executor.cell":
                for candidate in passes:
                    if candidate[START] <= span[START] <= candidate[END]:
                        span[PARENT] = candidate[SID]
                        break

    def breakdown(self) -> "list[tuple[str, int, float]]":
        """(span name, calls, total self ms), largest self time first."""
        calls = Counter(span[NAME] for span in self.spans)
        totals = defaultdict(int)
        for span in self.spans:
            totals[span[NAME]] += self.self_ns[span[SID]]
        return sorted(
            ((name, calls[name], totals[name] / 1e6) for name in calls),
            key=lambda row: -row[2],
        )

    def accounted_share(self, root: str) -> float:
        """Share of the roots' time that traced layers below them cover."""
        roots = self.named(root)
        total = sum(span[END] - span[START] for span in roots)
        unaccounted = sum(self.self_ns[span[SID]] for span in roots)
        return 1.0 - unaccounted / total if total else 0.0


def _sweep_executor(spans: SpanSet) -> "tuple[list[float], list[float]]":
    """Queue waits (ms) and pool starts (s) of each sweep pass."""
    waits, starts = [], []
    for p in spans.named("sweep.pass"):
        inside = [s for s in spans.spans if p[START] <= s[START] <= p[END]]
        submitted = {
            s[NOTE]: s[START] for s in inside if s[NAME] == "executor.submit"
        }
        cells = [s for s in inside if s[NAME] == "executor.cell"]
        for cell in cells:
            if cell[NOTE] in submitted:
                waits.append((cell[START] - submitted[cell[NOTE]]) / 1e6)
        inits = [s[START] for s in inside if s[NAME] == "executor.init"]
        if cells and inits:
            starts.append((min(c[START] for c in cells) - min(inits)) / 1e9)
    return waits, starts


def layer_metrics(spans: SpanSet, counts: dict, *, sweep: bool) -> dict:
    """Every ``PER_LAYER`` metric; ``counts`` holds the status-op deltas
    and the run's own counts (ops, served_by, overhead)."""
    m: dict = {}
    d = spans.durations_us
    m["protocol.decode_us"] = _mean(d("protocol.decode"))
    m["protocol.encode_us"] = _mean(d("protocol.encode"))
    m["protocol.digest_us"] = _mean(d("protocol.digest"))
    m["protocol.response_bytes"] = _mean(
        s[NOTE] for s in spans.named("protocol.encode")
    )
    hits, misses = counts.get("plan_cache_hits", 0), counts.get("plan_cache_misses", 0)
    m["cache.lookups"] = hits + misses
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["cache.probe_us"] = _mean(d("cache.probe"))
    m["cache.evictions"] = counts.get("plan_cache_evictions", 0)
    plans = [
        s for s in spans.named("server.dispatch") if s[NOTE] == "plan"
    ]
    server_self = sum(
        spans.self_us(name)
        for name in ("server.handle", "server.dispatch", "server.plan", "server.payload")
    )
    m["server.handle_ms"] = server_self / 1e3 / len(plans) if plans else 0.0
    m["server.coalesced"] = counts.get("plan_coalesced", 0)
    m["server.shed"] = counts.get("requests_shed", 0)
    m["server.degraded"] = counts.get("degraded_served", 0)
    if sweep:
        waits, starts = _sweep_executor(spans)
        submits = len(spans.named("executor.submit"))
        m["executor.retries"] = max(0, submits - len(spans.named("executor.cell")))
    else:
        waits = [w / 1e3 for w in d("executor.queue")]
        starts = [u / 1e6 for u in d("executor.init")]
        m["executor.retries"] = counts.get("cells_resubmitted", 0)
    m["executor.queue_wait_ms"] = _mean(waits)
    m["executor.pool_start_s"] = sorted(starts)[len(starts) // 2] if starts else 0.0
    m["executor.cell_ms"] = _mean(d("executor.cell")) / 1e3
    m["executor.failures"] = counts.get("cell_failures", 0)
    m["energy.run_ms.proposed"] = _mean(d("energy.proposed")) / 1e3
    m["energy.run_ms.static"] = _mean(d("energy.static")) / 1e3
    calls = spans.named("alloc.call")
    computed = spans.named("alloc.miss")
    m["alloc.calls"] = len(calls)
    m["alloc.memo_hit_ratio"] = 1.0 - len(computed) / len(calls) if calls else 0.0
    m["alloc.miss_ms"] = _mean(d("alloc.miss")) / 1e3
    m["alloc.fallback_share"] = (
        sum(1 for s in computed if s[NOTE]) / len(computed) if computed else 0.0
    )
    m["params.calls"] = len(spans.named("params.plan"))
    m["params.ms"] = _mean(d("params.plan")) / 1e3
    m["manager.plan_ms"] = _mean(d("manager.plan")) / 1e3
    m["manager.slots"] = len(spans.named("manager.advance"))
    m["manager.advance_us"] = _mean(d("manager.advance"))
    m["update.redistribute_us"] = _mean(d("update.redistribute"))
    m.update(_gateway_metrics(spans, counts))
    m["client.decode_us"] = _mean(d("client.decode"))
    root = "sweep.pass" if sweep else "client.request"
    total_ns = sum(s[END] - s[START] for s in spans.named(root))
    alg3_ns = sum(spans.self_us(name) * 1e3 for name in ALG3)
    m["trace.ops"] = counts.get("ops", 0)
    m["trace.overhead_pct"] = counts.get("overhead_pct", 0.0)
    m["trace.accounted_share"] = spans.accounted_share(root)
    m["trace.alg3_self_share"] = alg3_ns / total_ns if total_ns else 0.0
    cell_us = sum(d("executor.cell"))
    params_in_cells = sum(
        (s[END] - s[START]) / 1e3
        for s in spans.named("params.plan")
        if spans.role(s) == "worker" or not sweep
    )
    m["trace.alg2_cell_share"] = params_in_cells / cell_us if cell_us else 0.0
    return m


def _gateway_metrics(spans: SpanSet, counts: dict) -> dict:
    m: dict = {}
    backend_ns: "dict[object, int]" = {}
    for s in spans.named("server.dispatch"):
        if spans.role(s) == "backend" and s[RID] is not None:
            end = backend_ns.get(s[RID])
            # With a hedge in flight, the answer came from the first to end.
            if end is None or s[END] < end[1]:
                backend_ns[s[RID]] = (s[END] - s[START], s[END])
    hops = [
        (s[END] - s[START] - backend_ns[s[RID]][0]) / 1e6
        for s in spans.named("gateway.forward")
        if s[RID] in backend_ns
    ]
    forwards = len(spans.named("gateway.forward"))
    m["gateway.hop_ms"] = _mean(hops)
    m["gateway.attempts_per_request"] = (
        len(spans.named("gateway.attempt")) / forwards if forwards else 0.0
    )
    fired = counts.get("hedges_fired", 0)
    m["gateway.hedges_fired"] = fired
    m["gateway.hedge_win_ratio"] = counts.get("hedge_wins", 0) / fired if fired else 0.0
    served = counts.get("served_by") or {}
    m["router.max_backend_share"] = (
        max(served.values()) / sum(served.values()) if served else 0.0
    )
    m["gateway.transport_errors"] = counts.get("forward_transport_errors", 0)
    return m


def claims(workload: str, spans: SpanSet, metrics: dict) -> "list[tuple[str, bool]]":
    """What each workload is for, checked against its trace."""
    out = [
        (
            f"traced layers cover >= {1 - ACCOUNTED_TOLERANCE:.0%} of end-to-end time",
            metrics["trace.accounted_share"] >= 1 - ACCOUNTED_TOLERANCE,
        )
    ]
    if workload == "serve-cold":
        # Against every other single span name, the transport left in
        # client.request included.
        alg3 = sum(spans.self_us(name) for name in ALG3)
        largest = all(
            alg3 > total_ms * 1e3
            for name, _, total_ms in spans.breakdown()
            if name not in ALG3
        )
        out.append(("Algorithm 3 has the largest self time", largest))
    if workload == "serve-hot":
        calls = sum(len(spans.named(name)) for name in PLANNER_CALLS)
        out.append(("no Algorithm 1-3 calls", calls == 0))
    if workload == "sweep":
        out.append(
            (
                f"Algorithm 2 is >= {ALG2_MATERIAL_SHARE:.0%} of cell time",
                metrics["trace.alg2_cell_share"] >= ALG2_MATERIAL_SHARE,
            )
        )
    if workload == "fleet-cold":
        out.append(("gateway hop is non-zero", metrics["gateway.hop_ms"] > 0))
    return out

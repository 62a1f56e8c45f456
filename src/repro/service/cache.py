"""The bounded plan cache fronting the daemon's planner.

A thread-safe LRU mapping request content digests (see
:meth:`repro.service.protocol.PlanRequest.digest`) to finished plan
payloads.  It sits *in front of* the allocation memo in
:mod:`repro.core.allocation`: a hit here skips request dispatch entirely
(no executor round-trip, no re-simulation), while the memo below still
deduplicates the Algorithm-1 work of distinct requests that share an
allocation problem.

Each value is a :class:`PlanEntry`: the payload dict, plus the encoded
body of its cache-hit reply once the daemon has built it.  Both live in
the one LRU slot, so evicting a plan drops its bytes too.

Crash-safe snapshots
--------------------
:func:`save_cache_snapshot` / :func:`load_cache_snapshot` persist the
cache across daemon restarts so a warm replica keeps its hit rate after
a crash or redeploy.  The write is atomic (temp file + ``os.replace``
in the destination directory), and the loader treats the snapshot as
advisory: any corruption — truncated JSON, wrong types, an entry whose
key disagrees with its payload's digest — drops the bad entries (or the
whole file) with a warning rather than failing startup.  Plans are pure
functions of their requests, so a stale snapshot can never serve a wrong
answer, only a cold start.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, TypeVar

from ..util.jsonio import dump_json

__all__ = [
    "CacheStats",
    "LRUCache",
    "PlanEntry",
    "SNAPSHOT_VERSION",
    "load_cache_snapshot",
    "save_cache_snapshot",
]

logger = logging.getLogger(__name__)

#: Bumped whenever the snapshot schema changes; loaders reject other versions.
SNAPSHOT_VERSION = 1

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass(frozen=True)
class CacheStats:
    """Lifetime counters of one :class:`LRUCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


class PlanEntry(dict):
    """A cached plan payload (a plain dict to every reader) carrying
    ``hit_body``: the encoded result the daemon answers hits with, set on
    the first hit (None until then)."""

    __slots__ = ("hit_body",)

    def __init__(self, payload: dict):
        super().__init__(payload)
        self.hit_body: "bytes | None" = None


class LRUCache(Generic[K, V]):
    """A lock-protected, bounded, least-recently-used mapping."""

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: K) -> "V | None":
        """The cached value, freshened to most-recently-used; None on miss."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return None
            self._hits += 1
            self._data.move_to_end(key)
            return value

    def peek(self, key: K) -> "V | None":
        """Like :meth:`get` but without touching stats or recency — for
        double-checked probes that already counted a miss."""
        with self._lock:
            return self._data.get(key)

    def put(self, key: K, value: V) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self.maxsize,
            )

    def snapshot_items(self) -> "list[tuple[K, V]]":
        """A point-in-time copy of the entries, LRU-first (so replaying
        them through :meth:`put` reproduces the recency order)."""
        with self._lock:
            return list(self._data.items())


# ----------------------------------------------------------------------
# crash-safe snapshot persistence
# ----------------------------------------------------------------------
def save_cache_snapshot(cache: "LRUCache[str, dict]", path: str) -> int:
    """Atomically write the cache's entries to ``path`` as JSON.

    The snapshot is written to a temp file in the destination directory
    and moved into place with ``os.replace``, so readers never observe a
    half-written file — a crash mid-write leaves the previous snapshot
    intact.  Returns the number of entries written.
    """
    items = cache.snapshot_items()
    document = {
        "version": SNAPSHOT_VERSION,
        "entries": [{"digest": key, "payload": value} for key, value in items],
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(prefix=".plan-cache-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # dump_json, not json.dump: plan payloads carry numpy arrays
            # and scalars, which the sanitizer maps to the same lists and
            # numbers the wire protocol would have sent.
            dump_json(document, handle, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return len(items)


def load_cache_snapshot(cache: "LRUCache[str, dict]", path: str) -> int:
    """Replay a snapshot written by :func:`save_cache_snapshot` into
    ``cache``; returns the number of entries restored.

    Corruption never propagates: a missing/unreadable/invalid file, a
    version mismatch, or an entry whose key is not the digest of its own
    payload is logged and skipped — the daemon simply starts colder.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return 0
    except (OSError, ValueError) as exc:
        logger.warning("ignoring unreadable plan-cache snapshot %s: %s", path, exc)
        return 0
    if not isinstance(document, dict) or document.get("version") != SNAPSHOT_VERSION:
        logger.warning(
            "ignoring plan-cache snapshot %s: unsupported version %r",
            path,
            document.get("version") if isinstance(document, dict) else None,
        )
        return 0
    entries = document.get("entries")
    if not isinstance(entries, list):
        logger.warning("ignoring plan-cache snapshot %s: malformed entries", path)
        return 0
    restored = 0
    dropped = 0
    for entry in entries:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("digest"), str)
            or not isinstance(entry.get("payload"), dict)
        ):
            dropped += 1
            continue
        payload = entry["payload"]
        # Integrity gate: the stored key must be the payload's own digest.
        if payload.get("digest") != entry["digest"]:
            dropped += 1
            continue
        cache.put(entry["digest"], PlanEntry(payload))
        restored += 1
    if dropped:
        logger.warning(
            "plan-cache snapshot %s: dropped %d corrupt entr%s, restored %d",
            path,
            dropped,
            "y" if dropped == 1 else "ies",
            restored,
        )
    return restored

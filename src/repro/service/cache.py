"""LRU result cache keyed by problem identity and solving configuration.

Values are the JSON-serialisable dictionaries produced by
:meth:`repro.service.jobs.SolveResult.to_dict`, which keeps the cache
trivially persistable: :meth:`ResultCache.save` writes the whole store
to one JSON file and :meth:`ResultCache.load` restores it, so a warm
cache survives process restarts (the ``repro-mqo batch --cache-file``
workflow).  Saves are atomic — the payload is written to a temporary
file next to the target and moved into place with :func:`os.replace` —
so a crash mid-save can never leave a corrupt cache file behind.

Keys come from :meth:`repro.service.jobs.SolveRequest.cache_key`, which
combines :meth:`~repro.mqo.problem.MQOProblem.canonical_hash` and the
exact problem token with the solver choice, budget and seed.  A cached
result's selected plans are concrete plan indices, so a renamed problem
hits the same entry while one listing a query's plans in another order
does not.

Entries can optionally expire: construct the cache with
``ttl_seconds=N`` and any entry older than ``N`` seconds is treated as a
miss (and dropped) on lookup, skipped on load, and purged by
:meth:`ResultCache.purge_expired`.  Entry ages survive persistence via a
``stored_at`` timestamp in the JSON file.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import ServiceError

__all__ = ["ResultCache", "CacheStats"]

_CACHE_FORMAT_VERSION = 1


@dataclass
class CacheStats:
    """Hit/miss/eviction/expiry counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def lookups(self) -> int:
        """Total number of :meth:`ResultCache.get` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Thread-safe LRU cache of solve-result dictionaries.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is
        evicted beyond that.
    path:
        Optional JSON file backing the cache.  When given and the file
        exists, the cache warms itself from it on construction; call
        :meth:`save` (``repro-mqo batch`` does) to persist new entries.
    ttl_seconds:
        Optional per-entry time-to-live.  Entries older than this are
        treated as misses on lookup and skipped when loading a persisted
        store.  ``None`` (the default) disables expiry.
    clock:
        Timestamp source used for entry ages (defaults to
        :func:`time.time`; tests inject a fake clock).
    """

    def __init__(
        self,
        capacity: int = 256,
        path: str | Path | None = None,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity <= 0:
            raise ServiceError(f"cache capacity must be positive, got {capacity}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ServiceError(f"ttl_seconds must be positive, got {ttl_seconds}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._store: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._stored_at: Dict[str, float] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()
        if self.path is not None and self.path.exists():
            self.load()

    # ------------------------------------------------------------------ #
    # Expiry
    # ------------------------------------------------------------------ #
    def _is_expired(self, key: str, now: float) -> bool:
        """Whether ``key``'s entry has outlived the TTL (lock held)."""
        if self.ttl_seconds is None:
            return False
        stored_at = self._stored_at.get(key)
        return stored_at is not None and now - stored_at > self.ttl_seconds

    def _drop(self, key: str) -> None:
        """Remove one entry and its timestamp (lock held)."""
        self._store.pop(key, None)
        self._stored_at.pop(key, None)

    def purge_expired(self) -> int:
        """Drop every expired entry; returns how many were removed."""
        if self.ttl_seconds is None:
            return 0
        now = self._clock()
        with self._lock:
            stale = [key for key in self._store if self._is_expired(key, now)]
            for key in stale:
                self._drop(key)
                self.stats.expirations += 1
        return len(stale)

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result dictionary for ``key``, or ``None`` on a miss.

        An entry older than the TTL counts as a miss and is dropped.
        """
        with self._lock:
            try:
                value = self._store[key]
            except KeyError:
                self.stats.misses += 1
                return None
            if self._is_expired(key, self._clock()):
                self._drop(key)
                self.stats.expirations += 1
                self.stats.misses += 1
                return None
            self._store.move_to_end(key)
            self.stats.hits += 1
            return dict(value)

    def put(self, key: str, value: Dict[str, Any], stored_at: float | None = None) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full.

        ``stored_at`` overrides the entry's age timestamp (used when
        re-loading persisted entries so their remaining TTL is honoured).
        """
        if not isinstance(value, dict):
            raise ServiceError(
                f"cache values must be result dictionaries, got {type(value).__name__}"
            )
        with self._lock:
            self._store[key] = dict(value)
            self._stored_at[key] = self._clock() if stored_at is None else float(stored_at)
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                evicted, _ = self._store.popitem(last=False)
                self._stored_at.pop(evicted, None)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._store.clear()
            self._stored_at.clear()

    def __contains__(self, key: object) -> bool:
        """Membership that honours the TTL (expired entries are absent)."""
        with self._lock:
            return key in self._store and not self._is_expired(str(key), self._clock())

    def __len__(self) -> int:
        """Number of *live* (non-expired) entries."""
        with self._lock:
            if self.ttl_seconds is None:
                return len(self._store)
            now = self._clock()
            return sum(1 for key in self._store if not self._is_expired(key, now))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path | None = None) -> Path:
        """Atomically write the whole store to ``path`` (default: the
        backing file).

        The payload lands in a temporary file in the target directory
        first and is moved into place with :func:`os.replace`, so readers
        never observe a partially written store and a crash mid-save
        leaves the previous file intact.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ServiceError("no path given and the cache has no backing file")
        with self._lock:
            entries: List[Dict[str, Any]] = [
                {
                    "key": key,
                    "value": value,
                    "stored_at": self._stored_at.get(key),
                }
                for key, value in self._store.items()
            ]
        payload = {"format_version": _CACHE_FORMAT_VERSION, "entries": entries}
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload))
            # mkstemp creates 0600 files; keep the target's permissions
            # (or normal umask-derived ones) so shared caches stay shared.
            try:
                mode = os.stat(target).st_mode & 0o777
            except FileNotFoundError:
                current_umask = os.umask(0)
                os.umask(current_umask)
                mode = 0o666 & ~current_umask
            os.chmod(temp_name, mode)
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return target

    def load(self, path: str | Path | None = None) -> int:
        """Merge entries from ``path`` (default: the backing file).

        Returns the number of entries loaded.  Entries are inserted in
        file order, so the file's most recent entries stay the most
        recently used after a reload.  Entries whose persisted
        ``stored_at`` timestamp has outlived the TTL are skipped; entries
        from files written before timestamps existed count as fresh.
        """
        source = Path(path) if path is not None else self.path
        if source is None:
            raise ServiceError("no path given and the cache has no backing file")
        try:
            payload = json.loads(source.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(f"cannot load result cache from {source}: {exc}") from exc
        if payload.get("format_version") != _CACHE_FORMAT_VERSION:
            raise ServiceError(
                f"unsupported cache format version {payload.get('format_version')!r} "
                f"in {source}"
            )
        entries = payload.get("entries", [])
        now = self._clock()
        loaded = 0
        for entry in entries:
            stored_at = entry.get("stored_at")
            if (
                self.ttl_seconds is not None
                and stored_at is not None
                and now - float(stored_at) > self.ttl_seconds
            ):
                self.stats.expirations += 1
                continue
            self.put(str(entry["key"]), entry["value"], stored_at=stored_at)
            loaded += 1
        return loaded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ResultCache {len(self)}/{self.capacity} entries, "
            f"hits={self.stats.hits}, misses={self.stats.misses}>"
        )

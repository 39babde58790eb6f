"""Artifact stores: where content-addressed compilation artifacts live.

Artifacts are pickled at ``put`` time and un-pickled at ``get`` time in
*every* layer, so a cached value never aliases live compilation state --
a caller mutating a returned circuit cannot corrupt the store.  The
cached pipeline stores each pass snapshot as ``{field name: pickled
bytes}`` (:mod:`repro.cache.cached`), so a ``get`` unpickles only that
outer dict of bytes; each field is unpickled at its first read, into a
fresh object that aliases neither the store nor another read.

* :class:`MemoryArtifactStore` -- in-process LRU layer (bytes-valued).
* :class:`DiskArtifactStore` -- one file per key under a directory,
  written via temp-file + atomic rename and never overwritten, so any
  number of concurrent processes (the sweep engine's
  ``ProcessPoolExecutor`` workers, several batch services) can share one
  directory: the content behind a key is immutable, a half-written file
  is never visible under its final name, and a corrupt file reads as a
  miss.
* :class:`ArtifactCache` -- the tiered front the cached pipeline talks
  to: memory first, then disk (promoting hits), with global and
  per-pass hit/miss counters.  The same two layers also hold the
  problem index (:meth:`ArtifactCache.get_index`): raw digest records
  mapping a problem recipe to its step's content fingerprint.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path

from repro.cache.fingerprint import DIGEST_LEN

_DEFAULT_MEMORY_LIMIT = 1024
_HEX_DIGITS = frozenset(b"0123456789abcdef")


def _is_digest(payload: bytes) -> bool:
    """Whether ``payload`` is one fingerprint: DIGEST_LEN lowercase hex."""
    return len(payload) == DIGEST_LEN and _HEX_DIGITS.issuperset(payload)


class MemoryArtifactStore:
    """In-process LRU store mapping keys to pickled artifact bytes."""

    def __init__(self, limit: int = _DEFAULT_MEMORY_LIMIT) -> None:
        self.limit = limit
        self._entries: OrderedDict[str, bytes] = OrderedDict()

    def get(self, key: str) -> bytes | None:
        payload = self._entries.get(key)
        if payload is not None:
            self._entries.move_to_end(key)
        return payload

    def put(self, key: str, payload: bytes) -> None:
        if self.limit <= 0:
            return
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def discard(self, key: str) -> None:
        self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


class DiskArtifactStore:
    """Append-only on-disk store: one ``<key>.pkl`` file per artifact.

    Keys are hex digests; files are sharded by the first two characters
    to keep directories small.  Writes go to a per-process temp file
    followed by ``os.replace`` -- atomic on POSIX -- and an existing file
    is never rewritten (same key means same content), which makes the
    store safe under concurrent writers without locks.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> bytes | None:
        path = self._path(key)
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        if not payload:
            # torn empty file: a miss, and evicted so a later put can
            # write the key instead of refusing because the path exists
            self.discard(key)
            return None
        return payload

    def put(self, key: str, payload: bytes) -> None:
        path = self._path(key)
        if path.exists():
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        finally:
            # a failed write must not leak its temp file (a SIGKILL
            # between write and replace still can; those are bounded by
            # worker count and ignored by every read path)
            tmp.unlink(missing_ok=True)

    def discard(self, key: str) -> None:
        """Drop one entry (only used to evict unreadable payloads)."""
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()


class ArtifactCache:
    """Tiered artifact cache with hit/miss accounting.

    ``directory=None`` gives a purely in-memory cache (one process, one
    session); with a directory, artifacts persist across processes and
    sessions and the memory layer acts as a read cache over the disk
    layer.  ``get``/``put`` move whole artifact *snapshots* (dicts of
    pickled context fields, see :mod:`repro.cache.cached`) but the
    store is value-agnostic: anything picklable works.
    """

    def __init__(self, directory: str | Path | None = None, *,
                 memory_limit: int = _DEFAULT_MEMORY_LIMIT) -> None:
        self.memory = MemoryArtifactStore(limit=memory_limit)
        self.disk = DiskArtifactStore(directory) if directory else None
        self.hits = 0
        self.misses = 0
        self.index_hits = 0
        self.index_misses = 0
        self.pass_events: dict[str, dict[str, int]] = {}

    @property
    def directory(self) -> Path | None:
        return self.disk.root if self.disk is not None else None

    # ------------------------------------------------------------------
    def _load(self, key: str) -> bytes | None:
        """Raw bytes under ``key``: memory first, then disk (promoted)."""
        payload = self.memory.get(key)
        if payload is None and self.disk is not None:
            payload = self.disk.get(key)
            if payload is not None:
                self.memory.put(key, payload)
        return payload

    def _store(self, key: str, payload: bytes) -> None:
        self.memory.put(key, payload)
        if self.disk is not None:
            try:
                self.disk.put(key, payload)
            except OSError:
                # the cache is an optimization: an unwritable or full
                # directory must not abort a compilation that already
                # succeeded -- the entry stays in the memory layer
                pass

    def _discard(self, key: str) -> None:
        """Evict an unreadable entry from both layers, so a later put
        can rewrite the key instead of the bad bytes living forever."""
        self.memory.discard(key)
        if self.disk is not None:
            self.disk.discard(key)

    def get(self, key: str) -> object | None:
        payload = self._load(key)
        if payload is None:
            self.misses += 1
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            self._discard(key)      # a corrupt entry is a miss
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        self._store(key, pickle.dumps(value,
                                      protocol=pickle.HIGHEST_PROTOCOL))

    # ------------------------------------------------------------------
    def get_index(self, key: str) -> str | None:
        """The digest recorded under index ``key``, or None.

        Index records live in the artifact layers as raw digest bytes
        (no pickle).  Their lookups count in ``index_hits``/
        ``index_misses``, never in the artifact ``hits``/``misses``.  A
        record that is not exactly a digest reads as a miss and is
        evicted from both layers, so the caller's :meth:`put_index`
        rewrites it (the disk layer never overwrites a file).
        """
        payload = self._load(key)
        if payload is not None and not _is_digest(payload):
            self._discard(key)
            payload = None
        if payload is None:
            self.index_misses += 1
            return None
        self.index_hits += 1
        return payload.decode("ascii")

    def put_index(self, key: str, digest: str) -> None:
        """Record ``digest`` (a fingerprint) under index ``key``."""
        self._store(key, digest.encode("ascii"))

    # ------------------------------------------------------------------
    def record_event(self, pass_name: str, hit: bool) -> None:
        """Count one per-pass lookup outcome (kept next to ctx.timings)."""
        events = self.pass_events.setdefault(pass_name,
                                             {"hits": 0, "misses": 0})
        events["hits" if hit else "misses"] += 1

    def stats(self) -> dict:
        """Counters snapshot: global hits/misses plus per-pass events.

        The single read path for the counters: the batch service's
        summary, the server's ``/metrics`` endpoint and the sweep report
        all consume this plain dict (or deltas of two snapshots via
        :func:`stats_delta`) instead of poking ``hits``/``misses``
        directly.  ``hits``/``misses`` count artifact lookups only;
        problem-index lookups are under ``index``.  ``memory_entries``
        counts artifacts and index records alike.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "index": {"hits": self.index_hits,
                      "misses": self.index_misses},
            "memory_entries": len(self.memory),
            "per_pass": {name: dict(events)
                         for name, events in self.pass_events.items()},
        }

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (entries stay; only accounting
        resets -- e.g. a metrics scrape-and-reset cycle)."""
        self.hits = 0
        self.misses = 0
        self.index_hits = 0
        self.index_misses = 0
        self.pass_events = {}


def stats_delta(before: dict, after: dict) -> dict:
    """What happened between two :meth:`ArtifactCache.stats` snapshots.

    Returns the same shape as ``stats()`` with counters subtracted
    (``memory_entries`` stays absolute: it is a gauge, not a counter).
    """
    per_pass: dict[str, dict[str, int]] = {}
    for name, events in after["per_pass"].items():
        prior = before["per_pass"].get(name, {})
        per_pass[name] = {key: value - prior.get(key, 0)
                          for key, value in events.items()}
    return {
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "index": {key: value - before["index"][key]
                  for key, value in after["index"].items()},
        "memory_entries": after["memory_entries"],
        "per_pass": per_pass,
    }


class LockingArtifactCache(ArtifactCache):
    """An :class:`ArtifactCache` safe to share across threads.

    The compile server's worker pool is thread-based and all workers
    share one cache per tenant; a reentrant lock around every public
    operation keeps the LRU order and the counters consistent.  (The
    process-pool paths don't need this: each process owns its cache and
    only the lock-free disk layer is shared.)
    """

    def __init__(self, directory: str | Path | None = None, *,
                 memory_limit: int = _DEFAULT_MEMORY_LIMIT) -> None:
        super().__init__(directory, memory_limit=memory_limit)
        self._lock = threading.RLock()

    def get(self, key: str) -> object | None:
        with self._lock:
            return super().get(key)

    def put(self, key: str, value: object) -> None:
        with self._lock:
            super().put(key, value)

    def get_index(self, key: str) -> str | None:
        with self._lock:
            return super().get_index(key)

    def put_index(self, key: str, digest: str) -> None:
        with self._lock:
            super().put_index(key, digest)

    def record_event(self, pass_name: str, hit: bool) -> None:
        with self._lock:
            super().record_event(pass_name, hit)

    def stats(self) -> dict:
        with self._lock:
            return super().stats()

    def reset_stats(self) -> None:
        with self._lock:
            super().reset_stats()


# ----------------------------------------------------------------------
# Per-process cache registry: pool workers reuse one ArtifactCache per
# directory across the many tasks a worker serves, keeping the memory
# layer warm over the shared disk layer.
# ----------------------------------------------------------------------
_PROCESS_CACHES: dict[str, ArtifactCache] = {}


def process_cache(directory: str | Path | None, *,
                  memory_limit: int = _DEFAULT_MEMORY_LIMIT,
                  ) -> ArtifactCache | None:
    """The calling process's shared cache for ``directory`` (or None).

    ``memory_limit`` applies when this process first opens the
    directory; later callers share the existing instance.
    """
    if directory is None:
        return None
    key = str(directory)
    cache = _PROCESS_CACHES.get(key)
    if cache is None:
        cache = _PROCESS_CACHES.setdefault(
            key, ArtifactCache(key, memory_limit=memory_limit))
    return cache


def salted_directory(root: str | Path) -> Path:
    """A cache directory under ``root`` scoped to the current sources.

    Fingerprints cover pass *configuration*, not pass *code*: editing an
    algorithm without touching its knobs would replay artifacts the old
    code produced.  Nesting persistent caches under a source digest (the
    same convention the sweep store uses) makes any source change start
    a fresh cache instead.

    Idempotent: an already-salted path comes back unchanged, so the
    several layers that enforce salting (``BatchCompiler``,
    ``run_engine``, the CLI) compose without nesting digests.
    """
    from repro.analysis.store import source_digest

    root = Path(root)
    digest = source_digest()
    return root if root.name == digest else root / digest

"""Compilation-as-a-service: an asyncio HTTP front end over a job queue.

Two layers:

* :class:`CompileService` -- the protocol-free core: a bounded priority
  :class:`~repro.service.queue.JobQueue`, a pool of worker threads
  reusing the batch executor (:func:`repro.service.batch
  .execute_request`), in-flight *coalescing* (concurrent identical
  requests -- same ``CompileRequest.key()``, same tenant -- share one
  compilation), *structural coalescing* (parameterised requests that
  differ only in angle values share one structural compile and bind
  per-request), per-tenant salted artifact caches, and a
  :class:`~repro.service.metrics.ServiceMetrics` aggregate.

* :class:`CompileServer` -- a minimal HTTP/1.1 handler on
  ``asyncio.start_server`` (stdlib only) routing::

      POST /compile   one CompileRequest JSON -> CompileResponse JSON
      POST /batch     a request list -> response list, byte-identical
                      to ``python -m repro batch --json``
      GET  /metrics   cache hit/miss, per-pass timings, queue depth,
                      latency histograms (``?format=prometheus`` for
                      text exposition)
      GET  /healthz   liveness + drain state
      POST /shutdown  graceful drain-and-exit

Backpressure: a full queue answers 429, a draining server 503, both
with a ``Retry-After`` estimated from queue depth -- the client SDK
(:mod:`repro.service.client`) honours it (falling back to exponential
backoff).  Connections are keep-alive by default (HTTP/1.1 semantics,
with an idle timeout); while a compile is in flight the handler watches
the socket, so a client that disconnects releases its job -- the last
waiter's departure cancels the running compile at its next pass
boundary.

Fault tolerance (see ``docs/architecture.md``, "Failure modes &
recovery"): ``worker_mode="process"`` executes compiles in a supervised
``ProcessPoolExecutor`` -- a dying child restarts the pool and requeues
the job up to ``max_retries`` before quarantining it as a poison job --
and ``journal_path`` arms a write-ahead log replayed on startup, so a
server crash never silently drops an accepted job.

Request JSON carries the :class:`CompileRequest` fields plus an optional
*envelope*: ``tenant`` (isolates the artifact cache under
``cache_dir/<tenant>`` composed through ``salted_directory``),
``priority`` (higher pops first) and ``timeout_s`` (the job is cancelled
with an error response if it cannot start in time).
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from repro.cache.store import (
    ArtifactCache,
    LockingArtifactCache,
    salted_directory,
)
from repro.core.cancel import CompilationCancelled
from repro.service.batch import (
    CompileRequest,
    CompileResponse,
    _execute_in_worker,
    assemble_responses,
    compute_request_keys,
    error_response,
    execute_request,
    is_finite_number,
    request_from_dict,
)
from repro.service.journal import JobJournal
from repro.service.metrics import ServiceMetrics, prometheus_text
from repro.service.queue import (
    Job,
    JobQueue,
    QueueClosedError,
    QueueFullError,
)

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{0,64}$")
_MAX_BODY_BYTES = 16 * 1024 * 1024
#: Cap on the request line plus headers, checked as bytes arrive.
_MAX_HEAD_BYTES = 64 * 1024
_STATUS_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}
#: Envelope fields the service consumes before request parsing.
ENVELOPE_FIELDS = ("tenant", "priority", "timeout_s")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one compile service instance.

    ``worker_mode`` selects where compiles execute: ``"thread"`` (the
    default; cheap, shares the GIL) or ``"process"`` (a supervised
    ``ProcessPoolExecutor``: crash isolation plus real parallelism for
    concurrent cold compiles).  ``max_retries`` bounds how many times a
    crashed job is re-run before it is quarantined as a poison job.
    ``journal_path`` arms the accepted-job write-ahead log (replayed by
    :meth:`CompileService.recover` on startup).  ``idle_timeout_s`` is
    how long the HTTP front end keeps an idle keep-alive connection.
    """

    jobs: int = 2
    queue_depth: int = 64
    cache_dir: str | Path | None = None
    memory_limit: int = 1024
    default_timeout_s: float | None = None
    max_structurals: int = 128
    worker_mode: str = "thread"
    max_retries: int = 2
    journal_path: str | Path | None = None
    idle_timeout_s: float = 60.0


class PoisonJobError(RuntimeError):
    """A job that crashed its worker on every allowed attempt."""


@dataclass(frozen=True)
class Envelope:
    """Service-level request fields, split off before request parsing."""

    tenant: str = ""
    priority: int = 0
    timeout_s: float | None = None


def split_envelope(payload: dict, defaults: Envelope | None = None,
                   ) -> tuple[dict, Envelope]:
    """Separate envelope fields from the request payload, validating.

    Returns the remaining request fields (for ``request_from_dict``) and
    the envelope; unset fields inherit ``defaults`` (the batch-level
    envelope, or the server defaults).
    """
    if defaults is None:
        defaults = Envelope()
    payload = dict(payload)
    tenant = payload.pop("tenant", defaults.tenant)
    priority = payload.pop("priority", defaults.priority)
    timeout_s = payload.pop("timeout_s", defaults.timeout_s)
    if not isinstance(tenant, str) or not _TENANT_RE.fullmatch(tenant) \
            or ".." in tenant:
        raise ValueError(
            f"field 'tenant' must be a short name of letters, digits, "
            f"'.', '_' or '-', got {tenant!r}")
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ValueError(f"field 'priority' must be an integer, "
                         f"got {priority!r}")
    if timeout_s is not None and (
            isinstance(timeout_s, bool)
            or not isinstance(timeout_s, (int, float))
            or not is_finite_number(timeout_s) or timeout_s <= 0):
        raise ValueError(f"field 'timeout_s' must be a positive finite "
                         f"number, got {timeout_s!r}")
    envelope = Envelope(tenant=tenant, priority=priority,
                        timeout_s=None if timeout_s is None
                        else float(timeout_s))
    return payload, envelope


class CompileService:
    """Queue + worker pool + coalescing + tenant caches (no HTTP)."""

    #: How many quarantined keys the poison set remembers.
    MAX_POISONED = 256

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        if self.config.worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', "
                f"got {self.config.worker_mode!r}")
        self.queue = JobQueue(self.config.queue_depth)
        self.metrics = ServiceMetrics()
        self.journal = (JobJournal(self.config.journal_path)
                        if self.config.journal_path is not None else None)
        self._lock = threading.Lock()
        self._caches: dict[str, ArtifactCache] = {}
        self._structurals: dict[str, dict] = {}
        self._structural_locks: dict[tuple[str, str], threading.Lock] = {}
        self._inflight: dict[tuple[str, str], Job] = {}
        self._workers: list[threading.Thread] = []
        self._running = 0
        self._draining = False
        self._poisoned: OrderedDict[str, str] = OrderedDict()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_generation = 0
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._workers:
            raise RuntimeError("service already started")
        for index in range(self.config.jobs):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"compile-worker-{index}",
                                      daemon=True)
            worker.start()
            self._workers.append(worker)
        if self.journal is not None:
            self.recover()

    @property
    def draining(self) -> bool:
        return self._draining

    def shutdown(self, drain: bool = True) -> int:
        """Stop accepting work; returns the number of pending jobs.

        ``drain=True`` (graceful) leaves queued jobs for the workers to
        finish; ``drain=False`` resolves them immediately with error
        responses.  Idempotent.
        """
        with self._lock:
            self._draining = True
        if not drain:
            for job in self.queue.drain():
                self.metrics.increment("cancelled")
                job.resolve(error_response(
                    job.request,
                    QueueClosedError("server stopped before the job ran"),
                    request_key=job.key))
        return len(self.queue.close())

    def join(self, timeout: float | None = None) -> None:
        """Wait for the workers to drain the queue and exit."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        for worker in self._workers:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            worker.join(remaining)
        if all(not worker.is_alive() for worker in self._workers):
            with self._pool_lock:
                pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=False)

    # ------------------------------------------------------------------
    # caches
    # ------------------------------------------------------------------
    def cache_for(self, tenant: str = "") -> ArtifactCache:
        """The tenant's shared (thread-safe) artifact cache.

        With a ``cache_dir``, each tenant's artifacts live under
        ``cache_dir/<tenant>`` composed through ``salted_directory`` --
        so tenants never read each other's artifacts and a source change
        starts every tenant on a fresh cache.  Without one, each tenant
        keeps a private in-memory cache.
        """
        with self._lock:
            cache = self._caches.get(tenant)
            if cache is None:
                directory = None
                if self.config.cache_dir is not None:
                    root = Path(self.config.cache_dir)
                    directory = salted_directory(root / tenant if tenant
                                                 else root)
                cache = LockingArtifactCache(
                    directory, memory_limit=self.config.memory_limit)
                self._caches[tenant] = cache
            return cache

    def _structurals_for(self, tenant: str) -> dict:
        with self._lock:
            return self._structurals.setdefault(tenant, {})

    def _structural_lock(self, tenant: str, skey: str) -> threading.Lock:
        with self._lock:
            return self._structural_locks.setdefault(
                (tenant, skey), threading.Lock())

    # ------------------------------------------------------------------
    # submission & coalescing
    # ------------------------------------------------------------------
    def submit(self, request: CompileRequest, key: str, *,
               tenant: str = "", priority: int = 0,
               timeout_s: float | None = None,
               record: bool = True) -> tuple[Job, bool]:
        """Enqueue a request, coalescing onto an in-flight twin.

        Returns ``(job, coalesced)``: when an identical request (same
        key, same tenant) is already queued or running, the caller
        attaches to its job -- one compilation serves every waiter.
        Raises :class:`QueueFullError` (backpressure) or
        :class:`QueueClosedError` (draining).

        Every call adds one waiter to the job; callers that stop
        listening early (timeout, disconnect) must balance it with
        :meth:`Job.release_waiter`.  ``record=False`` skips the journal
        ``accepted`` entry (the replay path: the record already exists).
        """
        if timeout_s is None:
            timeout_s = self.config.default_timeout_s
        slot = (tenant, key)
        with self._lock:
            if self._draining:
                raise QueueClosedError("server is draining")
            poisoned = self._poisoned.get(key)
            if poisoned is not None:
                self.metrics.increment("poison_rejected")
                job = Job(request=request, key=key, tenant=tenant,
                          priority=priority, timeout_s=timeout_s)
                job.add_waiter()
                job.resolve(error_response(
                    request, PoisonJobError(poisoned), request_key=key))
                return job, False
            job = self._inflight.get(slot)
            if job is not None and not job.future.done():
                self.metrics.increment("coalesced")
                job.add_waiter()
                return job, True
            job = Job(request=request, key=key, tenant=tenant,
                      priority=priority, timeout_s=timeout_s)
            job.add_waiter()
            self._inflight[slot] = job
            job.future.add_done_callback(
                lambda _future, slot=slot, job=job: self._forget(slot, job))
            try:
                self.queue.put(job)
            except Exception:
                self._inflight.pop(slot, None)
                raise
            self.metrics.increment("submitted")
        if record:
            self._journal_accepted(job)
        return job, False

    def _forget(self, slot: tuple[str, str], job: Job) -> None:
        with self._lock:
            if self._inflight.get(slot) is job:
                del self._inflight[slot]
        self._journal_completed(job)

    # ------------------------------------------------------------------
    # durability (the accepted-job write-ahead log)
    # ------------------------------------------------------------------
    def _journal_accepted(self, job: Job) -> None:
        if self.journal is None:
            return
        try:
            self.journal.record_accepted(
                job.key, job.request.to_dict(), tenant=job.tenant,
                priority=job.priority, timeout_s=job.timeout_s)
        except OSError:
            # durability degrades, serving does not
            self.metrics.increment("journal_write_errors")

    def _journal_completed(self, job: Job) -> None:
        if self.journal is None:
            return
        response = job.future.result() if job.future.done() else None
        failed = bool(getattr(response, "failed", False))
        try:
            self.journal.record_completed(job.key, failed=failed)
        except OSError:
            self.metrics.increment("journal_write_errors")

    def recover(self) -> int:
        """Replay journal records accepted but never answered.

        Called by :meth:`start` when a journal is armed: compacts the
        file (dropping answered pairs), then resubmits every still-open
        ``accepted`` record.  Replayed jobs re-execute with the current
        code -- the artifact cache absorbs whatever is still valid.
        Returns the number of jobs resubmitted.
        """
        if self.journal is None:
            return 0
        try:
            self.journal.compact()
            pending = self.journal.pending()
        except OSError:
            self.metrics.increment("journal_write_errors")
            return 0
        replayed = 0
        for entry in pending:
            try:
                request = request_from_dict(entry["request"])
                key = request.key()
                if key != entry["key"]:
                    # the key algorithm changed underneath the record:
                    # retire the stale spelling so it never re-replays,
                    # and journal the job afresh under its current key
                    self.journal.record_completed(entry["key"])
                record = key != entry["key"]
                _job, coalesced = self.submit(
                    request, key,
                    tenant=entry.get("tenant", "") or "",
                    priority=int(entry.get("priority", 0) or 0),
                    timeout_s=entry.get("timeout_s"),
                    record=record)
            except (QueueFullError, QueueClosedError):
                # still journalled as accepted; the next restart retries
                self.metrics.increment("journal_replay_skipped")
                continue
            except Exception:
                # unreadable record (old schema, corrupt values): count
                # it, retire it, keep replaying the rest
                self.metrics.increment("journal_replay_skipped")
                try:
                    self.journal.record_completed(entry["key"], failed=True)
                except OSError:
                    self.metrics.increment("journal_write_errors")
                continue
            if not coalesced:
                replayed += 1
        if replayed:
            self.metrics.increment("journal_replayed", replayed)
        return replayed

    def timeout_response(self, job: Job) -> CompileResponse:
        limit = job.timeout_s
        message = ("cancelled before the job could run" if limit is None
                   else f"request timed out after {limit:g}s in the queue")
        return error_response(job.request, TimeoutError(message),
                              request_key=job.key)

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self.queue.get()
            if job is None:
                return
            with self._lock:
                self._running += 1
            try:
                self._serve_job(job)
            finally:
                with self._lock:
                    self._running -= 1

    def _serve_job(self, job: Job) -> None:
        if job.cancelled:
            # whoever cancelled already counted the timeout/disconnect
            job.resolve(self.timeout_response(job))
            return
        if job.expired:
            self.metrics.increment("timed_out")
            job.resolve(self.timeout_response(job))
            return
        job.started = True
        job.attempts += 1
        queue_wait = time.monotonic() - job.enqueued_at
        start = time.perf_counter()
        try:
            response = self._execute(job)
        except CompilationCancelled as exc:
            # the compile stopped at a pass boundary (cancel/deadline);
            # the worker is free well before pipeline completion
            self.metrics.increment("cancelled_running")
            response = error_response(job.request, exc, request_key=job.key)
        except Exception as exc:
            response = error_response(job.request, exc, request_key=job.key)
        if response is None:
            return      # the supervisor requeued the job; not done yet
        # record before resolving: a waiter that reads /metrics right
        # after its response must already see this job counted
        self.metrics.observe_response(response, queue_wait,
                                      time.perf_counter() - start)
        job.resolve(response)

    def _execute(self, job: Job) -> CompileResponse | None:
        if self.config.worker_mode == "process":
            return self._execute_in_pool(job)
        from repro.service import faults

        faults.maybe_crash(hard=False)
        cache = self.cache_for(job.tenant)
        if not job.request.parameters:
            return execute_request(job.request, cache, request_key=job.key,
                                   cancel=job.cancel_token)
        # structural coalescing: requests differing only in angle values
        # share one structural compile; the per-structure lock makes
        # concurrent first arrivals compile it exactly once
        skey = job.request.structural_key()
        structurals = self._structurals_for(job.tenant)
        with self._structural_lock(job.tenant, skey):
            known = skey in structurals
            response = execute_request(job.request, cache, structurals,
                                       request_key=job.key,
                                       cancel=job.cancel_token)
            if not known and skey in structurals:
                self.metrics.increment("structural_compiles")
            while len(structurals) > self.config.max_structurals:
                structurals.pop(next(iter(structurals)), None)
        self.metrics.increment("structural_binds")
        return response

    # ------------------------------------------------------------------
    # process-isolated execution (the supervisor)
    # ------------------------------------------------------------------
    def _current_pool(self) -> tuple[ProcessPoolExecutor, int]:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.config.jobs)
            return self._pool, self._pool_generation

    def _restart_pool(self, generation: int) -> None:
        """Replace a broken pool; generation-guarded so concurrent
        workers observing the same crash restart it exactly once."""
        stale = None
        with self._pool_lock:
            if generation == self._pool_generation:
                stale, self._pool = self._pool, None
                self._pool_generation += 1
                self.metrics.increment("pool_restarts")
        if stale is not None:
            stale.shutdown(wait=False)

    def _execute_in_pool(self, job: Job) -> CompileResponse | None:
        """Run one job in the supervised process pool.

        A child dying mid-compile surfaces as ``BrokenProcessPool``:
        the supervisor restarts the pool and requeues the job until its
        ``attempts`` exhaust ``max_retries``, then quarantines the key
        (poison job) and answers with a typed error.  Returns ``None``
        when the job went back to the queue (no response yet).

        Only the *deadline* crosses the process boundary (as a relative
        budget); a disconnect-driven cancel cannot reach a busy child,
        so thread mode is where mid-compile disconnect cancellation is
        exact.
        """
        cache = self.cache_for(job.tenant)
        cache_dir = (str(cache.directory)
                     if getattr(cache, "directory", None) is not None
                     else None)
        deadline = job.deadline
        remaining = (None if deadline is None
                     else max(0.01, deadline - time.monotonic()))
        payload = (job.request, job.key, cache_dir,
                   self.config.memory_limit, remaining)
        while True:
            pool, generation = self._current_pool()
            try:
                future = pool.submit(_execute_in_worker, payload)
            except RuntimeError:
                # a sibling worker replaced the pool under us; not a
                # crash of *this* job -- grab the fresh pool and resubmit
                continue
            try:
                return future.result()
            except BrokenProcessPool:
                self.metrics.increment("worker_crashes")
                self._restart_pool(generation)
                if job.cancelled or job.expired:
                    return self.timeout_response(job)
                if job.attempts > self.config.max_retries:
                    message = (f"job crashed its worker "
                               f"{job.attempts} time(s); quarantined")
                    self._quarantine(job.key, message)
                    self.metrics.increment("poisoned")
                    return error_response(job.request,
                                          PoisonJobError(message),
                                          request_key=job.key)
                try:
                    self.queue.put(job)
                except (QueueFullError, QueueClosedError):
                    # no room to requeue: retry inline instead; this is
                    # a fresh attempt, so count it like a re-pop would
                    job.attempts += 1
                    continue
                self.metrics.increment("requeued")
                return None

    def _quarantine(self, key: str, message: str) -> None:
        with self._lock:
            self._poisoned[key] = message
            while len(self._poisoned) > self.MAX_POISONED:
                self._poisoned.popitem(last=False)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def health_payload(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "queue_depth": len(self.queue),
            "workers": len(self._workers),
            "worker_mode": self.config.worker_mode,
            "journal": self.journal is not None,
        }

    def metrics_payload(self) -> dict:
        payload = self.metrics.snapshot()
        with self._lock:
            caches = dict(self._caches)
            running = self._running
        payload["queue"] = {
            "depth": len(self.queue),
            "capacity": self.queue.maxsize,
            "workers": len(self._workers),
            "worker_mode": self.config.worker_mode,
            "running": running,
            "draining": self._draining,
        }
        payload["cache"] = {tenant or "default": cache.stats()
                            for tenant, cache in sorted(caches.items())}
        return payload

    def retry_after_s(self) -> float:
        """How long a backpressured client should wait before retrying.

        Queue depth times the observed mean request latency, spread
        over the workers; clamped to [0.1s, 30s].  Before any request
        has completed the estimate falls back to one second.
        """
        mean = self.metrics.mean_request_s()
        if mean is None:
            return 1.0
        depth = max(1, len(self.queue))
        workers = max(1, len(self._workers) or self.config.jobs)
        return min(30.0, max(0.1, depth * mean / workers))


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
class _BadRequest(ValueError):
    pass


class _ConnectionReader:
    """A buffered reader that can *watch* the socket between requests.

    Disconnect detection needs someone reading the socket while a
    compile runs; a plain ``StreamReader`` cannot serve both that
    monitor and the next pipelined request without the two corrupting
    each other's view of the stream.  This wrapper owns a single buffer:
    :meth:`wait_disconnect` pulls bytes into it until EOF (anything a
    pipelining client sent early is kept, in order, for the next
    :meth:`readline`), and the parsing methods consume from the buffer
    first.  The monitor and the parser never run concurrently -- the
    handler reads requests between dispatches and watches only during
    them.
    """

    #: Stop buffering a misbehaving client beyond one max-size request.
    MAX_BUFFER = _MAX_BODY_BYTES + 65536

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._buffer = b""
        self._eof = False

    async def _fill(self) -> None:
        chunk = await self._reader.read(65536)
        if not chunk:
            self._eof = True
        else:
            self._buffer += chunk

    async def readline(self, limit: int) -> bytes:
        """The next line, newline included (the rest of the stream at
        EOF); :class:`_BadRequest` once it would pass ``limit`` bytes,
        so no client can stream an endless head into memory."""
        index = self._buffer.find(b"\n")
        while index < 0 and not self._eof and len(self._buffer) <= limit:
            scanned = len(self._buffer)
            await self._fill()
            index = self._buffer.find(b"\n", scanned)
        end = len(self._buffer) if index < 0 else index + 1
        if end > limit:
            raise _BadRequest(
                f"request head exceeds {_MAX_HEAD_BYTES} bytes")
        line, self._buffer = self._buffer[:end], self._buffer[end:]
        return line

    async def readexactly(self, n: int) -> bytes:
        while len(self._buffer) < n and not self._eof:
            await self._fill()
        if len(self._buffer) < n:
            raise asyncio.IncompleteReadError(self._buffer, n)
        data, self._buffer = self._buffer[:n], self._buffer[n:]
        return data

    async def wait_disconnect(self) -> None:
        """Return when the peer closes (or floods) the connection."""
        while not self._eof and len(self._buffer) < self.MAX_BUFFER:
            await self._fill()


async def _read_request(conn: _ConnectionReader,
                        ) -> tuple[str, str, str, dict, bytes]:
    head = _MAX_HEAD_BYTES      # budget left for the line and headers
    line = await conn.readline(head)
    if not line:
        raise ConnectionResetError("client closed the connection")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line {line!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    while True:
        head -= len(line)
        line = await conn.readline(head)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _BadRequest("bad Content-Length header") from None
    if length < 0:
        raise _BadRequest("negative Content-Length header")
    if length > _MAX_BODY_BYTES:
        raise _BadRequest(f"body exceeds {_MAX_BODY_BYTES} bytes")
    body = await conn.readexactly(length) if length else b""
    return method, target, version, headers, body


def _wants_keep_alive(version: str, headers: dict[str, str]) -> bool:
    """HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close."""
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        return connection == "keep-alive"
    return connection != "close"


async def _write_response(writer: asyncio.StreamWriter, status: int,
                          payload: object, *, keep_alive: bool = False,
                          extra_headers: dict[str, str] | None = None,
                          ) -> None:
    if isinstance(payload, str):          # pre-rendered (e.g. prometheus)
        body = payload.encode()
        content_type = "text/plain; charset=utf-8"
    else:
        # indent=2 keeps /batch output byte-identical to the CLI's stdout
        body = json.dumps(payload, indent=2).encode()
        content_type = "application/json"
    headers = {"Content-Type": content_type, **(extra_headers or {})}
    reason = _STATUS_REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}"]
    head.extend(f"{name}: {value}" for name, value in headers.items())
    head.append(f"Content-Length: {len(body)}")
    head.append("Connection: " + ("keep-alive" if keep_alive else "close"))
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


class CompileServer:
    """Asyncio HTTP/1.1 front end around a :class:`CompileService`."""

    def __init__(self, service: CompileService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._busy: set[asyncio.Task] = set()
        self._shutdown_started = False

    async def start(self) -> None:
        """Bind the listener (port 0 picks an ephemeral port) and start
        the service workers."""
        self._loop = asyncio.get_running_loop()
        self._closed = asyncio.Event()
        if not self.service._workers:
            self.service.start()
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown (signal or ``POST /shutdown``) drains."""
        await self._closed.wait()

    def begin_shutdown(self, drain: bool = True) -> None:
        """Start the graceful exit; safe to call from the loop thread
        (signal handlers, the /shutdown route).  Idempotent."""
        if self._shutdown_started:
            return
        self._shutdown_started = True
        self._loop.create_task(self._shutdown_task(drain))

    def begin_shutdown_threadsafe(self, drain: bool = True) -> None:
        """Like :meth:`begin_shutdown`, callable from any thread."""
        try:
            self._loop.call_soon_threadsafe(self.begin_shutdown, drain)
        except RuntimeError:
            pass    # loop already closed: shutdown has happened

    async def _shutdown_task(self, drain: bool) -> None:
        loop = asyncio.get_running_loop()
        self.service.shutdown(drain=drain)
        # the queue drains on worker threads; don't block the loop --
        # in-flight handlers still need it to deliver their responses
        await loop.run_in_executor(None, self.service.join)
        current = asyncio.current_task()
        # keep-alive connections waiting for their *next* request would
        # stall the drain; only handlers mid-request deserve the grace
        for task in list(self._conn_tasks):
            if task is not current and not task.done() \
                    and task not in self._busy:
                task.cancel()
        pending = [task for task in self._conn_tasks
                   if task is not current and not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=5.0)
        self._server.close()
        await self._server.wait_closed()
        self._closed.set()

    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        conn = _ConnectionReader(reader)
        try:
            while True:     # one iteration per request on the connection
                try:
                    method, target, version, headers, body = \
                        await asyncio.wait_for(
                            _read_request(conn),
                            self.service.config.idle_timeout_s)
                except asyncio.TimeoutError:
                    return                 # idle keep-alive connection
                except _BadRequest as exc:
                    await _write_response(writer, 400, {"error": str(exc)})
                    return
                except (ConnectionError, asyncio.IncompleteReadError):
                    return
                keep_alive = _wants_keep_alive(version, headers)
                self._busy.add(task)
                path = target.split("?", 1)[0]
                # watch the socket while a compile is in flight: a
                # vanishing client should free its worker, not burn it
                monitor = (asyncio.ensure_future(conn.wait_disconnect())
                           if path in ("/compile", "/batch") else None)
                try:
                    try:
                        status, payload, extra = await self._dispatch(
                            method, target, body, monitor)
                    except Exception as exc:  # one broken handler must
                        status = 500          # not take the server down
                        payload = {"error": f"{type(exc).__name__}: {exc}"}
                        extra = {}
                    if monitor is not None and not monitor.done():
                        monitor.cancel()
                        try:
                            await monitor
                        except asyncio.CancelledError:
                            pass
                    elif monitor is not None:
                        return  # client gone; nothing to answer to
                    if status is None:
                        return  # route observed the disconnect itself
                    await _write_response(writer, status, payload,
                                          keep_alive=keep_alive,
                                          extra_headers=extra)
                finally:
                    self._busy.discard(task)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._busy.discard(task)
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, method: str, target: str, body: bytes,
                        monitor: "asyncio.Future | None" = None,
                        ) -> tuple[int | None, object, dict[str, str]]:
        """Route one request; ``(None, ...)`` means "client gone, write
        nothing".  The third element is extra response headers."""
        path, _, query = target.partition("?")
        routes = {"/healthz": "GET", "/metrics": "GET", "/compile": "POST",
                  "/batch": "POST", "/shutdown": "POST"}
        expected = routes.get(path)
        if expected is None:
            return 404, {"error": f"no route {path}"}, {}
        if method != expected:
            return 405, {"error": f"{path} expects {expected}"}, {}
        if path == "/healthz":
            return 200, self.service.health_payload(), {}
        if path == "/metrics":
            return self._metrics_route(query)
        if path == "/shutdown":
            status, payload = self._shutdown_route(body)
            return status, payload, {}
        if path == "/compile":
            return await self._compile_route(body, monitor)
        return await self._batch_route(body, monitor)

    def _metrics_route(self, query: str,
                       ) -> tuple[int, object, dict[str, str]]:
        payload = self.service.metrics_payload()
        params = dict(
            pair.partition("=")[::2] for pair in query.split("&") if pair)
        if params.get("format") == "prometheus":
            return 200, prometheus_text(payload), {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8"}
        if "format" in params and params["format"] != "json":
            return 400, {"error": f"unknown metrics format "
                                  f"{params['format']!r}"}, {}
        return 200, payload, {}

    def _backpressure_headers(self) -> dict[str, str]:
        return {"Retry-After": f"{self.service.retry_after_s():.2f}"}

    def _shutdown_route(self, body: bytes) -> tuple[int, object]:
        drain = True
        if body:
            try:
                payload = json.loads(body)
            except ValueError:
                return 400, {"error": "shutdown body must be JSON"}
            if not isinstance(payload, dict) \
                    or not isinstance(payload.get("drain", True), bool):
                return 400, {"error": "shutdown body must be an object "
                                      "with an optional boolean 'drain'"}
            drain = payload.get("drain", True)
        pending = len(self.service.queue)
        self.begin_shutdown(drain=drain)
        return 200, {"status": "draining" if drain else "stopping",
                     "pending": pending}

    # ------------------------------------------------------------------
    def _default_envelope(self) -> Envelope:
        return Envelope(timeout_s=self.service.config.default_timeout_s)

    def _release(self, job: Job) -> None:
        """One waiter stopped listening; the last one out cancels the
        job (dead-on-arrival if queued, pass-boundary stop if running)."""
        if job.release_waiter():
            job.cancel()

    async def _await_job(self, job: Job, timeout_s: float | None,
                         monitor: "asyncio.Future | None" = None,
                         ) -> CompileResponse | None:
        """Wait on the job's shared future; ``None`` = client vanished.

        The future is shielded -- a waiter timing out or disconnecting
        must not cancel the result other coalesced waiters (and the
        cache) still want; it *releases its waiter slot* instead, and
        only the last departure cancels the compile itself.
        """
        future = asyncio.wrap_future(job.future)
        shielded = asyncio.ensure_future(asyncio.shield(future))
        waiting = {shielded} if monitor is None else {shielded, monitor}
        try:
            done, _ = await asyncio.wait(waiting, timeout=timeout_s,
                                         return_when=asyncio.FIRST_COMPLETED)
        except asyncio.CancelledError:
            shielded.cancel()
            self._release(job)
            raise
        if shielded in done:
            return shielded.result()
        shielded.cancel()
        if monitor is not None and monitor in done:
            self.service.metrics.increment("disconnected")
            self._release(job)
            return None
        self.service.metrics.increment("timed_out")
        self._release(job)
        return self.service.timeout_response(job)

    async def _compile_route(self, body: bytes,
                             monitor: "asyncio.Future | None" = None,
                             ) -> tuple[int | None, object, dict[str, str]]:
        try:
            payload = json.loads(body)
        except ValueError:
            return 400, {"error": "request body must be JSON"}, {}
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}, {}
        try:
            request_payload, envelope = split_envelope(
                payload, self._default_envelope())
            request = request_from_dict(request_payload)
        except ValueError as exc:
            return 400, {"error": str(exc)}, {}
        self.service.metrics.increment("received")
        try:
            key = request.key()
        except Exception as exc:
            self.service.metrics.increment("failed")
            return 200, error_response(request, exc).to_dict(), {}
        try:
            job, _coalesced = self.service.submit(
                request, key, tenant=envelope.tenant,
                priority=envelope.priority, timeout_s=envelope.timeout_s)
        except QueueFullError as exc:
            self.service.metrics.increment("rejected_queue_full")
            return 429, {"error": str(exc),
                         "queue_depth": len(self.service.queue)}, \
                self._backpressure_headers()
        except QueueClosedError as exc:
            return 503, {"error": str(exc)}, self._backpressure_headers()
        response = await self._await_job(job, envelope.timeout_s, monitor)
        if response is None:
            return None, None, {}
        return 200, response.to_dict(), {}

    async def _batch_route(self, body: bytes,
                           monitor: "asyncio.Future | None" = None,
                           ) -> tuple[int | None, object, dict[str, str]]:
        try:
            payload = json.loads(body)
        except ValueError:
            return 400, {"error": "request body must be JSON"}, {}
        defaults = self._default_envelope()
        if isinstance(payload, dict):
            items = payload.get("requests")
            extra = set(payload) - {"requests", *ENVELOPE_FIELDS}
            if not isinstance(items, list) or extra:
                return 400, {"error": "batch object must hold 'requests' "
                                      "(a list) plus optional "
                                      f"{sorted(ENVELOPE_FIELDS)}"}, {}
            try:
                _, defaults = split_envelope(
                    {k: v for k, v in payload.items() if k != "requests"},
                    defaults)
            except ValueError as exc:
                return 400, {"error": str(exc)}, {}
        elif isinstance(payload, list):
            items = payload
        else:
            return 400, {"error": "batch body must be a JSON list or an "
                                  "object with a 'requests' list"}, {}
        requests: list[CompileRequest] = []
        envelopes: list[Envelope] = []
        for index, item in enumerate(items):
            if not isinstance(item, dict):
                return 400, {"error": f"request #{index} must be a JSON "
                                      f"object"}, {}
            try:
                request_payload, envelope = split_envelope(item, defaults)
                requests.append(request_from_dict(request_payload))
            except ValueError as exc:
                return 400, {"error": f"request #{index}: {exc}"}, {}
            envelopes.append(envelope)
        self.service.metrics.increment("received", len(requests))
        keys, pre_failed = compute_request_keys(requests)
        if pre_failed:
            self.service.metrics.increment("failed", len(pre_failed))
        jobs: dict[str, tuple[Job, Envelope]] = {}
        duplicates = 0
        for request, key, envelope in zip(requests, keys, envelopes):
            if key is None:
                continue
            if key in jobs:
                duplicates += 1
                continue
            try:
                job, _coalesced = self.service.submit(
                    request, key, tenant=envelope.tenant,
                    priority=envelope.priority,
                    timeout_s=envelope.timeout_s)
            except QueueFullError as exc:
                # all-or-nothing: the client retries the whole batch;
                # jobs already submitted keep running and warm the cache
                self.service.metrics.increment("rejected_queue_full")
                for pending_job, _envelope in jobs.values():
                    self._release(pending_job)
                return 429, {"error": str(exc),
                             "queue_depth": len(self.service.queue)}, \
                    self._backpressure_headers()
            except QueueClosedError as exc:
                for pending_job, _envelope in jobs.values():
                    self._release(pending_job)
                return 503, {"error": str(exc)}, \
                    self._backpressure_headers()
            jobs[key] = (job, envelope)
        if duplicates:
            self.service.metrics.increment("deduplicated", duplicates)
        results = await asyncio.gather(*(
            self._await_job(job, envelope.timeout_s, monitor)
            for job, envelope in jobs.values()))
        if any(result is None for result in results):
            return None, None, {}  # the client disconnected mid-batch
        computed = dict(zip(jobs.keys(), results))
        responses = assemble_responses(requests, keys, computed, pre_failed)
        return 200, [response.to_dict() for response in responses], {}


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def serve(config: ServiceConfig | None = None, host: str = "127.0.0.1",
          port: int = 8000, *, install_signals: bool = True) -> int:
    """Run a compile server in the foreground (the CLI entry point).

    Prints ``serving on HOST:PORT`` to stderr once the listener is bound
    (with ``--port 0`` this is how callers learn the ephemeral port) and
    blocks until SIGINT/SIGTERM or ``POST /shutdown`` drains the queue.
    """
    service = CompileService(config)
    server = CompileServer(service, host, port)

    async def _main() -> None:
        await server.start()
        print(f"serving on {server.host}:{server.port}", file=sys.stderr,
              flush=True)
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, server.begin_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass   # non-main thread or unsupported platform
        await server.serve_until_shutdown()

    asyncio.run(_main())
    return 0


class ServerThread:
    """A compile server on a background thread (tests and examples).

    Usage::

        with ServerThread(CompileService(config)) as handle:
            client = CompileClient(port=handle.port)
            ...

    The context exit performs a graceful drain.
    """

    def __init__(self, service: CompileService | None = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service or CompileService()
        self.server = CompileServer(self.service, host, port)
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run,
                                        name="compile-server", daemon=True)

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        async def _main() -> None:
            await self.server.start()
            self._ready.set()
            await self.server.serve_until_shutdown()

        try:
            asyncio.run(_main())
        except BaseException as exc:
            self._error = exc
            self._ready.set()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(10.0)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if not self._ready.is_set():
            raise RuntimeError("server did not start within 10s")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain; idempotent (a /shutdown-stopped server is
        already gone)."""
        if self._thread.is_alive():
            self.server.begin_shutdown_threadsafe()
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""The batch compilation front end.

A :class:`CompileRequest` is a plain-values description of one
compilation (benchmark, size, compiler, device, gate set, seed), a
:class:`CompileResponse` the metrics it produced.  The
:class:`BatchCompiler` serves a list of requests the way a compilation
service would:

* *deduplication* -- identical requests (after canonicalising compiler
  aliases and dropping device/gate-set fields the compiler ignores) are
  compiled once;
* *shared cache* -- one :class:`~repro.cache.ArtifactCache` spans the
  batch, so requests that share a pipeline prefix (same problem for
  several compilers, same compiler for several gate sets) reuse each
  other's stage artifacts, and a ``cache_dir`` persists artifacts
  across batches and processes;
* *fan-out* -- with ``jobs > 1`` unique requests spread over a
  ``ProcessPoolExecutor`` whose workers share the disk cache layer;
* *structural coalescing* -- requests that carry ``parameters`` and
  differ only in angle values share one structural compilation
  (everything before the pipeline's binding pass); each request then
  binds its own angles, bit-identical to a from-scratch compile.

Responses come back in request order, duplicates marked
``deduplicated=True``.  Failures are isolated per request: a compilation
that raises becomes an error-carrying response (``error`` set, metrics
zeroed) while the rest of the batch is served normally -- completed work
is drained, never discarded, mirroring ``run_engine``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

from repro.cache.store import ArtifactCache
from repro.core.cancel import CancelToken
from repro.service import faults

_REQUEST_DEFAULTS = {
    "compiler": "2qan",
    "benchmark": "NNN_Heisenberg",
    "n_qubits": 8,
    "device": "montreal",
    "gateset": "CNOT",
    "seed": 0,
    "qaoa_degree": 3,
    "parameters": (),
}

#: Benchmark families that consume ``qaoa_degree``.
_DEGREE_FAMILIES = ("QAOA-REG", "QAOA-WR")


@dataclass(frozen=True)
class CompileRequest:
    """One compilation, described entirely by plain values.

    ``parameters`` optionally carries angle bindings as sorted
    ``(name, value)`` pairs (JSON form: an object such as
    ``{"gamma": 0.4, "beta": 1.1}``).  A request with parameters is
    served through the structure/parameter split: the benchmark's
    *symbolic* step is compiled structurally once per
    :meth:`structural_key` and each request's angles are bound at the
    end -- bit-identical to compiling the concrete circuit.
    """

    compiler: str = _REQUEST_DEFAULTS["compiler"]
    benchmark: str = _REQUEST_DEFAULTS["benchmark"]
    n_qubits: int = _REQUEST_DEFAULTS["n_qubits"]
    device: str = _REQUEST_DEFAULTS["device"]
    gateset: str = _REQUEST_DEFAULTS["gateset"]
    seed: int = _REQUEST_DEFAULTS["seed"]
    qaoa_degree: int = _REQUEST_DEFAULTS["qaoa_degree"]
    parameters: tuple[tuple[str, float], ...] = ()

    def binding(self) -> dict[str, float]:
        """The angle binding this request carries (empty = concrete)."""
        return {name: value for name, value in self.parameters}

    def _key_payload(self) -> dict:
        from repro.core.registry import resolve_spec

        spec = resolve_spec(self.compiler)
        return {
            "compiler": spec.name,
            "benchmark": self.benchmark,
            "n_qubits": self.n_qubits,
            "device": (self.device.lower() if spec.requires_device
                       else None),
            "gateset": (self.gateset.upper() if spec.uses_gateset
                        else None),
            "seed": self.seed,
            "qaoa_degree": (self.qaoa_degree
                            if self.benchmark.startswith(_DEGREE_FAMILIES)
                            else None),
        }

    def key(self) -> str:
        """Dedupe key: the request after canonicalisation.

        Everything the execution path normalises is normalised here
        too, so semantically identical requests are one compile:
        compiler aliases resolve to their canonical name, the device /
        gate set collapse for compilers that ignore them (and device
        names are case-folded as ``by_name`` folds them), and
        ``qaoa_degree`` collapses for non-QAOA benchmarks (only
        ``QAOA-REG*``/``QAOA-WR*`` problems consume it).  The
        ``parameters`` field joins the key only when set, so concrete
        requests keep their historical keys byte-for-byte.
        """
        from repro.analysis.store import config_fingerprint

        payload = self._key_payload()
        if self.parameters:
            payload["parameters"] = {name: value
                                     for name, value in self.parameters}
        return config_fingerprint(payload)

    def structural_key(self) -> str:
        """Coalescing key of the angle-free structural compilation.

        Requests that differ only in their ``parameters`` values share
        one structural compile; the batch compiler fans their bindings
        out over it.
        """
        from repro.analysis.store import config_fingerprint

        payload = self._key_payload()
        payload["structural"] = True
        return config_fingerprint(payload)

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        if self.parameters:
            payload["parameters"] = self.binding()
        else:
            del payload["parameters"]
        return payload


def request_from_dict(payload: dict) -> CompileRequest:
    """Build a request from a JSON object.

    Unknown keys and wrong-typed values are rejected here, so a bad
    requests file fails with one clear message before any compilation
    starts (rather than a traceback from deep inside a worker).
    """
    unknown = sorted(set(payload) - set(_REQUEST_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown request field(s) {unknown}; expected a subset of "
            f"{sorted(_REQUEST_DEFAULTS)}"
        )
    payload = dict(payload)
    parameters = payload.pop("parameters", None)
    for key, value in payload.items():
        want = type(_REQUEST_DEFAULTS[key])
        if not isinstance(value, want) or isinstance(value, bool):
            raise ValueError(
                f"request field {key!r} must be {want.__name__}, "
                f"got {type(value).__name__} {value!r}"
            )
    if parameters is not None:
        payload["parameters"] = normalize_parameters(parameters)
    return CompileRequest(**payload)


def normalize_parameters(parameters) -> tuple[tuple[str, float], ...]:
    """Canonicalise a JSON ``parameters`` object to sorted name/value pairs.

    Accepts a ``{"gamma": 0.4, ...}`` mapping (ints are fine as values);
    anything else is rejected with the same style of message as the
    scalar request fields.
    """
    if not isinstance(parameters, dict):
        raise ValueError(
            f"request field 'parameters' must be an object mapping "
            f"parameter names to numbers, got "
            f"{type(parameters).__name__} {parameters!r}"
        )
    pairs = []
    for name, value in parameters.items():
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"parameter names must be non-empty strings, got {name!r}"
            )
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"parameter {name!r} must be a number, "
                f"got {type(value).__name__} {value!r}"
            )
        if not is_finite_number(value):
            raise ValueError(
                f"parameter {name!r} must be finite, got {value!r}"
            )
        pairs.append((name, float(value)))
    return tuple(sorted(pairs))


def is_finite_number(value: int | float) -> bool:
    """Whether a JSON number is a finite float.

    ``json.loads`` yields ``NaN``/``Infinity`` floats and integers too
    large for a float; neither is a usable angle or time budget.
    """
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def load_requests(path: str | Path) -> list[CompileRequest]:
    """Read a JSON file holding a list of request objects."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list):
        raise ValueError("requests file must hold a JSON list of objects")
    requests = []
    for index, item in enumerate(payload):
        if not isinstance(item, dict):
            raise ValueError(
                f"request #{index} must be a JSON object, "
                f"got {type(item).__name__} {item!r}"
            )
        requests.append(request_from_dict(item))
    return requests


@dataclass(frozen=True)
class CompileResponse:
    """Metrics of one served request.

    The metric fields are deterministic (stable across runs, cache
    states and worker counts); ``seconds``/``timings``/``cache_events``
    are informational.  :meth:`to_dict` returns only the deterministic
    part, so serialised batch output is byte-identical between a cold
    and a warm run -- the cache-smoke CI job asserts exactly that.

    A request whose compilation failed is served as an error-carrying
    response: ``error`` holds the exception text, ``failed`` is true and
    every metric field sits at its zero/None placeholder.  Successful
    responses keep ``error = None`` and an unchanged ``to_dict`` shape.
    """

    request: CompileRequest
    n_swaps: int
    n_dressed: int
    n_two_qubit_gates: int
    two_qubit_depth: int
    total_depth: int
    qap_cost: float | None
    seconds: float
    timings: dict[str, float] = field(default_factory=dict)
    cache_events: dict[str, str] = field(default_factory=dict)
    deduplicated: bool = False
    error: str | None = None
    #: The request's dedupe key, computed once by the serving layer and
    #: threaded through (``None`` only when the key itself is
    #: uncomputable, e.g. an unknown compiler name).  Clients correlate
    #: coalesced/deduplicated responses on this field instead of
    #: recomputing ``key()`` themselves.
    request_key: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def cache_hits(self) -> int:
        from repro.cache.cached import count_cache_hits

        return count_cache_hits(self.cache_events)

    def to_dict(self) -> dict:
        """Deterministic JSON form (request + metrics, no wall times).

        Error responses additionally carry the ``error`` message (which
        is deterministic: the same bad request fails the same way).
        ``request_key`` is stable too -- it is a content fingerprint of
        the canonicalised request -- so it survives the cold-vs-warm
        byte-identity check; a response built outside the batch walk
        (``request_key`` not threaded in) derives it here once.
        """
        key = self.request_key
        if key is None:
            try:
                key = self.request.key()
            except Exception:
                key = None      # uncomputable (e.g. unknown compiler)
        payload = {
            **self.request.to_dict(),
            "request_key": key,
            "n_swaps": self.n_swaps,
            "n_dressed": self.n_dressed,
            "n_two_qubit_gates": self.n_two_qubit_gates,
            "two_qubit_depth": self.two_qubit_depth,
            "total_depth": self.total_depth,
            "qap_cost": self.qap_cost,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


def error_response(request: CompileRequest, exc: BaseException,
                   request_key: str | None = None) -> CompileResponse:
    """An error-carrying response for a request that failed to compile."""
    return CompileResponse(
        request=request,
        n_swaps=0,
        n_dressed=0,
        n_two_qubit_gates=0,
        two_qubit_depth=0,
        total_depth=0,
        qap_cost=None,
        seconds=0.0,
        error=f"{type(exc).__name__}: {exc}",
        request_key=request_key,
    )


def compute_request_keys(requests: list[CompileRequest],
                         ) -> tuple[list[str | None],
                                    dict[int, CompileResponse]]:
    """Phase 1 of the batch walk: one ``key()`` computation per request.

    Mirrors the two-phase ``decompose_circuit`` cleanup: the key is
    computed exactly once here and threaded through dedupe, execution
    and the response (``CompileResponse.request_key``).  A request whose
    key cannot be computed (e.g. an unknown compiler name) is already a
    per-request failure: its slot holds ``None`` and an error response
    is returned alongside, indexed by position.
    """
    keys: list[str | None] = []
    pre_failed: dict[int, CompileResponse] = {}
    for index, request in enumerate(requests):
        try:
            keys.append(request.key())
        except Exception as exc:
            keys.append(None)
            pre_failed[index] = error_response(request, exc)
    return keys, pre_failed


def assemble_responses(requests: list[CompileRequest],
                       keys: list[str | None],
                       computed: dict[str, CompileResponse],
                       pre_failed: dict[int, CompileResponse],
                       ) -> list[CompileResponse]:
    """Phase 3 of the batch walk: responses in request order.

    ``computed`` maps each unique key to its served response; repeats
    are marked ``deduplicated`` and echo the request as written (an
    alias-spelled duplicate keeps its own spelling).  Shared between
    :meth:`BatchCompiler.run` and the server's ``/batch`` route so both
    produce byte-identical output for the same request list.
    """
    responses: list[CompileResponse] = []
    served: set[str] = set()
    for index, (request, key) in enumerate(zip(requests, keys)):
        if key is None:
            responses.append(pre_failed[index])
            continue
        response = computed[key]
        if key in served:
            response = dataclasses.replace(response, request=request,
                                           deduplicated=True)
        served.add(key)
        responses.append(response)
    return responses


def execute_request(request: CompileRequest,
                    cache: ArtifactCache | None = None,
                    structurals: dict | None = None, *,
                    request_key: str | None = None,
                    cancel: CancelToken | None = None) -> CompileResponse:
    """Serve one request: resolve, build, compile (through the cache).

    A request carrying ``parameters`` compiles the benchmark's *symbolic*
    step and binds the angles at the end.  With ``structurals`` (a
    mutable mapping the caller keeps across requests) the structural
    prefix is compiled once per :meth:`CompileRequest.structural_key`
    and reused -- the batch compiler's coalescing path; a request whose
    structure is already there goes straight to the bind, without
    building its problem or its compiler.  Without ``structurals`` the
    binding still flows through the cache-aware pipeline, so requests
    sharing a structural prefix reuse it through the artifact cache.

    The problem travels as a
    :class:`~repro.analysis.harness.ProblemRecipe`; this function never
    builds a step itself.  With a ``cache`` the recipe goes to
    :func:`~repro.cache.cached.compile_cached`, whose problem index
    lets a request that hits every stage skip building and hashing its
    step, under the same content keys library callers use.  The
    structural and uncached paths call ``recipe.build()``.

    ``request_key`` threads the dedupe key the serving layer already
    computed into the response (so it is never recomputed downstream).
    ``cancel`` rides into the pipeline context and is checked at every
    pass boundary; a fired token raises
    :class:`~repro.core.cancel.CompilationCancelled` out of this call.
    """
    from repro.analysis.harness import ProblemRecipe
    from repro.cache.cached import compile_cached
    from repro.core.bind import bind_structural, compile_structural
    from repro.core.registry import get_compiler, resolve_spec
    from repro.devices.library import target_device

    binding = request.binding()
    coalesce = bool(binding) and structurals is not None
    structural = None
    if coalesce:
        skey = request.structural_key()
        structural = structurals.get(skey)
    if structural is None:
        # a structural hit needs none of this: its key already pins
        # every field the device, the problem and the compiler read
        spec = resolve_spec(request.compiler)
        device = target_device(request.device, request.n_qubits,
                               spec.requires_device)
        recipe = ProblemRecipe(request.benchmark, request.n_qubits,
                               request.seed, request.qaoa_degree,
                               symbolic=bool(binding))
        compiler = get_compiler(spec.name, device=device,
                                gateset=request.gateset, seed=request.seed)
    if cancel is not None:
        faults.instrument(cancel)
    start = time.perf_counter()
    if coalesce:
        if structural is None:
            structural = compile_structural(compiler, recipe.build(),
                                            cancel=cancel)
            structurals[skey] = structural
        result = bind_structural(structural, binding, cancel=cancel)
    elif cache is not None:
        result = compile_cached(compiler, recipe, cache,
                                binding=binding or None, cancel=cancel)
    else:
        result = compiler.compile(recipe.build(), binding=binding or None,
                                  cancel=cancel)
    elapsed = time.perf_counter() - start
    return CompileResponse(
        request=request,
        **result.metric_fields(),
        seconds=elapsed,
        timings=dict(result.timings),
        cache_events=dict(result.cache_events),
        request_key=request_key,
    )


_WORKER_MEMORY_CACHE: ArtifactCache | None = None


def _execute_in_worker(job: tuple[CompileRequest, str, str | None, int,
                                  float | None],
                       ) -> CompileResponse:
    """Pool entry point: workers share one per-process cache per dir.

    Without a directory each worker process still keeps a private
    in-memory cache, so requests served by the same worker reuse each
    other's artifacts across the whole pool lifetime.

    The last tuple slot is the seconds remaining until the request's
    deadline (``None`` = unbounded): cancel tokens do not cross the
    process boundary, so the child rebuilds one from the relative
    budget and enforces the deadline at its own pass boundaries.
    """
    global _WORKER_MEMORY_CACHE
    from repro.cache.store import process_cache

    request, request_key, cache_dir, memory_limit, remaining_s = job
    faults.maybe_crash(hard=True)
    cache = process_cache(cache_dir, memory_limit=memory_limit)
    if cache is None:
        if _WORKER_MEMORY_CACHE is None:
            _WORKER_MEMORY_CACHE = ArtifactCache(
                memory_limit=memory_limit)
        cache = _WORKER_MEMORY_CACHE
    cancel = CancelToken(deadline=None if remaining_s is None
                         else time.monotonic() + remaining_s)
    return execute_request(request, cache, request_key=request_key,
                           cancel=cancel)


@dataclass(frozen=True)
class BatchSummary:
    """What one batch run did, for reports and the CLI summary line."""

    n_requests: int
    n_unique: int
    artifact_hits: int
    artifact_misses: int
    seconds: float
    n_failed: int = 0

    def line(self) -> str:
        failed = f", {self.n_failed} failed" if self.n_failed else ""
        return (f"batch: {self.n_requests} requests "
                f"({self.n_unique} unique), "
                f"artifact hits: {self.artifact_hits}, "
                f"misses: {self.artifact_misses}, "
                f"{self.seconds:.2f}s{failed}")


@dataclass
class BatchCompiler:
    """Serve batches of compile requests with dedupe, cache and fan-out.

    ``cache_dir=None`` with serial serving (``jobs=1``) caches in
    memory within and across batches served by this instance; a
    directory makes artifacts persistent and shareable across
    processes.  Persistent directories are nested under a source digest
    (:func:`repro.cache.store.salted_directory`) at construction,
    enforcing the documented invalidation rule: a source change starts
    a fresh cache instead of replaying artifacts the old code produced.
    With ``jobs > 1`` the pool lives only for one ``run()``: workers
    share the disk layer when a ``cache_dir`` is set, and without one
    each worker keeps a private memory cache (intra-batch reuse and
    dedupe still apply, but cross-batch reuse needs a ``cache_dir``).
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    memory_limit: int = 1024
    _cache: ArtifactCache | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.cache_dir is not None:
            from repro.cache.store import salted_directory

            self.cache_dir = salted_directory(self.cache_dir)
        if self._cache is None:
            self._cache = ArtifactCache(self.cache_dir,
                                        memory_limit=self.memory_limit)

    @property
    def cache(self) -> ArtifactCache:
        return self._cache

    def run(self, requests: list[CompileRequest],
            ) -> tuple[list[CompileResponse], BatchSummary]:
        """Serve one batch; responses come back in request order.

        Failures are isolated per request: a compilation that raises
        yields an error-carrying :class:`CompileResponse` (see
        :func:`error_response`) while every other request is still
        served.  In parallel mode all futures are drained the way
        :func:`repro.analysis.engine.run_engine` drains its pool, so
        completed work is never discarded because a sibling failed.
        """
        from repro.cache.store import stats_delta

        start = time.perf_counter()
        stats_before = self._cache.stats()
        # phase 1: one key() per request; uncomputable keys (e.g. an
        # unknown compiler name) become per-request failures up front
        keys, pre_failed = compute_request_keys(requests)
        unique: list[tuple[CompileRequest, str]] = []
        seen: set[str] = set()
        for request, key in zip(requests, keys):
            if key is not None and key not in seen:
                seen.add(key)
                unique.append((request, key))

        computed: dict[str, CompileResponse] = {}
        if self.jobs > 1 and len(unique) > 1:
            cache_dir = (str(self.cache_dir)
                         if self.cache_dir is not None else None)
            with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(unique))) as pool:
                futures = {
                    pool.submit(_execute_in_worker,
                                (request, key, cache_dir,
                                 self.memory_limit, None)): (request, key)
                    for request, key in unique
                }
                # drain every future even after a failure, so responses
                # that did complete are served alongside the error ones
                for future in as_completed(futures):
                    request, key = futures[future]
                    try:
                        computed[key] = future.result()
                    except Exception as exc:
                        computed[key] = error_response(request, exc,
                                                       request_key=key)
            # worker counters stay in the workers; report what is
            # visible batch-wide instead: per-response events
            hits = sum(r.cache_hits for r in computed.values())
            misses = (sum(len(r.cache_events) for r in computed.values())
                      - hits)
        else:
            # serial mode coalesces parameterised requests: one
            # structural compile per structural_key, one bind per request
            structurals: dict = {}
            for request, key in unique:
                try:
                    computed[key] = execute_request(request, self._cache,
                                                    structurals,
                                                    request_key=key)
                except Exception as exc:
                    computed[key] = error_response(request, exc,
                                                   request_key=key)
            delta = stats_delta(stats_before, self._cache.stats())
            hits = delta["hits"]
            misses = delta["misses"]

        responses = assemble_responses(requests, keys, computed, pre_failed)
        summary = BatchSummary(
            n_requests=len(requests),
            n_unique=len(unique),
            artifact_hits=hits,
            artifact_misses=misses,
            seconds=time.perf_counter() - start,
            n_failed=sum(1 for response in responses if response.failed),
        )
        return responses, summary

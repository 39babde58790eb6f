"""Cache-aware pass execution: skip a pass when its output is stored.

The cache key of one pass execution is
``fingerprint(pass fingerprint, (read name, field id)...)``:

* the *pass fingerprint* is the pass class plus its configuration
  (:func:`repro.cache.fingerprint.fingerprint_pass`);
* the read names are exactly the context fields the pass reads.  Passes
  declare them via a ``reads`` class attribute (every built-in pass
  does); a pass without a declaration is keyed on the full context --
  every input and every artifact -- which can only *over*-invalidate,
  never serve a stale artifact;
* a *field id* names one field value.  Inputs (``step``, ``device``,
  ...) are identified by content, their fingerprint computed at most
  once per compilation (for a step built from a recipe, read from the
  cache's problem index, see :func:`compile_cached`).  An artifact
  written by a :class:`CachedPass` is identified by derivation:
  ``fingerprint("derived", <the writing pass's key>, field name)``,
  recorded on the hit and on the miss path alike, so no artifact is
  ever content-hashed.

Each recorded id is kept next to the object it names and used only
while the context field still *is* that object; a field reassigned
outside a :class:`CachedPass` falls back to its content fingerprint.
The memo is a private attribute of the context, so it lives for one
compilation and is never fingerprinted or copied by
``dataclasses.replace``.  Under the determinism contract (equal keys
imply equal outputs) equal derivation ids imply equal artifacts, so
chained keys are only ever *finer* than pure content keys: the sharing
they give up is two different derivations that happen to produce
byte-equal artifacts.  :func:`context_key` computes the pure content
key.

On a miss the pass runs on a scoped view of the context
(:class:`_ScopedContext`) that enforces both declarations at the
access: loading a field outside ``reads`` raises
:class:`UndeclaredContextReadError` (a field the pass only writes may
be loaded once the pass has assigned it), and assigning a field outside
``writes`` (default: every artifact field) raises ``ValueError``.  The
fields in ``writes`` are then snapshotted into the store as one entry,
``{field name: pickled bytes}`` (``None`` for a field left ``None``).

On a hit the pass body never executes, so no view is built, and
nothing is unpickled: each stored field is bound to the context as a
:class:`~repro.core.pipeline.Deferred` holding its bytes, identified by
its derivation id like any other artifact.  A ``None`` field is bound
as ``None``, so an ``is None`` test on the context never needs a load.  A field is unpickled at its
first read -- by a later pass that misses, by a content hash
(:func:`context_key`), or by a caller reading the
:class:`~repro.core.pipeline.CompilationResult` attribute -- so a fully
warm compile whose caller reads only ``metrics`` unpickles only that.
Every read unpickles its own copy, so a served value never aliases the
store or another reader's value.  Fields are pickled one by one, so
objects two fields of one pass shared (a baseline's ``app_circuit is
circuit``) come back as equal, separate objects.  Either way
``ctx.timings`` gets its usual per-pass entry (the lookup time, on a
hit) and ``ctx.cache_events`` records ``"hit"`` or ``"miss"`` per
pass.

Contract: passes write artifacts by *assignment* (``ctx.working = ...``)
and never mutate an upstream artifact in place -- the view sees
attribute stores, so an in-place mutation of e.g. a predecessor's
circuit would evade it and make warm runs diverge from cold ones.
Every built-in pass follows this; custom passes must too to be cached.

Because the snapshot *is* the pass's output, cached and uncached
compilation produce bit-identical results; the golden-equivalence tests
pin that property for every registry compiler.
"""

from __future__ import annotations

import pickle

from repro.analysis.harness import ProblemRecipe
from repro.cache.fingerprint import fingerprint, fingerprint_pass
from repro.cache.store import ArtifactCache
from repro.core.pipeline import (
    CompilationContext,
    CompilationResult,
    Deferred,
    PassPipeline,
    run_pipeline,
)

#: Context fields set by the driver (compilation inputs).
INPUT_FIELDS = ("step", "gateset", "device", "seed", "initial", "binding")

#: Context fields set by passes (compilation artifacts), in write order.
ARTIFACT_FIELDS = (
    "working", "assignment", "qap_cost", "routed", "scheduled",
    "app_circuit", "circuit", "metrics", "n_swaps", "n_dressed",
    "initial_map", "final_map",
)

#: Infrastructure fields any pass may load and store without declaring
#: them: ``timings``/``cache_events`` are pipeline bookkeeping,
#: ``cancel`` is cooperative cancellation (excluded from cache keys by
#: design), and ``cache`` is the content-addressed decompose memo, which
#: accelerates but never changes an output.
INFRA_FIELDS = frozenset({"timings", "cache_events", "cancel", "cache"})

_CONTEXT_FIELDS = frozenset(INPUT_FIELDS + ARTIFACT_FIELDS)


class UndeclaredContextReadError(RuntimeError):
    """A pass read a context field missing from its ``reads`` tuple.

    An undeclared read is the one contract violation the normal runtime
    cannot see: the cache key omits an input the pass actually
    consumed, so two compilations differing only in that field share a
    key and the second silently receives the first's artifact.

    Deliberately **not** an ``AttributeError`` subclass -- a pass
    probing fields with ``getattr(ctx, name, default)`` or ``hasattr``
    would silently swallow the violation instead of surfacing it.
    """


class _ScopedContext:
    """The context as one pass sees it on a :class:`CachedPass` miss.

    Loads of compilation fields outside ``reads`` raise
    :class:`UndeclaredContextReadError`, except a field the pass has
    already assigned in this run; stores outside ``writes`` raise
    ``ValueError`` before the context changes.  Loads of anything else
    (infrastructure fields, methods, private attributes) forward to the
    wrapped context.  A deferred field (a recipe's step, a cache-hit
    artifact) is loaded at its first load, so the pass always sees a
    real value.
    """

    __slots__ = ("_ctx", "_reads", "_writes", "_assigned", "_pass_name")

    def __init__(self, ctx: CompilationContext, reads: tuple[str, ...],
                 writes: tuple[str, ...], pass_name: str) -> None:
        object.__setattr__(self, "_ctx", ctx)
        object.__setattr__(self, "_reads", INFRA_FIELDS.union(reads))
        object.__setattr__(self, "_writes", INFRA_FIELDS.union(writes))
        object.__setattr__(self, "_assigned", set())
        object.__setattr__(self, "_pass_name", pass_name)

    def _audit(self, name: str) -> None:
        if (name in _CONTEXT_FIELDS and name not in self._reads
                and name not in self._assigned):
            raise UndeclaredContextReadError(
                f"pass {self._pass_name!r} read context field {name!r} "
                f"outside its declared reads; the cache key omits it, "
                f"so warm runs would serve stale artifacts -- add "
                f"{name!r} to the pass's reads tuple"
            )

    def require(self, attribute: str):
        self._audit(attribute)
        return _materialized(self._ctx, attribute,
                             self._ctx.require(attribute))

    def __getattr__(self, name: str):
        self._audit(name)
        return _materialized(self._ctx, name, getattr(self._ctx, name))

    def __setattr__(self, name: str, value) -> None:
        if name not in self._writes:
            writes = sorted(self._writes - INFRA_FIELDS)
            raise ValueError(
                f"pass {self._pass_name!r} wrote context field {name!r} "
                f"not declared in its writes={writes}; fix the "
                f"declaration or caching will serve partial snapshots"
            )
        self._assigned.add(name)
        setattr(self._ctx, name, value)


def count_cache_hits(events: dict[str, str]) -> int:
    """Hits in a ``cache_events`` record (the single place that knows
    the event vocabulary)."""
    return sum(1 for value in events.values() if value == "hit")


#: Private context attribute holding one compilation's field ids:
#: ``{field name: (value, id)}``.
_FIELD_IDS = "_field_ids"


def _field_ids(ctx) -> dict:
    """``ctx``'s field-id memo, created empty on first use."""
    field_ids = getattr(ctx, _FIELD_IDS, None)
    if field_ids is None:
        field_ids = {}
        setattr(ctx, _FIELD_IDS, field_ids)
    return field_ids


def _materialized(ctx, name: str, value):
    """``value`` as a pass may see it: a deferred field is loaded, bound
    to ``ctx.<name>`` and keeps the id recorded for the deferred value."""
    if not isinstance(value, Deferred):
        return value
    loaded = value.load()
    setattr(ctx, name, loaded)
    field_ids = _field_ids(ctx)
    recorded = field_ids.get(name)
    if recorded is not None and recorded[0] is value:
        field_ids[name] = (loaded, recorded[1])
    return loaded


def _deferred_step(recipe: ProblemRecipe, cache: ArtifactCache,
                   ) -> Deferred:
    """``recipe``'s step as a deferred input, through the cache's
    problem index: a hit yields the content id without building the
    step; a miss builds and hashes it once and records the id."""
    index_key = fingerprint("problem", recipe)
    step_id = cache.get_index(index_key)
    if step_id is not None:
        return Deferred(recipe.build, step_id)
    step = recipe.build()
    step_id = fingerprint(step)
    cache.put_index(index_key, step_id)
    return Deferred(lambda: step, step_id)


def _content_id(value) -> str:
    """``value``'s content fingerprint; a deferred value is loaded
    first unless it carries the fingerprint."""
    if isinstance(value, Deferred):
        if value.content_id is not None:
            return value.content_id
        value = value.load()
    return fingerprint(value)


def _pickled(value) -> bytes | None:
    """One snapshot field's bytes (``None`` stays ``None``); a field
    still deferred is loaded first."""
    if value is None:
        return None
    if isinstance(value, Deferred):
        value = value.load()
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _record_derived(ctx, key: str, values: dict) -> None:
    """Identify every field a pass wrote by the key that derived it."""
    field_ids = _field_ids(ctx)
    for name, value in values.items():
        field_ids[name] = (value, fingerprint("derived", key, name))


def _declarations(stage) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``stage``'s ``(reads, writes)``; a pass without a declaration
    reads every field and writes every artifact."""
    reads = getattr(stage, "reads", None)
    writes = getattr(stage, "writes", None)
    return (INPUT_FIELDS + ARTIFACT_FIELDS if reads is None else reads,
            ARTIFACT_FIELDS if writes is None else writes)


def _key(stage, ctx, field_ids: dict) -> str:
    """The key of running ``stage`` on ``ctx``, reusing (and filling)
    ``field_ids`` for every field still bound to its recorded object."""
    reads, _ = _declarations(stage)
    parts: list[object] = [fingerprint_pass(stage)]
    for name in reads:
        value = getattr(ctx, name)
        recorded = field_ids.get(name)
        if recorded is not None and recorded[0] is value:
            field_id = recorded[1]
        else:
            field_id = _content_id(value)
            field_ids[name] = (value, field_id)
        parts.append(name)
        parts.append(field_id)
    return fingerprint(*parts)


def context_key(stage, ctx) -> str:
    """The content key of running ``stage`` on ``ctx`` now: every read
    field identified by its content fingerprint (a deferred field is
    loaded first unless it carries its fingerprint).  ``ctx`` is any
    object with the read attributes."""
    return _key(stage, ctx, {})


class CachedPass:
    """Wrap one pass with an artifact-store lookup.

    Satisfies the :class:`~repro.core.pipeline.Pass` protocol under the
    wrapped pass's own name, so pipelines, timing records and surgery
    helpers (``replaced``/``without``) treat it as the original stage.
    """

    def __init__(self, inner, cache: ArtifactCache) -> None:
        self.inner = inner
        self.cache = cache
        self.name = inner.name

    def run(self, ctx: CompilationContext) -> CompilationContext:
        key = _key(self.inner, ctx, _field_ids(ctx))
        stored = self.cache.get(key)
        if stored is not None:
            values = {name: None if payload is None else Deferred(payload)
                      for name, payload in stored.items()}
            for name, value in values.items():
                setattr(ctx, name, value)
            _record_derived(ctx, key, values)
            ctx.cache_events[self.name] = "hit"
            self.cache.record_event(self.name, hit=True)
            return ctx
        reads, writes = _declarations(self.inner)
        view = _ScopedContext(ctx, reads, writes, self.name)
        if self.inner.run(view) is not view:
            raise TypeError(
                f"pass {self.name!r} did not return the context it was "
                f"given; run(ctx) must return ctx"
            )
        written = {name: getattr(ctx, name) for name in writes}
        self.cache.put(key, {name: _pickled(value)
                             for name, value in written.items()})
        _record_derived(ctx, key, written)
        ctx.cache_events[self.name] = "miss"
        self.cache.record_event(self.name, hit=False)
        return ctx


class CachedPipeline(PassPipeline):
    """A :class:`PassPipeline` whose every stage consults one cache.

    ``CachedPipeline(pipeline, cache).run(ctx)`` produces the same
    context as ``pipeline.run(ctx)``, with stored stages skipped, except
    that a field a hit bound and no later pass read is still a
    :class:`~repro.core.pipeline.Deferred` on the returned context.
    Read such fields through :class:`~repro.core.pipeline.CompilationResult`
    (``result_from_context``) or call ``.load()``; reading a raw context
    field after a hit may give a ``Deferred``.
    """

    def __init__(self, pipeline: PassPipeline, cache: ArtifactCache) -> None:
        super().__init__(CachedPass(stage, cache)
                         for stage in pipeline.passes)
        object.__setattr__(self, "cache", cache)


def compile_cached(compiler, step, cache: ArtifactCache,
                   initial=None, binding=None,
                   cancel=None) -> CompilationResult:
    """Compile one step through ``compiler``'s pipeline with caching.

    ``compiler`` is any :class:`~repro.core.pipeline.PipelineCompiler`
    (typically from :func:`repro.core.registry.get_compiler`); the
    context is built by the same :func:`run_pipeline` that
    ``compiler.compile`` uses, so the result is bit-identical to the
    uncached call by construction.

    ``step`` is a :class:`~repro.hamiltonians.trotter.TrotterStep` or a
    :class:`~repro.analysis.harness.ProblemRecipe`.  A recipe is looked
    up in the cache's problem index, which maps
    ``fingerprint("problem", recipe)`` to the content fingerprint of
    the step the recipe builds.  On an index miss the step is built and
    hashed once and the digest recorded; on a hit nothing is built.
    Either way the step enters the context deferred, carrying its
    content id: every key is the one the built step would give, and the
    step is built only if some pass misses and loads it.  So a fully
    warm recipe compile neither builds nor hashes its problem, and
    shares every artifact with callers that pass steps.

    A symbolic ``step`` fingerprints by parameter *names*, not values,
    and the structural passes do not read ``binding``, so every binding
    of one circuit shape shares the unify-through-schedule cache prefix;
    only the bind pass (and decomposition behind it) keys on the angle
    values.
    """
    if isinstance(step, ProblemRecipe):
        step = _deferred_step(step, cache)
    return run_pipeline(
        CachedPipeline(compiler.build_pipeline(), cache), step,
        gateset=compiler.gateset,
        device=getattr(compiler, "device", None),
        seed=compiler.seed,
        cache=getattr(compiler, "cache", None),
        initial=initial,
        binding=binding,
        cancel=cancel,
    )

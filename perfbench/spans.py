"""In-memory spans around the program's public layer boundaries.

Spans are recorded only here, in the benchmark: the program is driven
through its public calls with delegating wrappers in between, never by
patching module attributes.

* :class:`TracedStage` wraps one pipeline stage -- outside ``CachedPass``
  on cached paths -- under the stage's own ``name``, so pipeline timing
  records and cache keys are unchanged;
* :class:`TracedArtifactCache` times ``get``/``put`` of the artifact
  cache it extends;
* kernels (``build_step`` aside, which the replay calls directly) are
  timed afterwards by calling them on inputs captured during the run.

A span's *self time* is its duration minus its children's; each
request's self times, attributed to layers, sum to its request span by
construction.  What can go wrong is placement, which
:func:`tree_problems` checks: one span per pipeline stage, each under a
parent of its own request.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from repro.cache.cached import ARTIFACT_FIELDS, INPUT_FIELDS
from repro.cache.store import ArtifactCache
from repro.core.pipeline import MapPass

#: Pass names that are layers of their own; other passes count as other.
PASS_LAYERS = ("unify", "mapping", "routing", "scheduling", "binding",
               "decomposition")
#: Non-stage spans that are layers; the request span itself is other.
SPAN_LAYERS = ("hamiltonians", "cache.get", "cache.put", "service.serialize")


@dataclass
class Span:
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder: a stack of open spans, all spans kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.request = -1

    def begin(self, name: str, **attrs) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, self.request, parent, time.perf_counter(),
                    attrs=attrs)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        assert self.spans[self._open.pop()] is span

    def span(self, name: str, **attrs):
        return _SpanContext(self, name, attrs)

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "request": s.request, "parent": s.parent,
                 "start": s.start, "end": s.end,
                 **{k: v for k, v in s.attrs.items()
                    if k in ("hit", "counters")}}
                for s in self.spans]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self) -> Span:
        self.span = self.tracer.begin(self.name, **self.attrs)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.span)


class TracedArtifactCache(ArtifactCache):
    """An :class:`ArtifactCache` whose lookups and stores are spans."""

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def get(self, key: str):
        with self.tracer.span("cache.get"):
            return super().get(key)

    def put(self, key: str, value) -> None:
        with self.tracer.span("cache.put"):
            super().put(key, value)


class TracedStage:
    """A delegating pass that records one span per stage execution.

    Captures the inputs the kernel replays need: the mapping stage's QAP
    problem, the decomposition stage's application circuit and cache
    counters, and (behind a ``CachedPass``) the cache-key inputs.
    """

    def __init__(self, stage, tracer: Tracer, templates) -> None:
        self.stage = stage
        self.name = stage.name
        self.tracer = tracer
        self.templates = templates

    def run(self, ctx):
        inner = getattr(self.stage, "inner", None)
        attrs: dict = {"stage": True}
        if inner is not None:
            # context_key reads these fields; artifacts are replaced by
            # assignment, never mutated, so references stay valid
            reads = getattr(inner, "reads", None) or (INPUT_FIELDS
                                                      + ARTIFACT_FIELDS)
            attrs["key_inputs"] = (inner, {name: getattr(ctx, name)
                                           for name in reads})
        pass_ = inner if inner is not None else self.stage
        if isinstance(pass_, MapPass) and ctx.initial is None:
            attrs["qap"] = (ctx.working, ctx.device, ctx.seed)
        decompose = self.name == "decomposition"
        if decompose:
            before = (ctx.cache.hits, ctx.cache.misses,
                      self.templates.hits, self.templates.misses)
        with self.tracer.span(self.name, **attrs) as span:
            ctx = self.stage.run(ctx)
        if inner is not None:
            span.attrs["hit"] = ctx.cache_events.get(self.name) == "hit"
        if decompose and not span.attrs.get("hit"):
            after = (ctx.cache.hits, ctx.cache.misses,
                     self.templates.hits, self.templates.misses)
            span.attrs["counters"] = tuple(b - a
                                           for a, b in zip(before, after))
            span.attrs["synthesis"] = (ctx.app_circuit, ctx.gateset,
                                       getattr(pass_, "solve", False),
                                       ctx.seed)
        return ctx


def layer_times(tracer: Tracer, key_seconds: dict[int, float],
                ) -> dict[int, dict[str, float]]:
    """Per request: seconds of self time attributed to each layer.

    ``key_seconds`` maps a pass span index to its replayed
    ``context_key`` time, moved from the pass to ``cache.key``.  A
    cache-hit pass is cache time as a whole; the pass layer counts only
    misses, where the pass body ran.
    """
    children = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    out: dict[int, dict[str, float]] = {}
    for index, span in enumerate(tracer.spans):
        layers = out.setdefault(span.request, {})
        own = span.duration - children[index]
        if not span.attrs.get("stage"):
            layer = span.name if span.name in SPAN_LAYERS else "other"
        elif span.attrs.get("hit"):
            layer = "cache.hit"
        else:
            layer = span.name if span.name in PASS_LAYERS else "other"
            key = min(key_seconds.get(index, 0.0), max(own, 0.0))
            layers["cache.key"] = layers.get("cache.key", 0.0) + key
            own -= key
        layers[layer] = layers.get(layer, 0.0) + own
    return out


def request_spans(tracer: Tracer) -> dict[int, Span]:
    return {span.request: span for span in tracer.spans
            if span.name == "request"}


def tree_problems(tracer: Tracer) -> list[str]:
    """Span-placement faults: a non-request span without a parent in its
    own request, or a request whose stage spans are not exactly one per
    stage its request span lists."""
    problems = []
    stages: dict[int, Counter] = {}
    for span in tracer.spans:
        if span.name == "request":
            continue
        if (span.parent is None
                or tracer.spans[span.parent].request != span.request):
            problems.append(f"request {span.request}: span {span.name!r} "
                            f"has no parent in its request")
        if span.attrs.get("stage"):
            stages.setdefault(span.request, Counter())[span.name] += 1
    for request, span in request_spans(tracer).items():
        want = Counter(span.attrs.get("stages", ()))
        got = stages.get(request, Counter())
        if got != want:
            problems.append(f"request {request}: stage spans {dict(got)} "
                            f"!= pipeline stages {dict(want)}")
    return problems


@dataclass
class Kernels:
    """Kernel timings replayed on inputs captured by a traced run."""

    key_seconds: dict[int, float] = field(default_factory=dict)
    key_per_request: dict[int, float] = field(default_factory=dict)
    tabu_trials: list[tuple[float, int, bool]] = field(default_factory=list)
    synthesis_s: list[float] = field(default_factory=list)
    blocks: int = 0
    #: decompose-cache hits/misses, template hits/misses (summed)
    counters: list[int] = field(default_factory=lambda: [0, 0, 0, 0])


def replay_kernels(tracer: Tracer) -> Kernels:
    """Time ``context_key``, ``tabu_search`` and ``decompose_batch``
    directly on the inputs the traced stages captured, then drop the
    captured objects."""
    from types import SimpleNamespace

    from repro.cache.cached import context_key
    from repro.core.decompose import cache_key
    from repro.mapping.qap import qap_from_problem
    from repro.mapping.tabu import tabu_search

    kernels = Kernels()
    for index, span in enumerate(tracer.spans):
        key_inputs = span.attrs.pop("key_inputs", None)
        if key_inputs is not None:
            stage, fields = key_inputs
            start = time.perf_counter()
            context_key(stage, SimpleNamespace(**fields))
            elapsed = time.perf_counter() - start
            kernels.key_seconds[index] = elapsed
            kernels.key_per_request[span.request] = (
                kernels.key_per_request.get(span.request, 0.0) + elapsed)
        qap = span.attrs.pop("qap", None)
        if qap is not None and not span.attrs.get("hit"):
            # the search's first trial (best_of_k_mapping seeds trial 0
            # with the compile seed itself)
            working, device, seed = qap
            instance = qap_from_problem(working, device)
            cap = max(200, 20 * instance.n_logical)
            start = time.perf_counter()
            result = tabu_search(instance, seed=seed)
            kernels.tabu_trials.append((time.perf_counter() - start,
                                        result.iterations,
                                        result.iterations >= cap))
        synthesis = span.attrs.pop("synthesis", None)
        if synthesis is not None:
            circuit, gateset, solve, seed = synthesis
            unique = {}
            for gate in circuit:
                if len(gate.qubits) == 2:
                    kernels.blocks += 1
                    matrix = gate.unitary()
                    unique.setdefault(cache_key(matrix), matrix)
            start = time.perf_counter()
            gateset.decompose_batch(list(unique.values()), solve=solve,
                                    seed=seed)
            kernels.synthesis_s.append(time.perf_counter() - start)
        for slot, value in enumerate(span.attrs.get("counters", ())):
            kernels.counters[slot] += value
    return kernels

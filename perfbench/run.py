#!/usr/bin/env python3
"""The repository benchmark: seeded compile workloads, timed end to end.

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 20 \
        --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

* ``cold-sweep`` -- the paper's Figs. 7-9 traffic through
  ``execute_request``, every pass cold (fresh artifact cache, fresh
  compilers, cleared template memo); exercises mapping.
* ``bind-http`` -- parameterised requests to a ``repro serve`` subprocess
  over one keep-alive connection; structures are compiled during
  set-up, so requests exercise binding, decomposition and the service.
* ``warm-replay`` -- the cold-sweep list replayed against a disk cache
  pre-warmed during set-up; every stage is a cache hit.

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
additionally replays requests through traced wrappers and prints the
per-layer breakdown.  Either way the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a failed correctness
check makes ``correct`` false and the exit code 1.  ``--workload all``
runs every workload in its own process and prints one table.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cold-sweep", "bind-http", "warm-replay")
#: bind-http requests whose metrics form the deterministic totals (the
#: probes plus 12 rounds of 32 requests over the 24 structures); the
#: timed phase always completes at least this many.
BIND_TOTALS_PREFIX = 3 + 12 * 32
#: bind-http requests replayed by the traced run.
BIND_TRACED = 240
#: Layers that, with the service overhead, should make up most of a bind.
BIND_LAYERS = ("binding", "decomposition", "service.serialize")


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size: this process, or ``pid`` via /proc."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment(seed: int) -> dict:
    import numpy

    from repro.analysis.store import source_digest
    from workloads import DEFAULT_SEED, HELD_OUT_SEED

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None      # a source checkout without git metadata
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_rev": rev, "source_digest": source_digest(), "seed": seed,
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}


class Outcome:
    """What one workload run measured, checked and traced."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.setup_s = 0.0
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.totals: dict[str, int] = {}
        self.rss_mb = 0.0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, int] = {}
        self.layers: dict[str, float] = {}
        #: traced-run figures kept in the record but not reported
        self.trace_notes: dict[str, float] = {}

    def sum_totals(self, responses: list[dict]) -> None:
        """The quality counts over ``responses``.  An error response has
        no counts, so it is flagged instead of read as zero."""
        errors = sum(1 for r in responses if r.get("error") is not None)
        if errors:
            self.problems.append(f"{errors} error response(s) among the "
                                 f"requests the totals sum over")
        self.totals = {
            "swaps_total": sum(r.get("n_swaps", 0) for r in responses),
            "twoq_gates_total": sum(r.get("n_two_qubit_gates", 0)
                                    for r in responses),
            "twoq_depth_total": sum(r.get("two_qubit_depth", 0)
                                    for r in responses)}

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        attempted = len(self.latencies)
        return {
            "setup_s": (self.setup_s, "s"),
            "req_p50_s": (median(self.latencies), "s"),
            "req_p90_s": (percentile(self.latencies, 90), "s"),
            "throughput_rps": (attempted / self.timed_s, "1/s"),
            "ok_frac": (1 - self.failed / attempted, "frac"),
            "swaps_total": (self.totals["swaps_total"], "count"),
            "twoq_gates_total": (self.totals["twoq_gates_total"], "count"),
            "twoq_depth_total": (self.totals["twoq_depth_total"], "count"),
            "peak_rss_mb": (self.rss_mb, "MB"),
        }


def serve_timed(outcome: Outcome, serve_one, seconds: float, *,
                whole_passes: bool, min_requests: int = 1) -> list:
    """Closed loop, one client: ``serve_one()`` until time is up.

    ``serve_one`` serves one request and returns ``(latency, payload)``,
    or ``None`` at a pass boundary; with ``whole_passes`` the loop stops
    only there, so every run serves the same request multiset.
    """
    results = []
    start = time.perf_counter()
    while True:
        served = serve_one()
        if served is not None:
            latency, payload = served
            outcome.latencies.append(latency)
            results.append(payload)
            if whole_passes:
                continue
        if (time.perf_counter() - start >= seconds
                and len(results) >= min_requests):
            break
    outcome.timed_s = time.perf_counter() - start
    return results


# ----------------------------------------------------------------------
# in-process serving (cold-sweep, warm-replay, bind-http replays)
# ----------------------------------------------------------------------
def serve_in_process(request, cache, structurals=None) -> tuple[float, dict]:
    """One request as ``repro batch`` serves it: key, compile, JSON.

    With ``structurals`` a parameterised request binds into the prefix
    compiled for its structural key, as the server does.
    """
    from repro.service.batch import error_response, execute_request

    start = time.perf_counter()
    try:
        key = request.key()
        response = execute_request(request, cache, structurals,
                                   request_key=key)
    except Exception as exc:  # served as an error response, like batch
        response = error_response(request, exc)
    payload = json.dumps(response.to_dict())
    return time.perf_counter() - start, json.loads(payload)


def pass_loop(requests, new_cache, on_pass_end):
    """A ``serve_one`` cycling whole passes over ``requests``."""
    state = {"index": 0, "cache": None}

    def serve_one():
        if state["index"] == len(requests):
            on_pass_end(state["cache"])
            state["index"] = 0
            state["cache"] = None
            return None
        if state["cache"] is None:
            state["cache"] = new_cache()
        request = requests[state["index"]]
        state["index"] += 1
        return serve_in_process(request, state["cache"])

    return serve_one


def traced_request(request, cache, tracer, structurals=None) -> dict:
    """Replay ``execute_request``'s public calls under spans.

    Concrete requests run the compiler's pipeline with every stage
    wrapped outside its ``CachedPass``; parameterised ones bind through a
    traced copy of the structural suffix (``structurals`` maps structural
    keys to compilations made by this process).  The request span lists
    the pipeline's stages, so the span tree can be checked against it.
    """
    import dataclasses
    import math

    from checks import request_device, request_step
    from repro.cache.cached import CachedPass
    from repro.core.bind import bind_structural
    from repro.core.pipeline import PassPipeline, run_pipeline
    from repro.core.registry import get_compiler, resolve_spec
    from repro.service.batch import CompileResponse
    from repro.synthesis.templates import DEFAULT_TEMPLATES
    from spans import TracedStage

    with tracer.span("request") as root:
        key = request.key()
        spec = resolve_spec(request.compiler)
        device = request_device(request)
        with tracer.span("hamiltonians"):
            step = request_step(request)
        compiler = get_compiler(spec.name, device=device,
                                gateset=request.gateset, seed=request.seed)
        start = time.perf_counter()
        if structurals is not None:
            structural = structurals[request.structural_key()]
            stages = structural.suffix.passes
            suffix = PassPipeline(TracedStage(stage, tracer,
                                              DEFAULT_TEMPLATES)
                                  for stage in stages)
            result = bind_structural(
                dataclasses.replace(structural, suffix=suffix),
                request.binding())
        else:
            stages = compiler.build_pipeline().passes
            pipeline = PassPipeline(
                TracedStage(CachedPass(stage, cache), tracer,
                            DEFAULT_TEMPLATES)
                for stage in stages)
            result = run_pipeline(
                pipeline, step, gateset=compiler.gateset,
                device=getattr(compiler, "device", None),
                seed=compiler.seed, cache=getattr(compiler, "cache", None),
                binding=request.binding() or None)
        elapsed = time.perf_counter() - start
        root.attrs["stages"] = [stage.name for stage in stages]
        metrics = result.metrics
        response = CompileResponse(
            request=request, n_swaps=metrics.n_swaps,
            n_dressed=metrics.n_dressed,
            n_two_qubit_gates=metrics.n_two_qubit_gates,
            two_qubit_depth=metrics.two_qubit_depth,
            total_depth=metrics.total_depth,
            qap_cost=(None if math.isnan(result.qap_cost)
                      else float(result.qap_cost)),
            seconds=elapsed, timings=dict(result.timings),
            cache_events=dict(result.cache_events), request_key=key)
        with tracer.span("service.serialize"):
            payload = json.dumps(response.to_dict())
    return json.loads(payload)


def parse_replay_s(requests) -> list[float]:
    """The service's request parse path, timed on each request body."""
    from repro.service.batch import request_from_dict
    from repro.service.server import split_envelope

    samples = []
    for request in requests:
        body = json.dumps(request.to_dict()).encode()
        start = time.perf_counter()
        payload, _envelope = split_envelope(json.loads(body))
        request_from_dict(payload)
        samples.append(time.perf_counter() - start)
    return samples


def layer_metrics(outcome: Outcome, tracer, traced: list, responses,
                  untraced_p50: float, rtts: dict[int, float] | None = None,
                  replays: dict[int, float] | None = None,
                  service: dict | None = None) -> None:
    """Fold a traced run into the per-layer metrics.

    ``traced`` lists the replayed requests by trace request id;
    ``responses`` their response dicts; ``untraced_p50`` the median of
    the same requests served the same way with tracing off.  For
    bind-http, ``rtts`` holds each request's HTTP round trip and
    ``replays`` its untraced in-process replay; the difference is the
    service's overhead.
    """
    from spans import layer_times, replay_kernels, request_spans, tree_problems
    from workloads import TWOQAN_FAMILY

    outcome.problems.extend(tree_problems(tracer)[:10])
    kernels = replay_kernels(tracer)
    per_request = layer_times(tracer, kernels.key_seconds)
    spans = request_spans(tracer)
    ids = sorted(spans)
    # self times telescope to the request span whatever the timings, so
    # the gap (float rounding) is reported, not checked
    outcome.trace_notes["layer_sum_gap_s"] = max(
        abs(sum(per_request[i].values()) - spans[i].duration) for i in ids)

    def med(layer: str) -> float:
        return median(per_request[i].get(layer, 0.0) for i in ids)

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    events = [span.attrs["hit"] for span in tracer.spans
              if "hit" in span.attrs]
    # 2QAN-family requests whose mapping search ran (not a cache hit)
    searched = {span.request for span in tracer.spans
                if span.name == "mapping" and span.attrs.get("hit") is False}
    family = [i for i in ids
              if traced[i].compiler in TWOQAN_FAMILY and i in searched]
    trials = kernels.tabu_trials
    dh, dm, th, tm = kernels.counters
    spans_s = [spans[i].duration for i in ids]
    rtts = rtts or {}
    replays = replays or {}
    overhead = {i: rtts[i] - replays[i] for i in rtts}
    cache_total = {i: sum(v for k, v in per_request[i].items()
                          if k.startswith("cache.")) for i in ids}
    traced_p50 = median(spans_s)
    bind_work = sum(overhead[i] + sum(per_request[i].get(layer, 0.0)
                                      for layer in BIND_LAYERS)
                    for i in rtts)
    service = service or {}
    outcome.layers = {
        "hamiltonians.build_s": med("hamiltonians"),
        "unify.self_s": med("unify"),
        "mapping.self_s": med("mapping"),
        "mapping.share_2qan": frac(
            sum(per_request[i].get("mapping", 0.0) for i in family),
            sum(spans[i].duration for i in family)),
        "mapping.tabu_trial_s": median(t for t, _, _ in trials),
        "mapping.tabu_iters": sum(n for _, n, _ in trials),
        "mapping.tabu_cap_frac": frac(sum(c for _, _, c in trials),
                                      len(trials)),
        "routing.self_s": med("routing"),
        "routing.swaps": sum(r["n_swaps"] for r in responses),
        "routing.dressed_frac": frac(sum(r["n_dressed"] for r in responses),
                                     sum(r["n_swaps"] for r in responses)),
        "scheduling.self_s": med("scheduling"),
        "binding.self_s": med("binding"),
        "decomposition.self_s": med("decomposition"),
        "decomposition.blocks": kernels.blocks,
        "decomposition.template_hit_frac": frac(th, th + tm),
        "decomposition.cache_hit_frac": frac(dh, dh + dm),
        "synthesis.batch_s": median(kernels.synthesis_s),
        "cache.self_s": median(cache_total.values()),
        "cache.key_s": median(kernels.key_per_request.get(i, 0.0)
                              for i in ids),
        "cache.get_s": med("cache.get"),
        "cache.put_s": med("cache.put"),
        "cache.hit_frac": frac(sum(events), len(events)),
        "service.parse_s": median(parse_replay_s(traced)),
        "service.serialize_s": med("service.serialize"),
        "service.rtt_s": median(rtts.values()),
        "service.overhead_s": median(overhead.values()),
        "service.queue_wait_s": service.get("queue_wait_s", 0.0),
        "service.structural_binds": service.get("structural_binds", 0),
        "service.share_bind": frac(bind_work, sum(rtts.values())),
        "other.self_s": med("other"),
        "trace.req_p50_s": traced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.requests": len(ids),
        "trace.request_s": sum(spans_s),
    }


def write_trace(outcome: Outcome, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{outcome.workload}-seed{outcome.seed}.json"
    path.write_text(json.dumps(tracer.to_json()))


def compare_traced(outcome: Outcome, traced: list[dict],
                   untraced: list[dict]) -> None:
    for got, want in zip(traced, untraced):
        if got != want:
            outcome.problems.append(f"traced response differs: {got} "
                                    f"!= {want}")


def count_failures(outcome: Outcome, checker, requests, responses,
                   fresh) -> None:
    outcome.failed = sum(1 for request, response in zip(requests, responses)
                         if not checker.check(request, response, fresh))
    outcome.problems.extend(checker.problems)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def cold_sweep(outcome: Outcome, seconds: float, trace: bool) -> None:
    from checks import Checker, load_golden
    from repro.cache.store import ArtifactCache
    from repro.synthesis.templates import (
        DEFAULT_TEMPLATES,
        reset_default_templates,
    )
    from spans import TracedArtifactCache, Tracer
    from workloads import probes, sweep_requests, warmup_requests

    requests = sweep_requests(outcome.seed)
    # the warm-up runs twice: it pays first-call costs, and doubles as
    # the self-test that a pass after reset_default_templates() misses
    # the template memo exactly as often as the first
    template_misses: list[int] = []
    for _ in range(2):
        reset_default_templates()
        warmup = ArtifactCache()
        for request in warmup_requests():
            serve_in_process(request, warmup)
        template_misses.append(DEFAULT_TEMPLATES.misses)
    reset_default_templates()
    pass_misses: list[int] = []

    def end_pass(cache) -> None:
        pass_misses.append(DEFAULT_TEMPLATES.misses)
        reset_default_templates()

    outcome.setup_s = time.perf_counter() - _STARTED
    served = serve_timed(outcome, pass_loop(requests, ArtifactCache,
                                            end_pass), seconds,
                         whole_passes=True)
    outcome.rss_mb = peak_rss_mb()
    first = served[:len(requests)]
    outcome.sum_totals(first)
    outcome.counts = {"list": len(requests), "timed": len(served),
                      "passes": len(served) // len(requests)}
    if trace:
        reset_default_templates()
        tracer = Tracer()
        cache = TracedArtifactCache(tracer)
        traced = []
        for index, request in enumerate(requests):
            tracer.request = index
            traced.append(traced_request(request, cache, tracer))
        compare_traced(outcome, traced, first)
        layer_metrics(outcome, tracer, requests, traced,
                      median(outcome.latencies))
        write_trace(outcome, tracer)
    for misses in (template_misses, pass_misses):
        if len(set(misses)) != 1 or not misses[0]:
            outcome.problems.append(f"cold passes are not equally cold: "
                                    f"template misses {misses}")
    # every served response counts an error as a failure; the fresh
    # compile to compare against covers the first instance group and the
    # probes, which keeps the check pass to half a timed pass
    checked = set(sweep_requests(outcome.seed, instances=1))
    reset_default_templates()
    checker = Checker(load_golden(ROOT), probes(outcome.seed, False))
    fresh = checker.compile_concrete(r for r in requests if r in checked)
    count_failures(outcome, checker, requests * outcome.counts["passes"],
                   served, fresh)


def warm_replay(outcome: Outcome, seconds: float, trace: bool) -> None:
    from checks import Checker, load_golden
    from repro.cache.store import ArtifactCache, salted_directory
    from repro.synthesis.templates import reset_default_templates
    from spans import TracedArtifactCache, Tracer
    from workloads import probes, sweep_requests

    requests = sweep_requests(outcome.seed, instances=1)
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    try:
        directory = salted_directory(scratch)
        reset_default_templates()
        # the pre-warm is itself the fresh compile the checks compare to
        fresh = Checker.compile_concrete(requests, ArtifactCache(directory))
        # first calls of the hit path (unpickling, disk reads) land here
        for request in requests[:8]:
            serve_in_process(request, ArtifactCache(directory))
        misses: list[int] = []
        outcome.setup_s = time.perf_counter() - _STARTED

        def new_cache():
            return ArtifactCache(directory)

        served = serve_timed(outcome, pass_loop(
            requests, new_cache,
            lambda cache: misses.append(cache.stats()["misses"])), seconds,
            whole_passes=True)
        outcome.rss_mb = peak_rss_mb()
        first = served[:len(requests)]
        outcome.sum_totals(first)
        outcome.counts = {"list": len(requests), "timed": len(served),
                          "passes": len(served) // len(requests)}
        if any(misses):
            outcome.problems.append(f"warm passes missed the cache: "
                                    f"{misses}")
        if trace:
            tracer = Tracer()
            cache = TracedArtifactCache(tracer, directory)
            traced = []
            for index, request in enumerate(requests):
                tracer.request = index
                traced.append(traced_request(request, cache, tracer))
            compare_traced(outcome, traced, first)
            layer_metrics(outcome, tracer, requests, traced,
                          median(outcome.latencies))
            write_trace(outcome, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    checker = Checker(load_golden(ROOT), probes(outcome.seed, False))
    count_failures(outcome, checker, requests * outcome.counts["passes"],
                   served, fresh)


def start_server(log_path: Path) -> tuple[subprocess.Popen, int]:
    """Spawn ``repro serve --port 0 --jobs 1``; returns (process, port)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log_path, "w") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1"], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=log)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        for line in log_path.read_text().splitlines():
            if line.startswith("serving on "):
                return process, int(line.rsplit(":", 1)[1])
        if process.poll() is not None:
            break
        time.sleep(0.01)
    stop_server(process, None)
    raise RuntimeError(f"server did not start: {log_path.read_text()}")


def stop_server(process: subprocess.Popen, client) -> None:
    """Graceful shutdown, then kill; always waits for the exit."""
    from repro.service.client import ServiceError

    asked = False
    if client is not None:
        try:
            client.shutdown()
            asked = True
        except ServiceError:
            pass
        client.close()
    if not asked and process.poll() is None:
        process.terminate()     # the server drains on SIGTERM too
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def bind_http(outcome: Outcome, seconds: float, trace: bool) -> None:
    from checks import Checker, load_golden
    from repro.service.client import CompileClient, ServiceError
    from workloads import bind_stream, bind_warmups, probes

    OUT.mkdir(exist_ok=True)
    log_path = OUT / f"serve-{os.getpid()}.log"
    process, port = start_server(log_path)
    client = None
    try:
        client = CompileClient(port=port, timeout_s=60.0)
        for request in bind_warmups(outcome.seed):
            client.compile(request)
        stream = bind_stream(outcome.seed)
        sent = []

        def serve_one():
            request = next(stream)
            sent.append(request)
            start = time.perf_counter()
            try:
                payload = client.compile(request)
            except ServiceError as exc:   # refusal or error status
                payload = {"error": str(exc)}
            return time.perf_counter() - start, payload

        outcome.setup_s = time.perf_counter() - _STARTED
        served = serve_timed(outcome, serve_one, seconds,
                             whole_passes=False,
                             min_requests=BIND_TOTALS_PREFIX)
        outcome.rss_mb = peak_rss_mb() + peak_rss_mb(process.pid)
        outcome.sum_totals(served[:BIND_TOTALS_PREFIX])
        outcome.counts = {"timed": len(served),
                          "distinct": len(set(sent)),
                          "totals_prefix": BIND_TOTALS_PREFIX}
        if trace:
            bind_traced(outcome, client, stream)
    finally:
        stop_server(process, client)
        log_path.unlink()
    # every served response counts an error as a failure; the fresh
    # compile to compare against covers the requests the totals sum
    # over, so the check pass does not grow with the run
    fresh = Checker.compile_bound(sent[:BIND_TOTALS_PREFIX])
    checker = Checker(load_golden(ROOT), probes(outcome.seed, True))
    count_failures(outcome, checker, sent, served, fresh)


def bind_traced(outcome: Outcome, client, stream) -> None:
    """Send more requests, timing each round trip, then replay them all
    in-process, once untraced (as the server serves them) and once under
    spans."""
    from checks import fresh_structural
    from repro.synthesis.templates import reset_default_templates
    from spans import Tracer

    requests = [next(stream) for _ in range(BIND_TRACED)]

    def fresh_structurals() -> dict:
        # both replays start from the same cache state: fresh structural
        # compiles (fresh decompose caches), cleared template memo
        reset_default_templates()
        structurals = {}
        for request in requests:
            skey = request.structural_key()
            if skey not in structurals:
                structurals[skey] = fresh_structural(request)
        return structurals

    before = client.metrics()
    rtts, http = {}, []
    for index, request in enumerate(requests):
        start = time.perf_counter()
        http.append(client.compile(request))
        rtts[index] = time.perf_counter() - start
    after = client.metrics()
    structurals = fresh_structurals()
    replays, untraced = {}, []
    for index, request in enumerate(requests):
        replays[index], payload = serve_in_process(request, None,
                                                   structurals)
        untraced.append(payload)
    structurals = fresh_structurals()
    tracer = Tracer()
    replayed = []
    for index, request in enumerate(requests):
        tracer.request = index
        replayed.append(traced_request(request, None, tracer, structurals))
    waits = [snapshot["latency"]["queue_wait"] for snapshot in (before,
                                                                 after)]
    service = {
        "queue_wait_s": ((waits[1]["total_s"] - waits[0]["total_s"])
                         / max(1, waits[1]["count"] - waits[0]["count"])),
        "structural_binds": (after["requests"]["structural_binds"]
                             - before["requests"]["structural_binds"]),
    }
    compare_traced(outcome, untraced, http)
    compare_traced(outcome, replayed, http)
    layer_metrics(outcome, tracer, requests, http, median(replays.values()),
                  rtts, replays, service)
    write_trace(outcome, tracer)


RUNNERS = {"cold-sweep": cold_sweep, "bind-http": bind_http,
           "warm-replay": warm_replay}


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    outcome = Outcome(workload, seed)
    RUNNERS[workload](outcome, seconds, trace)
    attempted = len(outcome.latencies)
    correct = outcome.failed == 0 and not outcome.problems
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        metrics = {name: (value, units[name])
                   for name, value in outcome.layers.items()}
    else:
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        metrics = outcome.end_to_end()
    if {name: unit for name, (_, unit) in metrics.items()} != units:
        outcome.problems.append("reported metrics differ from the ones "
                                "BENCHMARK.json declares")
        correct = False
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "environment": environment(seed), "counts": outcome.counts,
              "trace_notes": outcome.trace_notes, "correct": correct, "attempted": attempted,
              "failed": outcome.failed, "problems": outcome.problems,
              "latencies_s": outcome.latencies,
              "metrics": {name: {"value": v, "unit": u}
                          for name, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    for problem in outcome.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload:12s} {name:34s} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": outcome.failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (set-up is per process)."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))], cwd=ROOT, capture_output=True,
            text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so the server it spawned is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "all":
        return run_all(seed, args.seconds, bool(args.trace))
    return run_one(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

"""A repeated request is served without building or hashing its problem.

Mirrors the warm-replay workload of the repository benchmark: a library
pre-warm (``compile_cached`` on steps the caller built) fills a disk
cache, then the service path (``execute_request``) replays the same
requests twice, each time on a fresh ``ArtifactCache`` over that
directory.  The first replay records each recipe's step digest in the
problem index; the second is all index and artifact hits.
"""

import json

from repro.analysis.harness import build_step, build_symbolic_step
from repro.cache.cached import compile_cached
from repro.cache.store import ArtifactCache
from repro.core.registry import get_compiler, resolve_spec
from repro.devices.library import target_device
from repro.service.batch import CompileRequest, execute_request

REQUESTS = [
    CompileRequest(compiler="2qan", benchmark="NNN_Ising", n_qubits=6,
                   device="aspen", gateset="CNOT", seed=0),
    CompileRequest(compiler="tket", benchmark="NNN_Ising", n_qubits=6,
                   device="aspen", gateset="CNOT", seed=0),
    CompileRequest(compiler="2qan", benchmark="QAOA-REG-3", n_qubits=6,
                   device="aspen", gateset="CZ", seed=4),
    CompileRequest(compiler="nomap", benchmark="NNN_XY", n_qubits=6,
                   device="aspen", gateset="CNOT", seed=2),
    CompileRequest(compiler="2qan", benchmark="NNN_Heisenberg", n_qubits=6,
                   device="aspen", gateset="CNOT", seed=1,
                   parameters=(("t", 0.7),)),
]


def _prewarm(cache: ArtifactCache) -> None:
    """Library compiles of every request, on caller-built steps."""
    for request in REQUESTS:
        spec = resolve_spec(request.compiler)
        compiler = get_compiler(
            spec.name, gateset=request.gateset, seed=request.seed,
            device=target_device(request.device, request.n_qubits,
                                 spec.requires_device))
        build = build_symbolic_step if request.parameters else build_step
        step = build(request.benchmark, request.n_qubits, request.seed,
                     request.qaoa_degree)
        compile_cached(compiler, step, cache,
                       binding=request.binding() or None)


def _serve(directory) -> tuple[list[str], ArtifactCache]:
    cache = ArtifactCache(directory)
    responses = [json.dumps(execute_request(request, cache).to_dict())
                 for request in REQUESTS]
    return responses, cache


def test_second_replay_neither_builds_nor_hashes(tmp_path, problem_work):
    uncached = [json.dumps(execute_request(request).to_dict())
                for request in REQUESTS]
    _prewarm(ArtifactCache(tmp_path))
    first, first_cache = _serve(tmp_path)
    before = dict(problem_work)
    second, second_cache = _serve(tmp_path)
    assert problem_work == before, "the second replay built or hashed"
    assert first == second == uncached
    for cache in (first_cache, second_cache):
        assert cache.stats()["misses"] == 0
        assert cache.stats()["hits"] > 0
    # the tket request shares the first request's problem
    assert first_cache.stats()["index"] == {"hits": 1,
                                            "misses": len(REQUESTS) - 1}
    assert second_cache.stats()["index"] == {"hits": len(REQUESTS),
                                             "misses": 0}


def test_cold_serve_hashes_each_step_once(problem_work):
    """Cold, every request builds and hashes its (distinct) step once,
    as library callers do."""
    cache = ArtifactCache()
    distinct = [REQUESTS[0]] + REQUESTS[2:]
    for request in distinct:
        execute_request(request, cache)
    assert problem_work == {"builds": len(distinct),
                            "hashes": len(distinct)}

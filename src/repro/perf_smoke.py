"""Perf gate: every fast kernel against the reference it replaced.

Run as ``python -m repro.perf_smoke``.  Each row of :data:`CASES` builds
a fixed input, runs a fast path and its retained reference on it, and
checks two things: the outputs are identical (a fast wrong kernel is
worse than a slow right one) and the fast path is at least ``floor``
times faster.  Both sides run in one process on one machine, best of
``rounds``, so the ratio is relative and robust to slow CI runners.
:func:`main` prints one line per case and returns 1 if any case fails
either check.

This is a CI gate, not a performance record: caller-seen latency and the
per-pass breakdown are measured by ``perfbench/``.
"""

from __future__ import annotations

import math
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis.harness import build_step, build_symbolic_step
from repro.cache.cached import compile_cached
from repro.cache.store import ArtifactCache
from repro.core.bind import compile_structural
from repro.core.decompose import (
    DecomposeCache,
    decompose_circuit,
    decompose_circuit_reference,
)
from repro.core.registry import get_compiler, resolve_spec
from repro.core.routing import route
from repro.core.unify import unify_circuit_operators
from repro.devices import sycamore
from repro.devices.library import target_device
from repro.hamiltonians.models import nnn_heisenberg
from repro.hamiltonians.trotter import trotter_step
from repro.mapping.qap import qap_from_problem
from repro.mapping.tabu import tabu_search, tabu_trials
from repro.quantum.gates import standard_gate_unitary
from repro.quantum.unitaries import random_unitary
from repro.service.batch import CompileRequest, execute_request
from repro.synthesis.gateset import get_gateset
from repro.synthesis.templates import TemplateCache
from repro.synthesis.weyl import canonical_gate


# ----------------------------------------------------------------------
# Equality oracles (the router tests import routed_equal)
# ----------------------------------------------------------------------
def routed_equal(a, b) -> bool:
    """Bit-for-bit equality of two :class:`RoutedProblem` trajectories:
    same SWAPs (edges, map indices, dressed operators), same routed
    gates (operators, map indices, physical pairs), same map sequence."""
    if len(a.swaps) != len(b.swaps) or len(a.gates) != len(b.gates) \
            or len(a.maps) != len(b.maps):
        return False
    for sa, sb in zip(a.swaps, b.swaps):
        da = sa.dressed_with.label if sa.is_dressed else None
        db = sb.dressed_with.label if sb.is_dressed else None
        if (sa.physical_pair, sa.map_index, da) != \
                (sb.physical_pair, sb.map_index, db):
            return False
    for ga, gb in zip(a.gates, b.gates):
        if (ga.operator.label, ga.map_index, tuple(ga.physical_pair)) != \
                (gb.operator.label, gb.map_index, tuple(gb.physical_pair)):
            return False
    return all(ma.logical_to_physical == mb.logical_to_physical
               for ma, mb in zip(a.maps, b.maps))


def circuits_identical(a, b) -> bool:
    """Gate-by-gate bit identity: same wires, same unitary bytes."""
    if a.n_qubits != b.n_qubits or len(a.gates) != len(b.gates):
        return False
    for ga, gb in zip(a.gates, b.gates):
        if ga.name != gb.name or ga.qubits != gb.qubits:
            return False
        if ga.unitary().tobytes() != gb.unitary().tobytes():
            return False
    return True


def blocks_identical(batched, scalar) -> bool:
    """Block-for-block comparison of ``(circuit, phase)`` syntheses:
    names, qubits, params, matrix bytes, global phases."""
    if len(batched) != len(scalar):
        return False
    for (circuit_b, phase_b), (circuit_s, phase_s) in zip(batched, scalar):
        if complex(phase_b) != complex(phase_s):
            return False
        if len(circuit_b.gates) != len(circuit_s.gates):
            return False
        for gate_b, gate_s in zip(circuit_b.gates, circuit_s.gates):
            if (gate_b.name != gate_s.name
                    or gate_b.qubits != gate_s.qubits
                    or gate_b.params != gate_s.params):
                return False
            if (gate_b.matrix is None) != (gate_s.matrix is None):
                return False
            if gate_b.matrix is not None:
                if (np.ascontiguousarray(gate_b.matrix).tobytes()
                        != np.ascontiguousarray(gate_s.matrix).tobytes()):
                    return False
    return True


# ----------------------------------------------------------------------
# The case table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Case:
    """One fast-vs-reference gate.

    ``build()`` makes the fixed inputs (untimed).  A fast round times
    ``prepare(inputs)`` -- the fast side's one-off set-up, if it has
    one -- then ``fast(state)`` on what it returned; a reference round
    times ``reference(inputs)``.  ``floor`` bounds reference over fast
    time; ``setup_floor`` bounds reference over prepare-plus-fast time.
    """

    name: str
    describe: str
    build: Callable[[], Any]
    fast: Callable[[Any], Any]
    reference: Callable[[Any], Any]
    identical: Callable[[Any, Any], bool]
    floor: float
    prepare: Callable[[Any], Any] | None = None
    setup_floor: float | None = None
    rounds: int = 5


def _heisenberg_step(n_qubits: int):
    return unify_circuit_operators(
        trotter_step(nnn_heisenberg(n_qubits, seed=0)))


def _random_placement(n_logical: int, n_physical: int) -> np.ndarray:
    """A seeded random placement: deliberately bad, so there is work."""
    rng = np.random.default_rng(0)
    return np.array(rng.permutation(n_physical)[:n_logical])


def _tabu_inputs():
    """The n=34 sycamore instance and best-of-5's trial seeds."""
    return (qap_from_problem(_heisenberg_step(34), sycamore()),
            tuple(1000 * trial for trial in range(5)))


def _trials_identical(lockstep, one_by_one) -> bool:
    return len(lockstep) == len(one_by_one) and all(
        np.array_equal(a.assignment, b.assignment) and a.cost == b.cost
        and a.iterations == b.iterations
        for a, b in zip(lockstep, one_by_one))


def _routing_inputs():
    device = sycamore()
    return _heisenberg_step(34), device, _random_placement(34,
                                                           device.n_qubits)


def _synthesis_inputs():
    """Seeded Haar draws, the structured blocks real workloads repeat
    (SWAP, CNOT, CZ, a local product, canonical gates at the chamber
    boundaries), then a second, larger Haar batch."""
    rng = np.random.default_rng(0)
    matrices = [random_unitary(4, rng) for _ in range(48)]
    matrices += [
        standard_gate_unitary("SWAP"),
        standard_gate_unitary("CNOT"),
        standard_gate_unitary("CZ"),
        np.kron(random_unitary(2, rng), random_unitary(2, rng)),
        canonical_gate(math.pi / 4, 0.3, 0.1),   # x = pi/4 boundary
        canonical_gate(0.4, 0.3, 0.0),           # z = 0 (2-CNOT class)
        canonical_gate(0.4, 0.3, -0.2),          # z < 0 pre-reduction
    ]
    rng = np.random.default_rng(42)
    matrices += [random_unitary(4, rng) for _ in range(128)]
    return get_gateset("CNOT"), matrices


def _bind_compiler():
    return get_compiler("2qan", device=sycamore(), gateset="CNOT", seed=0)


def _bind_inputs():
    angles = [{"gamma": 0.05 + 0.11 * i, "beta": -0.6 + 0.07 * i}
              for i in range(20)]
    return build_symbolic_step("QAOA-REG-3", 20, 0), angles


def _cold_compiles(inputs) -> list:
    """The cold baseline: bind the angles at the front end (a fully
    concrete step, as the sweep harness compiles) and run the whole
    pipeline from scratch per angle set."""
    symbolic, angles = inputs
    return [_bind_compiler().compile(symbolic.bind(binding))
            for binding in angles]


def _lowering_inputs():
    """The bind case's 20 angle sets bound into one n=20 QAOA/sycamore
    structure, as the application circuits the SYC lowering sees."""
    symbolic, angles = _bind_inputs()
    compiler = get_compiler("2qan", device=sycamore(), gateset="SYC", seed=0)
    structural = compile_structural(compiler, symbolic)
    return compiler.gateset, [structural.bind(binding).app_circuit
                              for binding in angles]


def _cnot_lowering_inputs():
    """The same application circuits, lowered to CNOT: every block is
    synthesized (the SYC case's blocks are shared placeholders)."""
    return get_gateset("CNOT"), _lowering_inputs()[1]


def _lower(decompose):
    """Lower every circuit through fresh memos, as one round of binds
    on a fresh server would."""
    def lower(inputs) -> list:
        gateset, circuits = inputs
        cache, templates = DecomposeCache(), TemplateCache()
        return [decompose(circuit, gateset, cache=cache, templates=templates)
                for circuit in circuits]
    return lower


def _all_identical(fast, reference) -> bool:
    return len(fast) == len(reference) and all(
        circuits_identical(a, b) for a, b in zip(fast, reference))


def _bound_identical(warm, cold) -> bool:
    return len(warm) == len(cold) and all(
        circuits_identical(w.circuit, c.circuit) and w.metrics == c.metrics
        for w, c in zip(warm, cold))


#: The warm case's requests: the four applications at their sycamore
#: sizes in the Figs. 7-9 cells, each through three compilers.
_WARM_REQUESTS = tuple(
    CompileRequest(compiler=compiler, benchmark=benchmark, n_qubits=n,
                   device="sycamore", gateset="SYC", seed=seed)
    for seed, (benchmark, n) in enumerate((
        ("NNN_Heisenberg", 34), ("NNN_XY", 28), ("NNN_Ising", 24),
        ("QAOA-REG-3", 30)))
    for compiler in ("2qan", "tket", "nomap"))


def _library_compile(request: CompileRequest, cache: ArtifactCache):
    """``request`` the way a library caller compiles it: build the
    step, then ``compile_cached`` (which content-hashes it)."""
    spec = resolve_spec(request.compiler)
    compiler = get_compiler(
        spec.name, gateset=request.gateset, seed=request.seed,
        device=target_device(request.device, request.n_qubits,
                             spec.requires_device))
    step = build_step(request.benchmark, request.n_qubits, request.seed,
                      request.qaoa_degree)
    return compile_cached(compiler, step, cache)


def _warm_inputs():
    """A temp-dir cache pre-warmed by library compiles, then served
    once so its problem index holds every request's step digest.  The
    directory is removed when the inputs are dropped."""
    directory = tempfile.TemporaryDirectory(prefix="repro-warm-")
    inputs = (directory, _WARM_REQUESTS)
    _library_replay(inputs)
    _service_replay(inputs)
    return inputs


def _service_replay(inputs) -> list:
    directory, requests = inputs
    cache = ArtifactCache(directory.name)
    return [execute_request(request, cache) for request in requests]


def _library_replay(inputs) -> list:
    directory, requests = inputs
    cache = ArtifactCache(directory.name)
    return [_library_compile(request, cache) for request in requests]


def _same_metrics(responses, results) -> bool:
    return len(responses) == len(results) and all(
        response.to_dict()[name] == value
        for response, result in zip(responses, results)
        for name, value in result.metric_fields().items())


CASES: tuple[Case, ...] = (
    Case("tabu", "n=34 Heisenberg/sycamore best-of-5 Tabu, lockstep "
                 "trials vs five 1-trial searches",
         build=_tabu_inputs,
         fast=lambda inputs: tabu_trials(*inputs),
         reference=lambda inputs: [tabu_search(inputs[0], seed=seed)
                                   for seed in inputs[1]],
         identical=_trials_identical,
         floor=1.5, rounds=7),
    Case("routing", "n=34 Heisenberg/sycamore, incremental vs "
                    "scalar-rescan router",
         build=_routing_inputs,
         fast=lambda inputs: route(*inputs, seed=0, engine="incremental"),
         reference=lambda inputs: route(*inputs, seed=0, engine="reference"),
         identical=routed_equal,
         floor=3.0),
    Case("synthesis", "183 blocks (55 structured/Haar + 128 Haar) to CNOT, "
                      "batched vs per-matrix KAK",
         build=_synthesis_inputs,
         fast=lambda inputs: inputs[0].decompose_batch(inputs[1]),
         reference=lambda inputs: [inputs[0].decompose(m) for m in inputs[1]],
         identical=blocks_identical,
         floor=3.0),
    Case("lowering", "n=20 QAOA/sycamore, 20 bound angle sets to SYC, "
                     "one-walk lowering vs lower-then-fuse reference",
         build=_lowering_inputs,
         fast=_lower(decompose_circuit),
         reference=_lower(decompose_circuit_reference),
         identical=_all_identical,
         floor=1.0),
    Case("lowering_cnot", "the lowering case's 20 application circuits "
                          "to CNOT, batched blocks and one-walk lowering "
                          "vs per-matrix blocks and lower-then-fuse",
         build=_cnot_lowering_inputs,
         fast=_lower(decompose_circuit),
         reference=_lower(decompose_circuit_reference),
         identical=_all_identical,
         floor=1.5),
    # the set-up floor is the serving claim (the structural compile is
    # paid inside the batch); the plain floor is the per-bind claim
    Case("bind", "n=20 QAOA/sycamore, 20 angle sets, structural compile "
                 "+ binds vs cold compiles",
         build=_bind_inputs,
         prepare=lambda inputs: (compile_structural(_bind_compiler(),
                                                    inputs[0]), inputs[1]),
         fast=lambda state: [state[0].bind(binding) for binding in state[1]],
         reference=_cold_compiles,
         identical=_bound_identical,
         floor=10.0, setup_floor=5.0, rounds=5),
    Case("warm", "12 sycamore/SYC requests on a pre-warmed disk cache, "
                 "service replay (problem index) vs library replay "
                 "(build and hash each step)",
         build=_warm_inputs,
         fast=_service_replay,
         reference=_library_replay,
         identical=_same_metrics,
         floor=1.5),
)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _ratio(reference_s: float, fast_s: float) -> float:
    return reference_s / fast_s if fast_s > 0 else math.inf


@dataclass(frozen=True)
class Outcome:
    """A case's best round: seconds per side plus output identity."""

    case: Case
    prepare_s: float
    fast_s: float
    reference_s: float
    identical: bool

    @property
    def ratio(self) -> float:
        return _ratio(self.reference_s, self.fast_s)

    @property
    def setup_ratio(self) -> float:
        return _ratio(self.reference_s, self.prepare_s + self.fast_s)

    def failures(self) -> list[str]:
        problems = []
        if not self.identical:
            problems.append("outputs differ from the reference")
        if self.ratio < self.case.floor:
            problems.append(f"only {self.ratio:.1f}x faster")
        setup_floor = self.case.setup_floor
        if setup_floor is not None and self.setup_ratio < setup_floor:
            problems.append(f"only {self.setup_ratio:.1f}x faster "
                            f"with set-up")
        return problems

    def report(self) -> str:
        case = self.case
        line = (f"{case.name}: {case.describe}: "
                f"fast {self.fast_s * 1e3:.2f}ms, "
                f"reference {self.reference_s * 1e3:.2f}ms, "
                f"ratio {self.ratio:.1f}x (need >= {case.floor}x)")
        if case.setup_floor is not None:
            line += (f", with set-up {self.setup_ratio:.1f}x "
                     f"(need >= {case.setup_floor}x)")
        line += f", identical: {self.identical}"
        problems = self.failures()
        return line + (f" -- FAIL: {'; '.join(problems)}" if problems
                       else " -- ok")


def _timed(fn: Callable[[Any], Any], arg: Any) -> tuple[float, Any]:
    start = time.perf_counter()
    out = fn(arg)
    return time.perf_counter() - start, out


def measure(case: Case) -> Outcome:
    """Time ``case.rounds`` fast rounds and as many reference rounds,
    alternating, so a burst of host noise lands on both sides; keep
    each side's best."""
    inputs = case.build()
    prepare_s = fast_s = reference_s = math.inf
    fast_out = reference_out = None
    for _ in range(case.rounds):
        round_prepare_s, state = (_timed(case.prepare, inputs)
                                  if case.prepare else (0.0, inputs))
        round_fast_s, fast_out = _timed(case.fast, state)
        if round_prepare_s + round_fast_s < prepare_s + fast_s:
            prepare_s, fast_s = round_prepare_s, round_fast_s
        round_reference_s, reference_out = _timed(case.reference, inputs)
        reference_s = min(reference_s, round_reference_s)
    return Outcome(case, prepare_s, fast_s, reference_s,
                   bool(case.identical(fast_out, reference_out)))


def main(cases: Sequence[Case] = CASES) -> int:
    """Measure every case, print one line each; 1 if any case failed."""
    status = 0
    for case in cases:
        outcome = measure(case)
        print(outcome.report(), flush=True)
        if outcome.failures():
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

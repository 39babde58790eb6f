"""Correctness checks that do not trust the compiler under test.

Every timed response that carries an error fails.  Timed responses are
compared with a fresh compile of the same request made outside the
timed loop (cold-sweep and bind-http: a fixed sample of their
requests), and that compile's hardware circuit is checked against
oracles the compiler does not supply:

* every two-qubit hardware gate acts on a coupling edge of the request's
  device (``Device.are_neighbors``);
* every source operator of the problem appears exactly once among the
  application-level two-qubit blocks (unified blocks and dressed SWAPs
  carry the ``*``-joined labels of the terms they absorbed);
* the dense probe (n <= 6, device sized to the problem) is recompiled
  with exact angles and checked with the full-unitary
  ``verify_compilation``;
* the golden probes equal ``tests/core/golden_metrics.json``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

from repro.analysis.harness import build_step, build_symbolic_step
from repro.cache.cached import compile_cached
from repro.cache.store import ArtifactCache
from repro.core.bind import bind_structural, compile_structural
from repro.core.registry import get_compiler, resolve_spec
from repro.devices.library import all_to_all, by_name
from repro.verification import verify_compilation

#: Response fields that carry compilation metrics.
METRIC_FIELDS = ("n_swaps", "n_dressed", "n_two_qubit_gates",
                 "two_qubit_depth", "total_depth", "qap_cost")
_APP_TWO_QUBIT = ("APP2Q", "DRESSED_SWAP")
#: Failed requests described in the run record (all are counted).
MAX_REPORTED = 10


def load_golden(root: Path) -> dict:
    return json.loads((root / "tests" / "core" / "golden_metrics.json")
                      .read_text())


def request_device(request):
    """The device a request targets (sized to the problem when the
    compiler ignores devices, exactly as the request semantics say)."""
    spec = resolve_spec(request.compiler)
    if spec.requires_device and request.device.lower() != "all-to-all":
        return by_name(request.device)
    return all_to_all(request.n_qubits)


def request_step(request):
    args = (request.benchmark, request.n_qubits, request.seed,
            request.qaoa_degree)
    return build_symbolic_step(*args) if request.parameters \
        else build_step(*args)


def result_metrics(result) -> dict:
    metrics = result.metrics
    return {"n_swaps": metrics.n_swaps, "n_dressed": metrics.n_dressed,
            "n_two_qubit_gates": metrics.n_two_qubit_gates,
            "two_qubit_depth": metrics.two_qubit_depth,
            "total_depth": metrics.total_depth,
            "qap_cost": (None if math.isnan(result.qap_cost)
                         else float(result.qap_cost))}


def off_edge_gates(result, device) -> int:
    """Two-qubit hardware gates that do not sit on a coupling edge."""
    return sum(1 for gate in result.circuit
               if len(gate.qubits) == 2
               and not device.are_neighbors(*gate.qubits))


def _split_labels(label: str, sources: set[str]) -> list[str] | None:
    """Split a block label into the source labels it joins, or None."""
    parts, pending = [], []
    for token in label.split("*"):
        pending.append(token)
        joined = "*".join(pending)
        if joined in sources:
            parts.append(joined)
            pending = []
    return parts if not pending else None


def operators_conserved(result, step) -> bool:
    """Each source two-qubit operator appears in exactly one block."""
    expected = Counter(op.label for op in step.two_qubit_ops)
    sources = set(expected)
    executed: Counter = Counter()
    for gate in result.app_circuit:
        if gate.name not in _APP_TWO_QUBIT:
            continue
        label = gate.meta.get("label", "")
        if gate.name == "DRESSED_SWAP":
            label = label.removeprefix("swap*")
        parts = _split_labels(label, sources)
        if parts is None:
            return False
        executed.update(parts)
    return executed == expected


def fresh_compiler(request, **knobs):
    """A new compiler (with a new decompose cache) for ``request``."""
    return get_compiler(request.compiler, device=request_device(request),
                        gateset=request.gateset, seed=request.seed, **knobs)


def fresh_structural(request):
    """A structural compile of a parameterised request's prefix."""
    return compile_structural(fresh_compiler(request), request_step(request))


def dense_probe_ok(request) -> bool:
    """Recompile with exact angles and compare full unitaries."""
    step = request_step(request)
    result = fresh_compiler(request, solve_angles=True).compile(
        step, binding=request.binding() or None)
    return verify_compilation(result, step)


class Checker:
    """Fresh compiles, oracle checks and per-request failure counts."""

    def __init__(self, golden: dict, probes) -> None:
        self.golden = golden
        self.probes = {probe.request: probe for probe in probes}
        self.problems: list[str] = []
        self._verdicts: dict = {}

    # -- fresh compiles ---------------------------------------------------
    @staticmethod
    def compile_concrete(requests, cache: ArtifactCache | None = None):
        """Fresh cached compiles of distinct concrete requests."""
        cache = cache if cache is not None else ArtifactCache()
        fresh = {}
        for request in requests:
            if request in fresh:
                continue
            step = request_step(request)
            fresh[request] = (compile_cached(fresh_compiler(request), step,
                                             cache), step)
        return fresh

    @staticmethod
    def compile_bound(requests):
        """Fresh structural compiles, one bind per distinct request."""
        structurals, fresh = {}, {}
        for request in requests:
            if request in fresh:
                continue
            skey = request.structural_key()
            if skey not in structurals:
                structurals[skey] = fresh_structural(request)
            fresh[request] = (bind_structural(structurals[skey],
                                              request.binding()),
                              request_step(request))
        return fresh

    # -- verdicts ------------------------------------------------------------
    def _verdict(self, request, result, step) -> list[str]:
        cached = self._verdicts.get(request)
        if cached is not None:
            return cached
        problems = []
        off_edge = off_edge_gates(result, request_device(request))
        if off_edge:
            problems.append(f"{off_edge} two-qubit gate(s) off the "
                            f"coupling graph")
        if not operators_conserved(result, step):
            problems.append("source operators not conserved")
        probe = self.probes.get(request)
        if probe is not None and probe.dense and not dense_probe_ok(request):
            problems.append("dense unitary check failed")
        if probe is not None and probe.golden is not None:
            want = self.golden[probe.golden]
            got = result_metrics(result)
            diff = {k: (got[k], v) for k, v in want.items() if got[k] != v}
            if diff:
                problems.append(f"golden {probe.golden} differs: {diff}")
        self._verdicts[request] = problems
        return problems

    def check(self, request, response: dict, fresh) -> bool:
        """Check one served response; records and returns failure.

        Every error response fails.  A response is compared with a fresh
        compile only when ``fresh`` holds its request (cold-sweep and
        bind-http check a fixed sample of their requests that way).
        """
        if response.get("error") is not None:
            if len(self.problems) < MAX_REPORTED:
                self.problems.append(f"{request}: {response['error']}")
            return False
        if request not in fresh:
            return True
        result, step = fresh[request]
        problems = list(self._verdict(request, result, step))
        want = result_metrics(result)
        diff = {k: (response.get(k), want[k]) for k in METRIC_FIELDS
                if response.get(k) != want[k]}
        if diff:
            problems.append(f"response differs from a fresh compile: {diff}")
        if problems and len(self.problems) < MAX_REPORTED:
            self.problems.append(f"{request}: {'; '.join(problems)}")
        return not problems

"""Pinned hardware lowering: digests of what ``decompose_circuit`` and
``GateSet.decompose_batch`` emit.

``lowering_fixture.json`` holds, for each case, a SHA-256 digest of the
lowered output: every gate's name, qubits and matrix bytes (a basis gate
without a matrix hashes its name only), and for synthesis blocks also
each block's global phase and gate parameters.  A lowering case also
pins the digest of the application circuit it lowers, so a failure says
whether the input or the lowering moved.

Cases:

* ``lower|...``: every registry compiler's ``app_circuit`` for
  NNN_Heisenberg and QAOA-REG-3 on montreal/CNOT, montreal/CZ,
  sycamore/SYC and aspen/ISWAP at n = 16-24 (``ic_qaoa`` on QAOA-REG-3
  only: it refuses non-commuting steps), lowered with ``solve=False``
  through fresh memos -- the benchmark mode;
* ``solve|...``: the same compilers at n = 6 on the analytic gate sets
  (CNOT, CZ), and 2qan_nodress's QAOA-REG-3 on the numerical ones (SYC,
  ISWAP; their scipy sandwich search takes seconds per block), lowered
  with ``solve=True`` (unitary-exact blocks);
* ``batch|...``: ``decompose_batch`` of perf_smoke's 183 synthesis
  matrices, one digest per block.

The fixture was recorded before the lowering moved onto columns; every
lowering change must replay it bit for bit.  One more test counts the
batch engine's scalar KAK fallbacks on the CNOT cases' unique matrices:
there must be none, or the vector path's gain has quietly gone.  Re-record (only when an
output change is intended) with::

    PYTHONPATH=src python tests/core/test_lowering_fixture.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.harness import build_step
from repro.core.decompose import DecomposeCache, cache_key, decompose_circuit
from repro.core.registry import compiler_names, get_compiler, resolve_spec
from repro.devices.library import target_device
from repro.perf_smoke import _synthesis_inputs
from repro.synthesis import batch
from repro.synthesis.gateset import get_gateset
from repro.synthesis.templates import TemplateCache
from repro.synthesis.weyl import kak_decompose

FIXTURE = Path(__file__).parent / "lowering_fixture.json"

#: Instance and compile seed of every case.
SEED = 1

#: device, gate set, size per application (n = 16-24)
TARGETS = (
    ("montreal", "CNOT", {"NNN_Heisenberg": 20, "QAOA-REG-3": 24}),
    ("montreal", "CZ", {"NNN_Heisenberg": 24, "QAOA-REG-3": 16}),
    ("sycamore", "SYC", {"NNN_Heisenberg": 24, "QAOA-REG-3": 20}),
    ("aspen", "ISWAP", {"NNN_Heisenberg": 16, "QAOA-REG-3": 16}),
)
SOLVE_SIZE = 6


def _applies(compiler: str, benchmark: str) -> bool:
    return compiler != "ic_qaoa" or benchmark == "QAOA-REG-3"


LOWER_CASES = tuple(
    f"lower|{compiler}|{device}|{gateset}|{benchmark}|n{n}"
    for device, gateset, sizes in TARGETS
    for benchmark, n in sizes.items()
    for compiler in compiler_names() if _applies(compiler, benchmark))
SOLVE_CASES = tuple(
    f"solve|{compiler}|{device}|{gateset}|{benchmark}|n{SOLVE_SIZE}"
    for device, gateset, sizes in TARGETS
    for benchmark in sizes
    for compiler in compiler_names()
    if _applies(compiler, benchmark) and (
        gateset in ("CNOT", "CZ")
        or (compiler, benchmark) == ("2qan_nodress", "QAOA-REG-3")))
BATCH_CASE = "batch|CNOT|perf_smoke-synthesis"
CASES = LOWER_CASES + SOLVE_CASES + (BATCH_CASE,)


def _hash_gate(digest, gate, *, params: bool = False) -> None:
    digest.update(gate.name.encode())
    digest.update(np.asarray(gate.qubits, dtype=np.int64).tobytes())
    if params:
        digest.update(repr(gate.params).encode())
    if gate.matrix is not None:
        matrix = np.ascontiguousarray(gate.matrix)
        digest.update(matrix.dtype.str.encode())
        digest.update(matrix.tobytes())
    digest.update(b";")


def circuit_digest(circuit) -> str:
    digest = hashlib.sha256(str(circuit.n_qubits).encode())
    for gate in circuit.gates:
        _hash_gate(digest, gate)
    return digest.hexdigest()[:32]


def block_digest(block, phase) -> str:
    digest = hashlib.sha256(np.complex128(phase).tobytes())
    for gate in block.gates:
        _hash_gate(digest, gate, params=True)
    return digest.hexdigest()[:32]


def _app_circuit(compiler: str, device: str, gateset: str, benchmark: str,
                 n: int):
    spec = resolve_spec(compiler)
    built = get_compiler(
        compiler, gateset=gateset, seed=SEED,
        device=target_device(device, n, spec.requires_device))
    return built.compile(build_step(benchmark, n, SEED)).app_circuit


def lowering(case: str) -> dict | list:
    kind, *fields = case.split("|")
    if kind == "batch":
        gateset, matrices = _synthesis_inputs()
        return [block_digest(block, phase)
                for block, phase in gateset.decompose_batch(matrices)]
    compiler, device, gateset, benchmark, size = fields
    app = _app_circuit(compiler, device, gateset, benchmark, int(size[1:]))
    hardware = decompose_circuit(
        app, get_gateset(gateset), solve=kind == "solve", seed=SEED,
        cache=DecomposeCache(), templates=TemplateCache())
    return {"app": circuit_digest(app), "gates": len(hardware.gates),
            "lowered": circuit_digest(hardware)}


def test_cnot_blocks_need_no_scalar_fallback(monkeypatch):
    """Every unique two-qubit matrix of the CNOT cases, targets and cores
    alike, stays on the batch engine's vector path: wrapping the scalar
    ``kak_decompose`` the engine falls back to counts no call."""
    unique = {}
    for case in LOWER_CASES + SOLVE_CASES:
        _, compiler, device, gateset, benchmark, size = case.split("|")
        if gateset != "CNOT":
            continue
        app = _app_circuit(compiler, device, gateset, benchmark,
                           int(size[1:]))
        for gate in app.gates:
            if gate.n_qubits == 2:
                matrix = gate.unitary()
                unique.setdefault(cache_key(matrix), matrix)
    assert len(unique) > 100
    calls = []
    monkeypatch.setattr(batch, "kak_decompose",
                        lambda m: calls.append(m) or kak_decompose(m))
    get_gateset("CNOT").decompose_batch(list(unique.values()))
    assert calls == []


@lru_cache(maxsize=None)
def _pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert set(_pinned()) == set(CASES)


@pytest.mark.parametrize("case", CASES)
def test_lowering_replays_pin(case):
    assert lowering(case) == _pinned()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    records = {case: lowering(case) for case in CASES}
    FIXTURE.write_text("{\n" + ",\n".join(
        f" {json.dumps(case)}: {json.dumps(record)}"
        for case, record in records.items()) + "\n}\n")
    print(f"recorded {len(records)} cases into {FIXTURE}")

"""Shared helpers for the baseline compilers.

The baselines compile through the same :mod:`repro.core.pipeline`
substrate as 2QAN and return the same
:class:`~repro.core.pipeline.CompilationResult`.
"""

from __future__ import annotations

from repro.core.decompose import DecomposeCache, decompose_circuit
from repro.core.metrics import CircuitMetrics
from repro.core.pipeline import CompilationResult
from repro.core.routing import QubitMap
from repro.quantum.circuit import Circuit
from repro.quantum.gates import Gate, standard_gate_unitary
from repro.quantum.params import SymbolicUnitary, factor_template_key
from repro.synthesis.gateset import GateSet, get_gateset

_SWAP = standard_gate_unitary("SWAP")

__all__ = ["lower_app_circuit", "swap_gate", "identity_map",
           "app_2q_gate", "app_1q_gate"]


def identity_map(n_qubits: int) -> QubitMap:
    """The trivial logical->physical assignment."""
    return QubitMap({q: q for q in range(n_qubits)})


def _as_qubit_map(mapping: QubitMap | dict[int, int]) -> QubitMap:
    if isinstance(mapping, QubitMap):
        return mapping
    return QubitMap(dict(mapping))


def lower_app_circuit(app_circuit: Circuit, gateset: str | GateSet,
                      n_swaps: int, initial_map, final_map, *,
                      solve: bool = False, seed: int = 0,
                      cache: DecomposeCache | None = None,
                      timings: dict[str, float] | None = None,
                      ) -> CompilationResult:
    """Decompose an application-level routed circuit and collect metrics.

    Legacy one-shot helper kept for direct callers; the pipeline
    compilers reach the same lowering through
    :class:`repro.core.pipeline.DecomposePass`.
    """
    if isinstance(gateset, str):
        gateset = get_gateset(gateset)
    hardware = decompose_circuit(app_circuit, gateset, solve=solve,
                                 seed=seed, cache=cache)
    metrics = CircuitMetrics.from_circuit(hardware, n_swaps=n_swaps)
    return CompilationResult(
        circuit=hardware,
        metrics=metrics,
        timings=dict(timings or {}),
        app_circuit=app_circuit,
        n_swaps=n_swaps,
        initial_map=_as_qubit_map(initial_map),
        final_map=_as_qubit_map(final_map),
    )


def swap_gate(p: int, q: int) -> Gate:
    return Gate("SWAP", (min(p, q), max(p, q)))


def app_2q_gate(op, pu: int, pv: int) -> Gate:
    """A routed two-qubit operator as an ``APP2Q`` gate on ``(pu, pv)``.

    Shared by the gate-level routers.  A symbolic operator (no matrix
    yet) emits a gate whose unitary is a
    :class:`~repro.quantum.params.SymbolicUnitary` recording the same
    orientation flip the concrete path applies, so a later bind yields
    the bit-identical matrix; a concrete operator built from exponential
    factors carries its decomposition-template key.
    """
    conjugated = pu > pv
    qubits = (min(pu, pv), max(pu, pv))
    meta = {"label": op.label}
    if op.unitary is None:
        return Gate("APP2Q", qubits, meta=meta,
                    symbolic=SymbolicUnitary(op.factors,
                                             conjugate_swap=conjugated))
    matrix = _SWAP @ op.unitary @ _SWAP if conjugated else op.unitary
    if op.factors:
        meta["template"] = factor_template_key(op.factors, conjugated, False)
    return Gate("APP2Q", qubits, matrix=matrix, meta=meta)


def app_1q_gate(op, physical: int) -> Gate:
    """A single-qubit exponential as an ``APP1Q`` gate on ``physical``."""
    if op.unitary is None:
        return Gate("APP1Q", (physical,),
                    symbolic=SymbolicUnitary(op.factors),
                    meta={"label": op.label})
    return Gate("APP1Q", (physical,), matrix=op.unitary,
                meta={"label": op.label})

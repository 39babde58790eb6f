"""Compilation metrics (paper Section IV, "Metrics").

For every compiled benchmark the paper reports: inserted SWAP count,
hardware two-qubit gate count, two-qubit-gate depth, and total depth;
plus *overheads* -- the increase relative to the connectivity-free
("NoMap") baseline circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.quantum.circuit import Circuit


@dataclass(frozen=True)
class CircuitMetrics:
    """Size metrics of one hardware-level circuit."""

    n_two_qubit_gates: int
    two_qubit_depth: int
    total_depth: int
    n_swaps: int = 0
    n_dressed: int = 0

    @classmethod
    def from_circuit(cls, circuit: Circuit, n_swaps: int = 0,
                     n_dressed: int = 0) -> "CircuitMetrics":
        n_two_qubit_gates, total_depth, two_qubit_depth = \
            circuit._layer_metrics()
        return cls(
            n_two_qubit_gates=n_two_qubit_gates,
            two_qubit_depth=two_qubit_depth,
            total_depth=total_depth,
            n_swaps=n_swaps,
            n_dressed=n_dressed,
        )


@dataclass(frozen=True)
class OverheadReport:
    """Overhead of a compiled circuit relative to the NoMap baseline.

    ``gate_overhead`` and ``depth_overhead`` are absolute increases (the
    quantities whose ratios the paper's Tables I/II report).
    """

    compiled: CircuitMetrics
    baseline: CircuitMetrics

    @property
    def gate_overhead(self) -> int:
        return self.compiled.n_two_qubit_gates - self.baseline.n_two_qubit_gates

    @property
    def depth_overhead(self) -> int:
        return self.compiled.two_qubit_depth - self.baseline.two_qubit_depth

    @property
    def total_depth_overhead(self) -> int:
        return self.compiled.total_depth - self.baseline.total_depth

    def gate_ratio(self) -> float:
        return self.compiled.n_two_qubit_gates / max(
            1, self.baseline.n_two_qubit_gates
        )


def overhead_reduction(ours: OverheadReport, other: OverheadReport,
                       quantity: str) -> float:
    """Ratio other-overhead / our-overhead (Tables I/II convention).

    ``quantity`` is ``"gates"`` or ``"depth"``.  When our overhead is
    zero the reduction is infinite; the paper prints '--' in that case,
    we return ``float('inf')``.
    """
    if quantity == "gates":
        ours_val, other_val = ours.gate_overhead, other.gate_overhead
    elif quantity == "depth":
        ours_val, other_val = ours.depth_overhead, other.depth_overhead
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    if ours_val <= 0:
        return float("inf")
    return other_val / ours_val

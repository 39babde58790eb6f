"""Every hardware two-qubit gate names the application gate it lowers.

``decompose_circuit`` returns a
:class:`~repro.quantum.circuit.ColumnarCircuit` whose ``sources``
column holds, per row, the index of the application gate the row came
from: each application gate's rows hold exactly its block's basis-gate
count, single-qubit rows fused across gates hold -1, and the column
never enters ``Gate.meta`` (so outputs stay identical to the scalar
walk's).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis.harness import build_step
from repro.core.decompose import (
    DecomposeCache,
    decompose_circuit,
    decompose_circuit_reference,
)
from repro.core.metrics import CircuitMetrics
from repro.core.registry import get_compiler
from repro.devices.library import by_name
from repro.quantum.circuit import Q1, SOURCE, Circuit, ColumnarCircuit
from repro.quantum.gates import Gate
from repro.synthesis.gateset import get_gateset
from repro.synthesis.templates import TemplateCache

TARGETS = (("montreal", "CNOT"), ("montreal", "CZ"), ("sycamore", "SYC"),
           ("aspen", "ISWAP"))


def _lowered(compiler: str, device: str, gateset: str, benchmark: str):
    app = get_compiler(compiler, device=by_name(device), gateset=gateset,
                       seed=2).compile(build_step(benchmark, 8, 2)
                                       ).app_circuit
    hardware = decompose_circuit(app, get_gateset(gateset),
                                 cache=DecomposeCache(),
                                 templates=TemplateCache())
    return app, hardware


@pytest.mark.parametrize("device,gateset", TARGETS)
@pytest.mark.parametrize("compiler,application",
                         [("tket", "NNN_Heisenberg"), ("2qan", "QAOA-REG-3")])
def test_each_gate_holds_its_blocks_basis_count(compiler, application, device,
                                                gateset):
    app, hardware = _lowered(compiler, device, gateset, application)
    assert isinstance(hardware, ColumnarCircuit)
    rows = hardware.rows
    two = rows[:, Q1] >= 0
    per_gate = np.bincount(rows[two, SOURCE], minlength=len(app.gates))
    basis = get_gateset(gateset)
    for index, gate in enumerate(app.gates):
        if gate.n_qubits == 1:
            assert per_gate[index] == 0
            continue
        block, _ = basis.decompose(gate.unitary(), solve=False)
        assert per_gate[index] == block.n_two_qubit_gates
        # the rows sit on the application gate's qubits
        assert {tuple(sorted(pair)) for pair in
                rows[two & (rows[:, SOURCE] == index), 1:3].tolist()} \
            <= {tuple(sorted(gate.qubits))}
    assert (rows[~two, SOURCE] == -1).all()
    assert all(g.meta == {} for g in hardware.gates)


def test_swap_rows_name_the_swap():
    circuit = Circuit(3, [Gate("H", (0,)), Gate("SWAP", (2, 0)),
                          Gate("CNOT", (1, 2))])
    hardware = decompose_circuit(circuit, get_gateset("CNOT"),
                                 cache=DecomposeCache(),
                                 templates=TemplateCache())
    two = hardware.rows[:, Q1] >= 0
    assert hardware.sources[two].tolist() == [1, 1, 1, 2]


def test_columns_behave_as_the_gate_list():
    """Metrics and pickling read the columns; the gate list they stand
    for is the scalar walk's, and stays so through a pickle round trip."""
    app, hardware = _lowered("tket", "montreal", "CNOT", "NNN_Ising")
    reference = decompose_circuit_reference(
        app, get_gateset("CNOT"), cache=DecomposeCache(),
        templates=TemplateCache())
    columns = CircuitMetrics.from_circuit(hardware)
    copy = pickle.loads(pickle.dumps(hardware))
    assert isinstance(copy, ColumnarCircuit) and copy._gates is None
    assert hardware._gates is None
    assert columns == CircuitMetrics.from_circuit(reference)
    assert copy == reference and hardware == reference
    assert len(hardware) == len(reference.gates)
    assert CircuitMetrics.from_circuit(hardware) == columns
    # once read, the list is the circuit: edits count, pickles keep them
    hardware.append(Gate("CNOT", (0, 1)))
    assert len(hardware) == len(reference.gates) + 1
    assert CircuitMetrics.from_circuit(hardware).n_two_qubit_gates == \
        columns.n_two_qubit_gates + 1
    assert pickle.loads(pickle.dumps(hardware)).gates == hardware.gates

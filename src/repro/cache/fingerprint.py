"""Canonical fingerprints for compilation values.

Every object a pass may consume -- Trotter steps, devices, gate sets,
circuits, routing/scheduling artifacts, the passes themselves -- hashes
to a stable hex digest.  Two objects with the same compilation-relevant
content produce the same fingerprint across processes and sessions, so
fingerprints can key a persistent artifact store.

Matrices are rounded to 12 decimals before hashing, matching the
:class:`~repro.core.decompose.DecomposeCache` convention, so numerically
identical unitaries built along different code paths share a key.

Unknown object types raise ``TypeError`` instead of hashing something
unstable (e.g. a default ``repr`` with a memory address): a wrong cache
key silently serves wrong artifacts, a loud failure does not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import numpy as np

from repro.core.routing import QubitMap
from repro.devices.topology import Device
from repro.hamiltonians.trotter import OneQubitOperator, TwoQubitOperator
from repro.quantum.circuit import Circuit
from repro.quantum.gates import Gate
from repro.synthesis.gateset import GateSet

DIGEST_LEN = 16
_ROUND_DECIMALS = 12


def fingerprint(*values: object) -> str:
    """Stable short hex digest of one or more values."""
    h = hashlib.sha256()
    for value in values:
        _update(h, value)
    return h.hexdigest()[:DIGEST_LEN]


def _tag(h, label: str) -> None:
    h.update(label.encode())
    h.update(b"\x00")


def _update(h, obj: object) -> None:  # noqa: PLR0912 - one dispatch table
    if obj is None:
        _tag(h, "none")
    elif isinstance(obj, (bool, np.bool_)):
        _tag(h, "bool")
        h.update(b"\x01" if obj else b"\x00")
    elif isinstance(obj, (int, np.integer)):
        _tag(h, "int")
        h.update(str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        _tag(h, "float")
        h.update(struct.pack("<d", round(float(obj), _ROUND_DECIMALS)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _tag(h, "complex")
        value = complex(obj)
        h.update(struct.pack("<dd", round(value.real, _ROUND_DECIMALS),
                             round(value.imag, _ROUND_DECIMALS)))
    elif isinstance(obj, str):
        _tag(h, "str")
        h.update(obj.encode())
    elif isinstance(obj, bytes):
        _tag(h, "bytes")
        h.update(obj)
    elif isinstance(obj, np.ndarray):
        _tag(h, "ndarray")
        # round only inexact dtypes: np.round rejects bool arrays and is
        # the identity on integer ones
        rounded = np.ascontiguousarray(
            np.round(obj, _ROUND_DECIMALS) if obj.dtype.kind in "fc" else obj)
        h.update(str(rounded.shape).encode())
        h.update(rounded.dtype.str.encode())
        h.update(rounded.tobytes())
    elif isinstance(obj, (tuple, list)):
        _tag(h, "seq")
        h.update(str(len(obj)).encode())
        for item in obj:
            _update(h, item)
    elif isinstance(obj, (set, frozenset)):
        _tag(h, "set")
        for item in sorted(obj, key=repr):
            _update(h, item)
    elif isinstance(obj, dict):
        _tag(h, "dict")
        for key in sorted(obj, key=repr):
            _update(h, key)
            _update(h, obj[key])
    elif _is_known_class(obj):
        _update_known(h, obj)
    elif dataclasses.is_dataclass(obj):
        _update_dataclass(h, obj)
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__qualname__}: no canonical "
            f"serialization is registered for it"
        )


# ----------------------------------------------------------------------
# Classes with a hand-written canonical form (to skip derived caches or
# non-semantic fields the generic dataclass walk would include).
# ----------------------------------------------------------------------
def _is_known_class(obj: object) -> bool:
    return isinstance(obj, (Device, Circuit, Gate, GateSet, QubitMap,
                            TwoQubitOperator, OneQubitOperator))


def _update_known(h, obj: object) -> None:
    if isinstance(obj, QubitMap):
        # array-backed, not a dataclass: hash the canonical dict view
        _tag(h, "QubitMap")
        _update(h, obj.logical_to_physical)
    elif isinstance(obj, Device):
        # skip the derived _distance/_adjacency caches
        _tag(h, "Device")
        _update(h, obj.name)
        _update(h, obj.n_qubits)
        _update(h, obj.edges)
        _update(h, obj.edge_errors)
        _update(h, obj.edge_weights)
    elif isinstance(obj, Circuit):
        _tag(h, "Circuit")
        _update(h, obj.n_qubits)
        _update(h, len(obj.gates))
        for gate in obj.gates:
            _update(h, gate)
    elif isinstance(obj, Gate):
        # meta is provenance, not semantics (Gate equality ignores it too)
        _tag(h, "Gate")
        _update(h, obj.name)
        _update(h, obj.qubits)
        _update(h, obj.params)
        _update(h, obj.matrix)
        # Only symbolic gates hash their lazily-resolved unitary -- by
        # factor structure and parameter *names*, never values -- so a
        # gate bound up front keeps the exact pre-split byte layout.
        if obj.symbolic is not None:
            _update(h, obj.symbolic)
    elif isinstance(obj, (TwoQubitOperator, OneQubitOperator)):
        # Reproduce the generic dataclass walk of the pre-split classes
        # byte for byte for concrete operators; only symbolic operators
        # (unitary is None) additionally hash their factor structure,
        # whose Param angles contribute parameter names, not values.
        cls = type(obj)
        _tag(h, f"{cls.__module__}.{cls.__qualname__}")
        if isinstance(obj, TwoQubitOperator):
            _update(h, "qubits")
            _update(h, obj.qubits)
        else:
            _update(h, "qubit")
            _update(h, obj.qubit)
        _update(h, "unitary")
        _update(h, obj.unitary)
        _update(h, "label")
        _update(h, obj.label)
        if obj.unitary is None:
            _update(h, "factors")
            _update(h, obj.factors)
    elif isinstance(obj, GateSet):
        _tag(h, "GateSet")
        _update(h, obj.name)
        _update(h, obj.basis_coords)


def _update_dataclass(h, obj: object) -> None:
    """Generic dataclass walk: class identity plus every public field.

    Covers :class:`TrotterStep`, the routing/scheduling artifacts and any
    future dataclass artifact without per-class code; private fields
    (leading underscore, derived caches by convention) are skipped.
    """
    cls = type(obj)
    _tag(h, f"{cls.__module__}.{cls.__qualname__}")
    for field in dataclasses.fields(obj):
        if field.name.startswith("_"):
            continue
        _update(h, field.name)
        _update(h, getattr(obj, field.name))


# ----------------------------------------------------------------------
# Convenience wrappers for the four cache-key ingredients
# ----------------------------------------------------------------------
def fingerprint_step(step) -> str:
    """Fingerprint of a :class:`~repro.hamiltonians.trotter.TrotterStep`."""
    return fingerprint(step)


def fingerprint_device(device) -> str:
    """Fingerprint of a :class:`~repro.devices.topology.Device` (or None)."""
    return fingerprint(device)


def fingerprint_gateset(gateset) -> str:
    """Fingerprint of a :class:`~repro.synthesis.gateset.GateSet` (or None)."""
    return fingerprint(gateset)


def fingerprint_circuit(circuit) -> str:
    """Fingerprint of a :class:`~repro.quantum.circuit.Circuit`.

    Hardware-basis circuits could equally be keyed by their OpenQASM text
    (:func:`repro.quantum.qasm.to_qasm`); hashing the gate list directly
    also covers application-level circuits, whose arbitrary SU(4) blocks
    have no QASM form.
    """
    return fingerprint(circuit)


def fingerprint_pass(stage) -> str:
    """Fingerprint of a pipeline pass: class identity plus configuration.

    Dataclass passes hash their fields; other objects hash their public
    ``vars()``.
    """
    cls = type(stage)
    h = hashlib.sha256()
    _tag(h, f"pass:{cls.__module__}.{cls.__qualname__}")
    if dataclasses.is_dataclass(stage):
        for field in dataclasses.fields(stage):
            if field.name.startswith("_"):
                continue
            _update(h, field.name)
            _update(h, getattr(stage, field.name))
    else:
        for name in sorted(vars(stage)):
            if name.startswith("_"):
                continue
            _update(h, name)
            _update(h, getattr(stage, name))
    return h.hexdigest()[:DIGEST_LEN]

"""The device topologies used in the paper's evaluation.

* :func:`montreal` -- IBMQ Montreal, the exact 27-qubit heavy-hex (Falcon)
  coupling map.
* :func:`sycamore` -- Google Sycamore; modelled as a 54-qubit degree-<=4
  grid (6 x 9).  The real device is a 45-degree-rotated grid with the same
  qubit count and degree; routing cost depends on the graph only through
  shortest-path distances, which agree closely (documented substitution in
  DESIGN.md).
* :func:`aspen` -- Rigetti Aspen, 16 qubits: two octagonal rings bridged
  by two edges, matching the paper's Figure 1(c).
* :func:`manhattan` -- IBMQ Manhattan-like 65-qubit heavy-hex lattice
  (used for the Paulihedral comparison, Table III).
* :func:`grid`, :func:`line`, :func:`all_to_all` -- generic topologies;
  ``grid(2, 3)`` is the worked example of Figure 3, ``all_to_all`` is the
  "NoMap" baseline device.
"""

from __future__ import annotations

import functools

from repro.devices.topology import Device


def grid(rows: int, cols: int) -> Device:
    """Rectangular grid with nearest-neighbour couplings."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    return Device(f"grid-{rows}x{cols}", rows * cols, tuple(edges))


def line(n_qubits: int) -> Device:
    """A 1-D chain."""
    edges = tuple((i, i + 1) for i in range(n_qubits - 1))
    return Device(f"line-{n_qubits}", n_qubits, edges)


def all_to_all(n_qubits: int) -> Device:
    """Fully connected device -- the paper's 'NoMap' baseline."""
    edges = tuple(
        (i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits)
    )
    return Device(f"all-to-all-{n_qubits}", n_qubits, edges)


def sycamore() -> Device:
    """Google Sycamore modelled as a 54-qubit 6x9 grid (see module doc)."""
    base = grid(6, 9)
    return Device("sycamore-54", base.n_qubits, base.edges)


# The standard IBM Falcon (27-qubit heavy-hex) coupling list, shared by
# Montreal / Toronto / Mumbai.
_MONTREAL_EDGES = (
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
    (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
)


def montreal() -> Device:
    """IBMQ Montreal: 27-qubit heavy-hex lattice, CNOT native gate."""
    return Device("montreal-27", 27, _MONTREAL_EDGES)


def aspen() -> Device:
    """Rigetti Aspen: two octagons (0-7 and 8-15) bridged by two edges."""
    ring_a = tuple((i, (i + 1) % 8) for i in range(8))
    ring_b = tuple((8 + i, 8 + (i + 1) % 8) for i in range(8))
    bridges = ((1, 14), (2, 13))
    return Device("aspen-16", 16, ring_a + ring_b + bridges)


def heavy_hex(unit_rows: int, unit_cols: int) -> Device:
    """IBM-style heavy-hex lattice generator.

    Built from ``unit_rows`` horizontal rails of ``unit_cols`` qubits,
    with bridge qubits connecting consecutive rails every second column,
    alternating offset per rail pair -- the hexagon pattern of IBM's
    Falcon/Hummingbird devices.
    """
    rail_len = unit_cols
    qubit = 0
    rails: list[list[int]] = []
    edges: list[tuple[int, int]] = []
    for _ in range(unit_rows):
        rail = list(range(qubit, qubit + rail_len))
        qubit += rail_len
        rails.append(rail)
        edges.extend((rail[i], rail[i + 1]) for i in range(rail_len - 1))
    for r in range(unit_rows - 1):
        offset = 0 if r % 2 == 0 else 2
        for c in range(offset, rail_len, 4):
            bridge = qubit
            qubit += 1
            edges.append((rails[r][c], bridge))
            edges.append((bridge, rails[r + 1][c]))
    return Device(f"heavy-hex-{qubit}", qubit, tuple(edges))


def manhattan() -> Device:
    """IBMQ Manhattan-like 65-qubit heavy-hex device (Table III).

    Five horizontal rails (lengths 10, 11, 11, 11, 10) joined by three
    bridge qubits per rail pair, with the bridge columns alternating
    between offsets 0 and 2 -- the IBM Hummingbird hexagon pattern.
    """
    rail_lengths = (10, 11, 11, 11, 10)
    rails: list[list[int]] = []
    edges: list[tuple[int, int]] = []
    qubit = 0
    for length in rail_lengths:
        rail = list(range(qubit, qubit + length))
        qubit += length
        rails.append(rail)
        edges.extend((rail[i], rail[i + 1]) for i in range(length - 1))
    for r in range(len(rail_lengths) - 1):
        offset = 0 if r % 2 == 0 else 2
        upper, lower = rails[r], rails[r + 1]
        for c in range(offset, len(upper), 4):
            bridge = qubit
            qubit += 1
            edges.append((upper[c], bridge))
            # Clamp for the short corner rail (the device's bottom-right
            # hexagon closes on the rail end).
            edges.append((bridge, lower[min(c, len(lower) - 1)]))
    if qubit != 65:
        raise RuntimeError(f"manhattan construction produced {qubit} qubits")
    return Device("manhattan-65", qubit, tuple(edges))


_BY_NAME = {
    "sycamore": sycamore,
    "montreal": montreal,
    "aspen": aspen,
    "manhattan": manhattan,
}


def by_name(name: str) -> Device:
    """Look up one of the paper's devices by name."""
    try:
        return _BY_NAME[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown device {name!r}; available: {sorted(_BY_NAME)}"
        ) from None


@functools.cache
def _largest_named_device() -> int:
    """Qubits of the largest paper device: the cap on a sized target."""
    return max(factory().n_qubits for factory in _BY_NAME.values())


def target_device(name: str, n_qubits: int,
                  requires_device: bool = True) -> Device:
    """The device a compiler targets for an ``n_qubits``-qubit problem.

    ``all-to-all`` (any case) is sized to the problem, and so is every
    name when the compiler ignores connectivity (``requires_device``
    false: NoMap, Paulihedral), up to the size of the largest paper
    device -- an all-to-all device grows quadratically, so an unbounded
    size would stall the caller before any pass could be cancelled.
    Any other name is a paper device, which must be large enough.  Every
    front end (CLI, batch, server) resolves its target here, so they all
    agree on it.
    """
    if not requires_device or name.lower() == "all-to-all":
        largest = _largest_named_device()
        if n_qubits > largest:
            raise ValueError(f"{n_qubits} qubits exceed the {largest}-qubit "
                             f"cap on sized targets")
        return all_to_all(n_qubits)
    device = by_name(name)
    if n_qubits > device.n_qubits:
        raise ValueError(f"{n_qubits} qubits exceed {device.name}")
    return device

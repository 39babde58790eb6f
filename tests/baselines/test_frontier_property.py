"""The array frontier router against the per-candidate reference loop.

Random connected devices (hop-count and non-integer ``edge_weights``),
random gate lists, lookahead 0, 1, 20 and a window longer than the gate
list, deterministic and stochastic tie-breaks: the kernel must emit the
reference's circuit, SWAP count and maps exactly.
"""

from __future__ import annotations

import numpy as np
from frontier_reference import route_order_respecting_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.order_respecting import _route_order_respecting
from repro.devices.topology import Device
from repro.hamiltonians.trotter import TrotterStep, TwoQubitOperator

_IDENTITY = np.eye(4, dtype=complex)


@st.composite
def devices(draw) -> Device:
    """A connected device: a random spanning tree plus extra edges."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, q - 1)), q) for q in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=n))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    edges = sorted(edges)
    weights = None
    if draw(st.booleans()):
        weights = {edge: draw(st.sampled_from([0.3, 0.7, 1.0, 1.1, 2.5]))
                   for edge in edges}
    return Device("random", n, tuple(edges), edge_weights=weights)


@st.composite
def cases(draw):
    device = draw(devices())
    n_logical = draw(st.integers(2, device.n_qubits))
    initial = np.array(draw(st.permutations(range(device.n_qubits)))
                       [:n_logical])
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_logical - 1),
                  st.integers(0, n_logical - 1)).filter(lambda p: p[0] != p[1]),
        max_size=24))
    step = TrotterStep(n_logical, [
        TwoQubitOperator((min(u, v), max(u, v)), _IDENTITY, label=f"g{i}")
        for i, (u, v) in enumerate(pairs)])
    lookahead = draw(st.sampled_from([0, 1, 20, len(pairs) + 5]))
    return step, device, initial, lookahead


def _run(router, step, device, initial, **options):
    try:
        circuit, n_swaps, initial_map, final_map = router(
            step, device, initial, **options)
    except RuntimeError as exc:  # the convergence guard
        return str(exc)
    gates = [(g.name, g.qubits, g.meta.get("label")) for g in circuit]
    return (gates, n_swaps, initial_map.logical_to_physical,
            final_map.logical_to_physical)


@settings(max_examples=300, deadline=None)
@given(case=cases(), stochastic=st.booleans(), seed=st.integers(0, 2**16))
def test_kernel_matches_reference(case, stochastic, seed):
    step, device, initial, lookahead = case
    options = dict(lookahead=lookahead, stochastic=stochastic, seed=seed)
    got = _run(_route_order_respecting, step, device, initial, **options)
    assert got == _run(route_order_respecting_reference, step, device,
                       initial, **options)
    if isinstance(got, str):
        return
    # order respected: a gate runs after every earlier gate on its qubits
    pairs = step.pairs()
    executed = [int(label[1:]) for name, _, label in got[0]
                if name == "APP2Q"]
    assert sorted(executed) == list(range(len(pairs)))
    for position, index in enumerate(executed):
        assert all(set(pairs[later]).isdisjoint(pairs[index])
                   for later in executed[:position] if later > index)

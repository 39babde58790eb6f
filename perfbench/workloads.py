"""Seeded request generation for the three benchmark workloads.

Every request list is a pure function of the workload seed: the seed
draws each request's ``seed`` (problem instance and compile seed at
once), the angle values of parameterised requests, and the request
order.  Sweep requests get a seed each, so no two share a mapping search
and every 2QAN-family request (~30% of the list) pays its Tabu search.
The program under test only ever sees the generated ``CompileRequest``
objects.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from dataclasses import dataclass

from repro.service.batch import CompileRequest

#: Seed used when ``--seed`` is omitted (tuning and day-to-day runs).
DEFAULT_SEED = 1
#: Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 7919

APPLICATIONS = ("NNN_Heisenberg", "NNN_XY", "NNN_Ising", "QAOA-REG-3")

#: The paper's Figs. 7-9 targets: device, its native gate set, and one
#: problem size per application (n=16-34; aspen holds only 16 qubits,
#: montreal 27; QAOA-REG-3 needs an even size).
COLD_CELLS = (
    ("sycamore", "SYC", {"NNN_Heisenberg": 34, "NNN_XY": 28,
                         "NNN_Ising": 24, "QAOA-REG-3": 30}),
    ("montreal", "CNOT", {"NNN_Heisenberg": 20, "NNN_XY": 24,
                          "NNN_Ising": 26, "QAOA-REG-3": 22}),
    ("aspen", "ISWAP", {"NNN_Heisenberg": 16, "NNN_XY": 16,
                        "NNN_Ising": 16, "QAOA-REG-3": 16}),
)

#: Instances per (cell, compiler): more instances average out how much
#: one seed's draws cost, which keeps percentiles steady across seeds.
SWEEP_INSTANCES = 2

#: Every registry compiler; ``ic_qaoa`` only accepts commuting problems.
COMPILERS = ("2qan", "2qan_nodress", "tket", "qiskit", "ic_qaoa", "nomap",
             "paulihedral")
TWOQAN_FAMILY = frozenset({"2qan", "2qan_nodress"})
_IC_QAOA_APPS = frozenset({"NNN_Ising", "QAOA-REG-3"})

#: Parameterised structures served over HTTP: QAOA (gamma/beta) and
#: Heisenberg (t) on the three gate sets, for 2QAN and one baseline.
BIND_TARGETS = (("sycamore", "SYC", 24), ("montreal", "CNOT", 20),
                ("aspen", "ISWAP", 16))
BIND_APPS = ("QAOA-REG-3", "NNN_Heisenberg")
BIND_COMPILERS = ("2qan", "tket")
BIND_INSTANCES = 2
#: One bind request in this many revisits an earlier angle set.
REVISIT_EVERY = 4


@dataclass(frozen=True)
class Probe:
    """A request checked against an oracle that is not the compiler.

    ``dense`` probes are small enough (n <= 6, device sized to the
    problem) for a full unitary comparison; ``golden`` names the
    ``tests/core/golden_metrics.json`` entry the response must equal.
    """

    request: CompileRequest
    dense: bool = False
    golden: str | None = None


def _applies(compiler: str, benchmark: str) -> bool:
    return compiler != "ic_qaoa" or benchmark in _IC_QAOA_APPS


def angles_for(benchmark: str, rng: random.Random) -> dict[str, float]:
    """A fresh angle set for a parameterised benchmark."""
    if benchmark.startswith("QAOA"):
        return {"gamma": rng.uniform(-math.pi, math.pi),
                "beta": rng.uniform(-math.pi / 2, math.pi / 2)}
    return {"t": rng.uniform(0.05, 2.0)}


def _params(binding: dict[str, float]) -> tuple[tuple[str, float], ...]:
    return tuple(sorted(binding.items()))


def probes(seed: int, parameterised: bool) -> list[Probe]:
    """One dense n=6 probe and two golden-metric probes.

    Golden entries are montreal/CNOT n=8 compiles with instance seeds
    0-2; a parameterised probe binds the angles ``build_step`` bakes in,
    which is bit-identical to the concrete compile the goldens pin.
    """
    rng = random.Random(f"probes-{seed}")
    golden_seed = rng.randrange(3)
    dense_binding = {"t": rng.uniform(0.05, 2.0)}
    ising = CompileRequest(compiler="2qan", benchmark="NNN_Ising",
                           n_qubits=8, device="montreal", gateset="CNOT",
                           seed=golden_seed)
    qaoa = CompileRequest(compiler="tket", benchmark="QAOA-REG-3",
                          n_qubits=8, device="montreal", gateset="CNOT",
                          seed=golden_seed)
    dense = CompileRequest(compiler="2qan", benchmark="NNN_Heisenberg",
                           n_qubits=6, device="all-to-all", gateset="CNOT",
                           seed=rng.randrange(1000))
    if parameterised:
        ising = _with(ising, {"t": 1.0})
        qaoa = _with(qaoa, {"gamma": 0.35, "beta": -0.39})
        dense = _with(dense, dense_binding)
    return [
        Probe(dense, dense=True),
        Probe(ising, golden=f"NNN_Ising|n8|s{golden_seed}|2qan"),
        Probe(qaoa, golden=f"QAOA-REG-3|n8|s{golden_seed}|tket"),
    ]


def _with(request: CompileRequest, binding: dict[str, float]) -> CompileRequest:
    return dataclasses.replace(request, parameters=_params(binding))


def sweep_requests(seed: int, instances: int = SWEEP_INSTANCES,
                   ) -> list[CompileRequest]:
    """The cold-sweep request list (one pass), shuffled.

    Instance groups draw their seeds in order, so the list for fewer
    ``instances`` holds the same requests as the first groups of a
    longer one (warm-replay serves the first group only).
    """
    rng = random.Random(f"sweep-{seed}")
    requests = [
        CompileRequest(compiler=compiler, benchmark=benchmark,
                       n_qubits=sizes[benchmark], device=device,
                       gateset=gateset, seed=rng.randrange(10_000))
        for _ in range(instances)
        for device, gateset, sizes in COLD_CELLS
        for benchmark in APPLICATIONS
        for compiler in COMPILERS if _applies(compiler, benchmark)]
    requests.extend(probe.request for probe in probes(seed, False))
    rng.shuffle(requests)
    return requests


def warmup_requests() -> list[CompileRequest]:
    """Small requests that pay first-call costs before timing starts."""
    return [CompileRequest(compiler=compiler, benchmark="NNN_Ising",
                           n_qubits=8, device=device, gateset=gateset,
                           seed=99)
            for device, gateset, _ in COLD_CELLS for compiler in COMPILERS]


def bind_structures(seed: int) -> list[CompileRequest]:
    """One angle-free request per served structure (probes excluded)."""
    rng = random.Random(f"bind-{seed}")
    return [CompileRequest(compiler=compiler, benchmark=benchmark,
                           n_qubits=n, device=device, gateset=gateset,
                           seed=rng.randrange(10_000))
            for _ in range(BIND_INSTANCES)
            for device, gateset, n in BIND_TARGETS
            for benchmark in BIND_APPS
            for compiler in BIND_COMPILERS]


def bind_stream(seed: int):
    """Endless parameterised request stream for ``bind-http``.

    The first three requests are the probes.  Afterwards every
    ``REVISIT_EVERY``-th request repeats an earlier request exactly; the
    others bind fresh angles into the structures in turn, each round in
    a new seeded order, so every structure carries the same share of
    the traffic whatever the seed.
    """
    structures = bind_structures(seed)
    rng = random.Random(f"bind-stream-{seed}")
    history: list[CompileRequest] = []
    round_: list[CompileRequest] = []
    for probe in probes(seed, True):
        yield probe.request
    for index in itertools.count(1):
        if index % REVISIT_EVERY == 0:
            yield history[rng.randrange(len(history))]
            continue
        if not round_:
            round_ = rng.sample(structures, len(structures))
        base = round_.pop()
        request = _with(base, angles_for(base.benchmark, rng))
        history.append(request)
        yield request


def bind_warmups(seed: int) -> list[CompileRequest]:
    """One request per structure (and probe structure), with throwaway
    angles: the server compiles every structural prefix during set-up."""
    rng = random.Random(f"bind-warmup-{seed}")
    bases = bind_structures(seed) + [probe.request
                                     for probe in probes(seed, False)]
    return [_with(base, angles_for(base.benchmark, rng)) for base in bases]

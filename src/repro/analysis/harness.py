"""The sweep harness shared by every figure/table benchmark.

One :class:`SweepConfig` describes a paper experiment: benchmark family,
device, gate set, problem sizes, compilers.  :func:`run_sweep` produces
:class:`BenchmarkRow` records -- exactly the series plotted in Figures
7-9/11-13 (SWAP count, hardware two-qubit gate count, two-qubit depth,
plus the dressed-SWAP count and the NoMap baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.core.decompose import DecomposeCache
from repro.core.registry import get_compiler
from repro.devices.topology import Device
from repro.hamiltonians.models import MODEL_BUILDERS
from repro.hamiltonians.qaoa import random_regular_graph, QAOAProblem
from repro.hamiltonians.trotter import TrotterStep, trotter_step
from repro.quantum.params import Param

DEFAULT_COMPILERS = ("2qan", "tket", "qiskit")


@dataclass(frozen=True)
class BenchmarkRow:
    """One (benchmark, size, instance, compiler) measurement.

    ``timings`` carries the compiler's per-pass wall times (one entry
    per executed pipeline pass), so sweep reports can show where compile
    time goes; like ``seconds`` it is informational, not deterministic.
    ``cache_stats`` carries the task's cache counters (decomposition
    memo hits/misses, and artifact-cache hits/misses when the sweep
    runs with one) -- informational too.
    """

    benchmark: str
    device: str
    gateset: str
    n_qubits: int
    instance: int
    compiler: str
    n_swaps: int
    n_dressed: int
    n_two_qubit_gates: int
    two_qubit_depth: int
    total_depth: int
    seconds: float
    timings: dict[str, float] = field(default_factory=dict, compare=False)
    cache_stats: dict[str, int] = field(default_factory=dict, compare=False)


@dataclass
class SweepConfig:
    """One experiment sweep (a paper figure panel row)."""

    benchmark: str                      # NNN_Ising | NNN_XY | NNN_Heisenberg | QAOA-REG-k
    device: Device
    gateset: str
    sizes: tuple[int, ...]
    compilers: tuple[str, ...] = DEFAULT_COMPILERS
    instances: int = 1                  # >1 only for QAOA (random graphs)
    seed: int = 0
    qaoa_degree: int = 3


#: Default sweep angles for the QAOA families (see build_step).
_SWEEP_ANGLES = ((0.35,), (-0.39,))


def _benchmark_graph(benchmark: str, n_qubits: int, instance_seed: int,
                     degree: int):
    """The random graph behind a QAOA-family benchmark name, or None.

    Also the size gate of :func:`build_step`/:func:`build_symbolic_step`:
    every benchmark needs at least one two-qubit term, so sizes below 2
    (and regular graphs networkx cannot build) raise ``ValueError``.
    """
    if n_qubits < 2:
        raise ValueError(
            f"{benchmark} needs at least 2 qubits, got {n_qubits}"
        )
    try:
        if benchmark.startswith("QAOA-REG"):
            return random_regular_graph(degree, n_qubits,
                                        seed=instance_seed)
        if benchmark.startswith("QAOA-WR"):
            from repro.hamiltonians.randomized import weighted_regular_graph

            return weighted_regular_graph(degree, n_qubits,
                                          seed=instance_seed)
        if benchmark == "QAOA-ER":
            from repro.hamiltonians.randomized import (
                weighted_erdos_renyi_graph,
            )

            return weighted_erdos_renyi_graph(n_qubits, seed=instance_seed)
    except nx.NetworkXError as exc:
        raise ValueError(
            f"no {benchmark} instance on {n_qubits} qubits: {exc}"
        ) from None
    return None


def build_step(benchmark: str, n_qubits: int, instance_seed: int,
               degree: int = 3) -> TrotterStep:
    """Instantiate one benchmark problem as a Trotter step."""
    graph = _benchmark_graph(benchmark, n_qubits, instance_seed, degree)
    if graph is not None:
        # Compilation metrics are angle-independent; fixed angles keep the
        # sweep fast.  (Fidelity experiments pick optimal angles.)
        problem = QAOAProblem(graph, *_SWEEP_ANGLES)
        return problem.layer_step(0)
    try:
        builder = MODEL_BUILDERS[benchmark]
    except KeyError:
        raise ValueError(f"unknown benchmark {benchmark!r}") from None
    return trotter_step(builder(n_qubits, seed=instance_seed))


def build_symbolic_step(benchmark: str, n_qubits: int, instance_seed: int,
                        degree: int = 3) -> TrotterStep:
    """The symbolic (structure-only) form of a benchmark problem.

    QAOA families carry ``gamma``/``beta`` placeholders, Hamiltonian
    models a ``t`` placeholder; binding
    :func:`default_binding` reproduces :func:`build_step`'s concrete
    step bit-for-bit (the service and CLI fast paths rely on that).
    """
    graph = _benchmark_graph(benchmark, n_qubits, instance_seed, degree)
    if graph is not None:
        problem = QAOAProblem(graph, (Param("gamma"),), (Param("beta"),))
        return problem.layer_step(0)
    try:
        builder = MODEL_BUILDERS[benchmark]
    except KeyError:
        raise ValueError(f"unknown benchmark {benchmark!r}") from None
    return trotter_step(builder(n_qubits, seed=instance_seed), t=Param("t"))


@dataclass(frozen=True)
class ProblemRecipe:
    """The plain values a benchmark problem is built from.

    ``build()`` runs :func:`build_step` (or :func:`build_symbolic_step`
    when ``symbolic``).  Handed to
    :func:`repro.cache.cached.compile_cached` in place of a step, a
    recipe lets a warm compile skip building and hashing the problem:
    the artifact cache remembers the content fingerprint each recipe's
    step had.
    """

    benchmark: str
    n_qubits: int
    seed: int
    qaoa_degree: int = 3
    symbolic: bool = False

    def build(self) -> TrotterStep:
        builder = build_symbolic_step if self.symbolic else build_step
        return builder(self.benchmark, self.n_qubits, self.seed,
                       self.qaoa_degree)


def default_binding(benchmark: str) -> dict[str, float]:
    """The angle values :func:`build_step` bakes into a benchmark."""
    if benchmark.startswith("QAOA"):
        (gamma,), (beta,) = _SWEEP_ANGLES
        return {"gamma": gamma, "beta": beta}
    return {"t": 1.0}


def compile_with(name: str, step: TrotterStep, device: Device,
                 gateset: str, seed: int, cache: DecomposeCache,
                 artifacts=None):
    """Dispatch one compiler by registry name; returns the result.

    With ``artifacts`` (a :class:`repro.cache.ArtifactCache`) the
    pipeline runs cache-aware: stages whose output is already stored are
    skipped, with identical metrics either way.
    """
    compiler = get_compiler(name, device=device, gateset=gateset, seed=seed,
                            cache=cache)
    if artifacts is not None:
        from repro.cache.cached import compile_cached

        return compile_cached(compiler, step, artifacts)
    return compiler.compile(step)


def run_sweep(config: SweepConfig, jobs: int = 1, store=None,
              artifact_cache=None) -> list[BenchmarkRow]:
    """Run all (size, instance, compiler) combinations of a sweep.

    Delegates to :func:`repro.analysis.engine.run_engine`; ``jobs > 1``
    fans tasks out over a process pool and ``store`` (a
    :class:`~repro.analysis.store.ResultStore`) makes the sweep
    resumable.  The defaults preserve the historical serial metrics and
    row order exactly; only ``seconds`` differs, because each compiler
    now gets its own decomposition cache (the timing-fairness fix)
    instead of sharing one warmed by whichever compiler ran first.
    """
    from repro.analysis.engine import run_engine

    return run_engine(config, jobs=jobs, store=store,
                      artifact_cache=artifact_cache)


class AmbiguousRowsError(ValueError):
    """Rows from unrelated sweeps would have been silently averaged."""


def _check_homogeneous(selected: list[BenchmarkRow], benchmark: str | None,
                       device: str | None, gateset: str | None) -> None:
    for name, wanted in (("benchmark", benchmark), ("device", device),
                         ("gateset", gateset)):
        if wanted is not None:
            continue
        distinct = {getattr(r, name) for r in selected}
        if len(distinct) > 1:
            raise AmbiguousRowsError(
                f"rows mix several {name}s {sorted(distinct)}; pass "
                f"{name}=... to select one instead of averaging them"
            )


def aggregate(rows: list[BenchmarkRow], compiler: str, n_qubits: int,
              attribute: str, *, benchmark: str | None = None,
              device: str | None = None, gateset: str | None = None) -> float:
    """Mean of one metric over instances.

    Rows are selected by ``compiler`` and ``n_qubits`` plus any of the
    optional ``benchmark``/``device``/``gateset`` filters.  If a filter
    is omitted and the selected rows disagree on that field, the call
    raises :class:`AmbiguousRowsError` rather than silently averaging
    measurements from unrelated sweeps.
    """
    selected = [
        r for r in rows
        if r.compiler == compiler and r.n_qubits == n_qubits
        and (benchmark is None or r.benchmark == benchmark)
        and (device is None or r.device == device)
        and (gateset is None or r.gateset == gateset)
    ]
    if not selected:
        raise ValueError(f"no rows for {compiler} at n={n_qubits}")
    _check_homogeneous(selected, benchmark, device, gateset)
    return float(np.mean([getattr(r, attribute) for r in selected]))


def format_rows(rows: list[BenchmarkRow], attribute: str,
                compilers: tuple[str, ...] | None = None, *,
                benchmark: str | None = None, device: str | None = None,
                gateset: str | None = None) -> str:
    """Figure-style text table: one line per size, one column per compiler.

    The same mixed-sweep guard as :func:`aggregate` applies: tabulating
    rows that span several benchmarks/devices/gatesets without an
    explicit filter raises :class:`AmbiguousRowsError`.
    """
    if not rows:
        return "(no data)"
    if compilers is None:
        compilers = tuple(dict.fromkeys(r.compiler for r in rows))
    sizes = sorted({r.n_qubits for r in rows})
    header = "  n  " + "".join(f"{c:>12s}" for c in compilers)
    lines = [header]
    for n in sizes:
        cells = []
        for compiler in compilers:
            try:
                value = aggregate(rows, compiler, n, attribute,
                                  benchmark=benchmark, device=device,
                                  gateset=gateset)
                cells.append(f"{value:12.1f}")
            except AmbiguousRowsError:
                raise
            except ValueError:
                cells.append(f"{'-':>12s}")
        lines.append(f"{n:4d} " + "".join(cells))
    return "\n".join(lines)


def _format_per_compiler_table(rows: list[BenchmarkRow],
                               compilers: tuple[str, ...] | None,
                               record: str, label: str, label_width: int,
                               reduce_fn, empty: str) -> str:
    """Shared scaffolding for the per-pass/per-counter report tables.

    ``record`` names the per-row dict attribute (``timings`` or
    ``cache_stats``); one line per key of that dict (first-seen order),
    one column per compiler, cells reduced by ``reduce_fn`` over the
    rows that recorded the key ('-' where none did).
    """
    if not rows:
        return "(no data)"
    if compilers is None:
        compilers = tuple(dict.fromkeys(r.compiler for r in rows))
    names = list(dict.fromkeys(
        name for r in rows for name in getattr(r, record)
    ))
    if not names:
        return empty
    header = f"{label:{label_width}s}" + "".join(f"{c:>12s}"
                                                for c in compilers)
    lines = [header]
    for name in names:
        cells = []
        for compiler in compilers:
            values = [getattr(r, record)[name] for r in rows
                      if r.compiler == compiler
                      and name in getattr(r, record)]
            cells.append(reduce_fn(values) if values else f"{'-':>12s}")
        lines.append(f"{name:{label_width}s}" + "".join(cells))
    return "\n".join(lines)


def format_pass_timings(rows: list[BenchmarkRow],
                        compilers: tuple[str, ...] | None = None) -> str:
    """Where compile time goes: mean per-pass seconds per compiler.

    One line per pipeline pass (in first-seen order), one column per
    compiler; compilers whose pipeline lacks a pass show '-'.  Timings
    are informational (wall time under whatever load the sweep ran
    with), so no mixed-sweep guard applies.  Means come from the same
    :func:`repro.analysis.engine.aggregate_pass_timings` fold the
    compile server's ``/metrics`` endpoint exports.
    """
    from repro.analysis.engine import mean_pass_timings

    if not rows:
        return "(no data)"
    if compilers is None:
        compilers = tuple(dict.fromkeys(r.compiler for r in rows))
    names = list(dict.fromkeys(name for r in rows for name in r.timings))
    if not names:
        return "(no pass timings recorded)"
    means = {compiler: mean_pass_timings(r.timings for r in rows
                                         if r.compiler == compiler)
             for compiler in compilers}
    header = f"{'pass':14s}" + "".join(f"{c:>12s}" for c in compilers)
    lines = [header]
    for name in names:
        cells = [(f"{means[compiler][name]:12.3f}"
                  if name in means[compiler] else f"{'-':>12s}")
                 for compiler in compilers]
        lines.append(f"{name:14s}" + "".join(cells))
    return "\n".join(lines)


def format_cache_stats(rows: list[BenchmarkRow],
                       compilers: tuple[str, ...] | None = None) -> str:
    """Cache effectiveness: per-compiler totals of each cache counter.

    One line per counter (decomposition memo and artifact cache
    hits/misses, in first-seen order), one column per compiler, summed
    over the rows that recorded the counter.  Informational, like the
    pass timings.
    """
    return _format_per_compiler_table(
        rows, compilers, "cache_stats", "counter", 18,
        lambda values: f"{sum(values):12d}",
        empty="(no cache counters recorded)",
    )

"""Quickstart: compile a Heisenberg-model Trotter step onto IBMQ Montreal.

Also shows the pass-pipeline API: every compiler here is a
``PassPipeline`` of small stages (unify -> mapping -> routing ->
scheduling -> decomposition, the paper's Figure 2), and an experiment
that would once have needed a fork is now a pass swap.

Run with ``python examples/quickstart.py``.
"""

import numpy as np

from repro import TwoQANCompiler, nnn_heisenberg, trotter_step
from repro.baselines import compile_nomap, compile_tket_like
from repro.core.pipeline import run_pipeline
from repro.devices import montreal
from repro.mapping.qap import qap_from_problem


class TrivialMapPass:
    """A custom mapping stage: logical qubit i on physical qubit i.

    Any object with a ``name`` and ``run(ctx) -> ctx`` is a pass; this
    one replaces 2QAN's Tabu search to show how much the placement
    stage matters.
    """

    name = "mapping"

    def run(self, ctx):
        instance = qap_from_problem(ctx.working, ctx.device)
        ctx.assignment = np.arange(ctx.working.n_qubits)
        ctx.qap_cost = float(instance.cost(ctx.assignment))
        return ctx


def main() -> None:
    # One Trotter step of the 10-qubit NNN Heisenberg model (17 qubit
    # pairs x 3 Pauli terms each, coefficients sampled in (0, pi)).
    hamiltonian = nnn_heisenberg(10, seed=0)
    step = trotter_step(hamiltonian)
    print(f"Hamiltonian: {hamiltonian}")
    print(f"Two-qubit operators before unifying: {len(step.two_qubit_ops)}")

    device = montreal()
    print(f"Target device: {device}")

    compiler = TwoQANCompiler(device=device, gateset="CNOT", seed=1)
    result = compiler.compile(step)

    print("\n--- 2QAN result ---")
    print(f"inserted SWAPs:     {result.n_swaps} "
          f"({result.n_dressed} dressed into circuit gates)")
    print(f"hardware CNOTs:     {result.metrics.n_two_qubit_gates}")
    print(f"two-qubit depth:    {result.metrics.two_qubit_depth}")
    print(f"total depth:        {result.metrics.total_depth}")
    print(f"QAP mapping cost:   {result.qap_cost:.0f}")
    print("pass timings:       " + ", ".join(
        f"{k}={v * 1000:.0f}ms" for k, v in result.timings.items()))

    # Context: the connectivity-free lower bound and a generic compiler.
    nomap = compile_nomap(step, "CNOT")
    tket = compile_tket_like(step, device, "CNOT", seed=1)
    print("\n--- context ---")
    print(f"NoMap (all-to-all) CNOTs:  {nomap.metrics.n_two_qubit_gates}")
    print(f"t|ket>-like CNOTs:         {tket.metrics.n_two_qubit_gates} "
          f"({tket.n_swaps} swaps, none dressed)")
    overhead_ours = (result.metrics.n_two_qubit_gates
                     - nomap.metrics.n_two_qubit_gates)
    overhead_generic = (tket.metrics.n_two_qubit_gates
                        - nomap.metrics.n_two_qubit_gates)
    print(f"CNOT overhead: 2QAN +{overhead_ours}, generic +{overhead_generic}")

    # --- pass-pipeline surgery -------------------------------------
    # Swap the Tabu-search mapping stage for the trivial identity
    # placement defined above; every other stage stays the paper's.
    custom = compiler.build_pipeline().replaced("mapping", TrivialMapPass())
    swapped = run_pipeline(custom, step, gateset="CNOT", device=device,
                           seed=1)
    print("\n--- custom pipeline (trivial placement) ---")
    print(f"pipeline stages:    {' -> '.join(custom.names())}")
    print(f"inserted SWAPs:     {swapped.n_swaps} "
          f"(vs {result.n_swaps} with Tabu placement)")
    print(f"hardware CNOTs:     {swapped.metrics.n_two_qubit_gates} "
          f"(vs {result.metrics.n_two_qubit_gates})")

    # --- batch serving through the compilation cache ---------------
    # A BatchCompiler serves CompileRequest lists: duplicate requests
    # compile once, and all requests share one content-addressed
    # artifact cache, so e.g. tket reuses 2qan's Unify artifact and a
    # repeated batch replays entirely from the store.  (On the command
    # line: python -m repro batch --requests FILE.json --cache DIR.)
    from repro.service import BatchCompiler, CompileRequest

    service = BatchCompiler()            # in-memory cache; pass
    requests = [                         # cache_dir=... to persist
        CompileRequest(compiler="2qan", benchmark="NNN_Heisenberg",
                       n_qubits=10, device="montreal", seed=1),
        CompileRequest(compiler="tket", benchmark="NNN_Heisenberg",
                       n_qubits=10, device="montreal", seed=1),
        CompileRequest(compiler="2qan", benchmark="NNN_Heisenberg",
                       n_qubits=10, device="montreal", seed=1),  # repeat
    ]
    responses, summary = service.run(requests)
    print("\n--- batch compilation service ---")
    print(summary.line())
    for response in responses:
        note = " (deduplicated)" if response.deduplicated else ""
        print(f"{response.request.compiler}: "
              f"2q-gates={response.n_two_qubit_gates}{note}")
    # serving the same batch again is pure cache replay
    _, again = service.run(requests)
    print(f"served again: {again.artifact_hits} artifact hits, "
          f"{again.artifact_misses} misses")

    # When a custom pass graduates into the tree, declare its context
    # reads/writes (see the built-in passes): a cached run rejects any
    # access outside them on every miss.  ``python -m repro lint`` then
    # checks fingerprint coverage, the metrics schema, compile-path
    # determinism and async hygiene -- the contracts the cache and the
    # golden tests rely on.


if __name__ == "__main__":
    main()

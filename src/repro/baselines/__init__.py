"""Baseline compilers the paper compares against.

None of the real tools (Qiskit 0.26, t|ket> 0.11, the IC-QAOA compiler,
Paulihedral) are available offline, so this package provides faithful
stand-ins (substitutions documented in DESIGN.md):

* :mod:`repro.baselines.order_respecting` -- generic gate-level compilers
  that honour the input gate order (reordering only trivially-disjoint
  gates): a lookahead frontier router ("tket-like") and a no-lookahead
  stochastic router ("qiskit-like").
* :mod:`repro.baselines.qaoa_ic` -- an IC-QAOA-style compiler that
  exploits the full commutativity of ZZ cost layers (instruction-gain
  SWAP selection) but performs no SWAP dressing.
* :mod:`repro.baselines.nomap` -- the connectivity-free "NoMap" baseline
  against which all overheads are measured.

Every baseline runs on the :mod:`repro.core.pipeline` substrate and
returns a :class:`repro.core.pipeline.CompilationResult`.  All
baselines are also reachable by name through :func:`repro.core.registry.get_compiler`.
"""

from repro.baselines.nomap import NoMapCompiler, compile_nomap
from repro.baselines.order_respecting import (
    QiskitLikeCompiler,
    TketLikeCompiler,
    compile_qiskit_like,
    compile_tket_like,
)
from repro.baselines.paulihedral_like import (
    PaulihedralLikeCompiler,
    compile_paulihedral_like,
)
from repro.baselines.qaoa_ic import ICQAOACompiler, compile_ic_qaoa

__all__ = [
    "NoMapCompiler",
    "TketLikeCompiler",
    "QiskitLikeCompiler",
    "ICQAOACompiler",
    "PaulihedralLikeCompiler",
    "compile_nomap",
    "compile_qiskit_like",
    "compile_tket_like",
    "compile_ic_qaoa",
    "compile_paulihedral_like",
]


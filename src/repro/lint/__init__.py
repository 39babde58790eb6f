"""Static contract checkers for the reproduction's domain invariants.

``python -m repro lint`` runs four AST-based checkers over the tree:

* **RPR002 fingerprint-coverage** -- every type reachable from the
  compilation context is fingerprintable (cache invalidation);
* **RPR003 metrics-schema** -- every service counter exists in
  ``COUNTER_NAMES`` and the operator docs;
* **RPR004 determinism** -- no unseeded RNGs or wall-clock values on
  the compile path (bit-identity);
* **RPR005 async-hygiene** -- no blocking calls on the service event
  loop, no ``await`` under a ``threading.Lock``.

Pure stdlib ``ast``; no third-party analysis dependencies.  Pass
``reads``/``writes`` declarations need no checker: ``CachedPass`` runs
every cache miss on a scoped view of the context that rejects any
access outside them (:mod:`repro.cache.cached`).
"""

from repro.lint.framework import (
    Checker,
    Finding,
    Module,
    Project,
    all_checkers,
    register_checker,
    run_lint,
)

__all__ = [
    "Checker",
    "Finding",
    "Module",
    "Project",
    "all_checkers",
    "register_checker",
    "run_lint",
]

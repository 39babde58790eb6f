"""Compilation artifact cache.

Compilation artifacts -- the values passes leave on a
:class:`~repro.core.pipeline.CompilationContext` -- become first-class,
addressable objects: every input (problem, device, gate set, pass
configuration) has a stable content fingerprint, and a pass's output is
stored under its pass fingerprint plus the ids of the fields it reads,
so repeated and batched compilations replay stored artifacts instead of
recomputing them.  Inputs are identified by content, artifacts by
derivation (the key of the pass that wrote them), so a warm compile
never re-hashes a circuit; derivation keys are only ever finer than
content keys, never coarser.

* :mod:`repro.cache.fingerprint` -- canonical content hashing for every
  compilation value (steps, devices, gate sets, circuits, passes).
* :mod:`repro.cache.store` -- the artifact stores: an in-memory LRU
  layer and an append-only disk layer safe under concurrent processes,
  combined by :class:`ArtifactCache`, which also holds the problem
  index (problem recipe -> step content fingerprint).
* :mod:`repro.cache.cached` -- :class:`CachedPass` /
  :class:`CachedPipeline`, the wrappers that consult the cache before
  executing a pass, plus :func:`compile_cached`, which accepts a step
  or a problem recipe.
"""

from repro.cache.cached import (
    CachedPass,
    CachedPipeline,
    UndeclaredContextReadError,
    compile_cached,
)
from repro.cache.fingerprint import (
    fingerprint,
    fingerprint_circuit,
    fingerprint_device,
    fingerprint_gateset,
    fingerprint_pass,
    fingerprint_step,
)
from repro.cache.store import ArtifactCache, DiskArtifactStore, MemoryArtifactStore

__all__ = [
    "ArtifactCache",
    "CachedPass",
    "CachedPipeline",
    "DiskArtifactStore",
    "MemoryArtifactStore",
    "UndeclaredContextReadError",
    "compile_cached",
    "fingerprint",
    "fingerprint_circuit",
    "fingerprint_device",
    "fingerprint_gateset",
    "fingerprint_pass",
    "fingerprint_step",
]

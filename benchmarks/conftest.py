"""Shared configuration for the figure/table benchmarks.

Each benchmark regenerates one paper artefact (figure panel series or
table) and prints it; run with ``pytest benchmarks/ --benchmark-only -s``
to see the output, or read the files written under ``benchmarks/results``.

By default the sweeps use reduced problem-size grids so the whole suite
finishes in minutes; set ``REPRO_FULL=1`` for the paper's full ranges
(qubit counts up to 50 and 10 QAOA instances per size -- expect a long
run, the paper itself reports Tabu times of ~15 min at n = 50).

Sweeps run on the parallel engine: ``REPRO_JOBS`` sets the worker count
(default: all cores) and completed rows persist under
``benchmarks/results/store`` so an interrupted suite resumes instead of
recomputing; set ``REPRO_STORE=0`` to force fresh measurements.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.engine import default_jobs, open_store, run_engine
from repro.analysis.harness import BenchmarkRow, SweepConfig
from repro.analysis.store import source_digest

FULL = os.environ.get("REPRO_FULL", "0") == "1"

RESULTS_DIR = Path(__file__).parent / "results"


def _env_jobs() -> int:
    try:
        return int(os.environ.get("REPRO_JOBS", "0")) or default_jobs()
    except ValueError:
        return default_jobs()


JOBS = _env_jobs()
USE_STORE = os.environ.get("REPRO_STORE", "1") == "1"
STORE_ROOT = RESULTS_DIR / "store"


# Stored rows die with the code: sweeps persist under a subdirectory
# named by a digest of the src/repro sources, so any source edit starts
# a fresh cache and stale rows are never replayed.  Directories from
# older digests are pruned so the cache never grows without bound.
CODE_DIGEST = source_digest()


def _prune_stale_stores() -> None:
    if not STORE_ROOT.is_dir():
        return
    import re
    import shutil
    for child in STORE_ROOT.iterdir():
        if (child.is_dir() and child.name != CODE_DIGEST
                and re.fullmatch(r"[0-9a-f]{16}", child.name)):
            shutil.rmtree(child, ignore_errors=True)


_prune_stale_stores()


def engine_sweep(config: SweepConfig) -> list[BenchmarkRow]:
    """Run one sweep on the engine with the suite's jobs/store settings."""
    store = (open_store(STORE_ROOT / CODE_DIGEST, config)
             if USE_STORE else None)
    return run_engine(config, jobs=JOBS, store=store)

# Paper ranges (Figures 7-9): Heisenberg/XY up to 50, Ising up to 40,
# QAOA 4..22.  Reduced ranges keep every family's shape visible.
SIZES = {
    "sycamore_heis": (6, 10, 14, 18, 22, 26, 32, 40, 50) if FULL
    else (6, 10, 14, 18),
    "sycamore_ising": (6, 10, 14, 18, 22, 26, 32, 40) if FULL
    else (6, 10, 14, 18),
    "aspen": (6, 8, 10, 12, 14, 16) if FULL else (6, 10, 14, 16),
    "montreal": (6, 10, 14, 18, 22, 26) if FULL else (6, 10, 14, 18),
    "qaoa": (4, 8, 12, 16, 20, 22) if FULL else (4, 8, 12),
    "qaoa_montreal": (4, 8, 12, 16, 20, 22) if FULL else (4, 8, 12),
}

QAOA_INSTANCES = 10 if FULL else 3


def sizes_for(device, sizes) -> tuple[int, ...]:
    """The sizes of a list shared across devices that fit on ``device``.

    Every benchmark file also declares ``DEVICE_SIZES`` -- device name to
    the sizes it sweeps there in the current mode -- so a tier-1 test can
    check the full-mode ranges against each device without running them.
    """
    return tuple(n for n in sizes if n <= device.n_qubits)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===")
    print(text)

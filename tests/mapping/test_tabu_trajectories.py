"""Pinned Tabu trajectories: every entry point replays them exactly.

``tabu_trajectories.json`` holds, for each perfbench cold-sweep cell
(sycamore/montreal/aspen at their benchmark sizes, the unified step of
instance seed :data:`SEED`), the ``(assignment, cost, iterations)`` of
each best-of-5 trial, trial ``t`` seeded ``SEED + 1000 * t`` exactly as
:func:`~repro.mapping.placement.best_of_k_mapping` seeds it.  It was
recorded with one 1-trial search per seed, before the lockstep kernel
existed.  The lockstep kernel, 1-trial ``tabu_search`` and
``best_of_k_mapping`` must reproduce it bit for bit: the instances are integer-valued, so no entry may drift.

Re-record (only when a trajectory change is intended) with::

    PYTHONPATH=src python tests/mapping/test_tabu_trajectories.py --record
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.harness import build_step
from repro.core.unify import unify_circuit_operators
from repro.devices.library import by_name
from repro.mapping.placement import best_of_k_mapping
from repro.mapping.qap import QAPInstance, qap_from_problem
from repro.mapping.tabu import tabu_search, tabu_trials

FIXTURE = Path(__file__).parent / "tabu_trajectories.json"

#: Instance and compile seed of every cell.
SEED = 1
TRIALS = 5

#: perfbench's cold-sweep cells: device and one size per application.
CELLS = (
    ("sycamore", {"NNN_Heisenberg": 34, "NNN_XY": 28, "NNN_Ising": 24,
                  "QAOA-REG-3": 30}),
    ("montreal", {"NNN_Heisenberg": 20, "NNN_XY": 24, "NNN_Ising": 26,
                  "QAOA-REG-3": 22}),
    ("aspen", {"NNN_Heisenberg": 16, "NNN_XY": 16, "NNN_Ising": 16,
               "QAOA-REG-3": 16}),
)
CELL_NAMES = tuple(f"{device}|{benchmark}|n{n}"
                   for device, sizes in CELLS
                   for benchmark, n in sizes.items())
TRIAL_SEEDS = tuple(SEED + 1000 * t for t in range(TRIALS))


@lru_cache(maxsize=None)
def instance_for(cell: str) -> QAPInstance:
    device, benchmark, size = cell.split("|")
    step = unify_circuit_operators(build_step(benchmark, int(size[1:]), SEED))
    return qap_from_problem(step, by_name(device))


def record(result) -> dict:
    return {"assignment": [int(q) for q in result.assignment],
            "cost": float(result.cost), "iterations": int(result.iterations)}


@lru_cache(maxsize=None)
def _pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell():
    assert set(_pinned()) == set(CELL_NAMES)


@pytest.mark.parametrize("cell", CELL_NAMES)
def test_lockstep_trials_replay_pin(cell):
    got = [record(result)
           for result in tabu_trials(instance_for(cell), TRIAL_SEEDS)]
    assert got == _pinned()[cell]


@pytest.mark.parametrize("cell", CELL_NAMES)
def test_one_trial_search_replays_pin(cell):
    instance = instance_for(cell)
    got = [record(tabu_search(instance, seed=s)) for s in TRIAL_SEEDS]
    assert got == _pinned()[cell]


@pytest.mark.parametrize("cell", CELL_NAMES)
def test_best_of_k_picks_pinned_winner(cell):
    pinned = _pinned()[cell]
    winner = min(pinned, key=lambda trial: trial["cost"])  # first minimum
    result = best_of_k_mapping(instance_for(cell), k=TRIALS, seed=SEED)
    assert record(result) == winner


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    records = {cell: [record(tabu_search(instance_for(cell), seed=s))
                      for s in TRIAL_SEEDS]
               for cell in CELL_NAMES}
    FIXTURE.write_text("{\n" + ",\n".join(
        f" {json.dumps(cell)}: [\n"
        + ",\n".join(f"  {json.dumps(trial)}" for trial in trials) + "\n ]"
        for cell, trials in records.items()) + "\n}\n")
    print(f"recorded {len(records)} cells into {FIXTURE}")

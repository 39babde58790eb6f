"""The perf gate stays runnable, honest, and able to fail.

The timing floors are asserted by the CI ``perf-smoke`` job
(``python -m repro.perf_smoke``); here each case runs one round and we
pin only what must never flake on a contended runner: the fast path's
output is identical to its reference and both timings are real
measurements.  ``main`` is driven through tiny stand-in cases so its
pass and failure paths are covered without timing anything real.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro import perf_smoke
from repro.perf_smoke import CASES, Case, blocks_identical, measure
from repro.quantum.unitaries import random_unitary
from repro.synthesis.gateset import get_gateset


def test_case_table_covers_every_kernel():
    assert [case.name for case in CASES] == ["tabu", "routing", "synthesis",
                                             "lowering", "lowering_cnot",
                                             "bind", "warm"]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_case_matches_its_reference(case):
    outcome = measure(replace(case, rounds=1))
    assert outcome.identical
    assert outcome.fast_s > 0
    assert outcome.reference_s > 0
    if case.prepare is not None:
        assert outcome.prepare_s > 0


def _stand_in(**overrides) -> Case:
    fields = dict(name="stand-in", describe="identity on 3",
                  build=lambda: 3, fast=lambda x: x,
                  reference=lambda x: time.sleep(0.02) or x,
                  identical=lambda a, b: a == b, floor=1.0, rounds=1)
    return Case(**{**fields, **overrides})


def test_measure_alternates_fast_and_reference_rounds():
    """Rounds interleave, so one burst of host noise cannot land on
    one side only."""
    calls = []
    case = _stand_in(prepare=lambda x: calls.append("prepare") or x,
                     fast=lambda x: calls.append("fast") or x,
                     reference=lambda x: calls.append("reference") or x,
                     rounds=3)
    measure(case)
    assert calls == ["prepare", "fast", "reference"] * 3


def test_main_passes_when_identical_and_fast_enough(capsys):
    assert perf_smoke.main([_stand_in()]) == 0
    out = capsys.readouterr().out
    assert out.startswith("stand-in: identity on 3:")
    assert out.rstrip().endswith("-- ok")


def test_main_fails_when_outputs_differ(capsys):
    differs = _stand_in(identical=lambda a, b: False)
    assert perf_smoke.main([_stand_in(), differs]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[1].endswith("FAIL: outputs differ from the reference")


def test_main_fails_when_floor_unmet(capsys):
    slow = _stand_in(fast=lambda x: time.sleep(0.02) or x,
                     reference=lambda x: x)
    assert perf_smoke.main([slow]) == 1
    assert "FAIL: only" in capsys.readouterr().out


def test_main_fails_when_setup_floor_unmet(capsys):
    slow_setup = _stand_in(prepare=lambda x: time.sleep(0.05) or x,
                           setup_floor=1.0)
    assert perf_smoke.main([slow_setup]) == 1
    assert "faster with set-up" in capsys.readouterr().out


def test_blocks_identical_rejects_differences():
    gateset = get_gateset("CNOT")
    rng = np.random.default_rng(0)
    blocks = gateset.decompose_batch([random_unitary(4, rng)
                                      for _ in range(2)])
    assert blocks_identical(blocks, list(blocks))
    # A phase perturbation must be caught.
    circuit, phase = blocks[0]
    tampered = [(circuit, phase * 1.0000001)] + blocks[1:]
    assert not blocks_identical(tampered, blocks)
    assert not blocks_identical(blocks[:1], blocks)

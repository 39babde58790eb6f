"""Byte-for-byte snapshot of the command-line output.

``cli_snapshot.json`` pins stdout, the exit code and the ``error:``
lines on stderr of a fixed set of invocations covering every
subcommand (text and ``--json`` forms) plus one error case each.
Wall-clock fields (``timings``, ``seconds``, ``structural_seconds``,
``(Nms)``, the ``pass timings:`` line) and the process-global template
counters are masked; everything else must match exactly.  Each case
starts from an empty template memo: template hits bypass the decompose
cache, so a warm memo would shift the ``decompose_*`` counters.
``--help`` is not pinned: argparse formats it differently across
Python versions.

Re-record (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_cli_snapshot.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.synthesis.templates import reset_default_templates

SNAPSHOT = Path(__file__).parent / "cli_snapshot.json"

_ASPEN6 = ["--benchmark", "NNN_Ising", "--qubits", "6", "--device", "aspen"]
_REG3 = ["--benchmark", "QAOA-REG-3", "--qubits", "6", "--device", "aspen"]
_REQUESTS = [
    {"compiler": "2qan", "benchmark": "NNN_Ising", "n_qubits": 6,
     "device": "aspen", "gateset": "CNOT", "seed": 0},
    {"compiler": "order", "benchmark": "NNN_Ising", "n_qubits": 6,
     "device": "aspen", "gateset": "CNOT", "seed": 0},
    {"compiler": "tket", "benchmark": "NNN_Ising", "n_qubits": 6,
     "device": "aspen", "gateset": "CNOT", "seed": 0},
    {"compiler": "nomap", "benchmark": "NNN_Ising", "n_qubits": 30,
     "device": "aspen", "gateset": "CZ", "seed": 0},
    {"compiler": "2qan", "benchmark": "QAOA-REG-3", "n_qubits": 6,
     "device": "ALL-TO-ALL", "gateset": "CNOT", "seed": 0,
     "parameters": {"gamma": 0.4, "beta": 1.1}},
    {"compiler": "2qan", "benchmark": "NNN_Ising", "n_qubits": 99,
     "device": "aspen"},
]

#: name -> argv; ``{requests}`` is replaced by a file holding _REQUESTS
CASES = {
    "root-compare": _ASPEN6 + ["--gateset", "ISWAP", "--mapping-trials",
                               "1", "--compare"],
    "root-error": ["--qubits", "30", "--device", "montreal"],
    "compile-text": ["compile", "--compiler", "tket", *_ASPEN6],
    "compile-json": ["compile", "--compiler", "2qan", *_ASPEN6, "--json"],
    "compile-bind-text": ["compile", *_REG3, "--bind",
                          "gamma=0.4,beta=1.1"],
    "compile-device-free-json": ["compile", "--compiler", "paulihedral",
                                 "--benchmark", "NNN_Ising", "--qubits",
                                 "30", "--gateset", "SYC", "--json"],
    "compile-all-to-all-text": ["compile", "--compiler", "nomap",
                                "--benchmark", "NNN_Ising", "--qubits", "6",
                                "--device", "all-to-all"],
    "compile-error": ["compile", "--qubits", "30", "--device", "montreal"],
    "bind-text": ["bind", *_REG3, "--bind", "beta=-0.39,gamma=0.35",
                  "--bind", "gamma=0.7,beta=0.2"],
    "bind-json": ["bind", *_REG3, "--gateset", "CZ", "--bind",
                  "gamma=0.35,beta=-0.39", "--json"],
    "bind-error": ["bind", *_REG3, "--bind", "gamma"],
    "sweep-json": ["sweep", "--benchmark", "NNN_Ising", "--device", "aspen",
                   "--sizes", "6,8", "--compilers", "2qan,order,nomap",
                   "--jobs", "1", "--json"],
    "sweep-error": ["sweep", "--device", "aspen", "--sizes", "30",
                    "--compilers", "2qan,nomap"],
    "batch-text": ["batch", "--requests", "{requests}"],
    "batch-json": ["batch", "--requests", "{requests}", "--json"],
    "batch-error": ["batch", "--requests", "{requests}", "--jobs", "0"],
    "lint-list-checks": ["lint", "--list-checks"],
    "lint-error": ["lint", "--root", "no-such-repo-root"],
    "serve-error": ["serve", "--queue-depth", "0"],
}

#: JSON keys holding wall-clock or process-global values
_MASKED_KEYS = {"timings", "seconds", "structural_seconds",
                "template_hits", "template_misses"}


def _mask_json(value):
    if isinstance(value, dict):
        return {key: _mask_json(item) for key, item in value.items()
                if key not in _MASKED_KEYS}
    if isinstance(value, list):
        return [_mask_json(item) for item in value]
    return value


def _mask_stdout(text: str) -> str:
    if text.lstrip().startswith(("{", "[")):
        return json.dumps(_mask_json(json.loads(text)), indent=2) + "\n"
    lines = [line for line in text.splitlines(keepends=True)
             if not line.startswith("  pass timings: ")]
    return re.sub(r"\b\d+ms\b", "Nms", "".join(lines))


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run one invocation in-process; return its masked record."""
    requests = workdir / "requests.json"
    requests.write_text(json.dumps(_REQUESTS))
    argv = [str(requests) if arg == "{requests}" else arg for arg in argv]
    reset_default_templates()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "stdout": _mask_stdout(out.getvalue()),
        "errors": [line for line in err.getvalue().splitlines()
                   if line.startswith("error:")],
    }


def _recorded() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_case():
    assert set(_recorded()) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_snapshot(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == _recorded()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        records = {name: run_case(argv, Path(tmp))
                   for name, argv in sorted(CASES.items())}
    SNAPSHOT.write_text(json.dumps(records, indent=2) + "\n")
    print(f"recorded {len(records)} cases into {SNAPSHOT}")

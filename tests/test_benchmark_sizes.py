"""The paper-range (``REPRO_FULL=1``) benchmark sizes fit their devices.

Every file under ``benchmarks/`` that sweeps a paper device declares
``DEVICE_SIZES`` (device name -> the sizes it runs there in the current
mode).  This test imports each file in a subprocess with
``REPRO_FULL=1`` and checks the declared full-mode sizes against the
devices, so a range that overruns a device fails here in seconds rather
than in an hour-long full run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.devices.library import by_name

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path.stem for path in (ROOT / "benchmarks").glob("test_*.py")
               if "from repro.devices import" in path.read_text())

_DUMP = """
import importlib, json, sys
out = {}
for name in sys.argv[1:]:
    module = importlib.import_module(f"benchmarks.{name}")
    sizes = getattr(module, "DEVICE_SIZES", None)
    out[name] = None if sizes is None else {
        device: [int(n) for n in ns] for device, ns in sizes.items()}
print(json.dumps(out))
"""


def _full_mode_sizes() -> dict:
    env = dict(os.environ, REPRO_FULL="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", _DUMP, *FILES], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_full_mode_sizes_fit_their_devices():
    declared = _full_mode_sizes()
    assert set(declared) == set(FILES)
    missing = [name for name, sizes in declared.items() if sizes is None]
    assert not missing, f"no DEVICE_SIZES in {missing}"
    overruns = [
        (name, device, max(sizes), by_name(device).n_qubits)
        for name, per_device in declared.items()
        for device, sizes in per_device.items()
        if sizes and max(sizes) > by_name(device).n_qubits
    ]
    assert not overruns


def test_full_mode_reaches_the_paper_ranges():
    """The cap trims only what does not fit: full mode still runs the
    largest sizes each device holds (n = 50 on Sycamore, 16 on Aspen)."""
    declared = _full_mode_sizes()
    assert max(declared["test_fig07_sycamore"]["sycamore"]) == 50
    tables = declared["test_table1_table2_reductions"]
    assert tables["aspen"] == [6, 10, 14]
    assert tables["sycamore"] == tables["montreal"] == [6, 10, 14, 18]

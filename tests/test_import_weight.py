"""Import weight: the CLI and the server start without ``scipy.optimize``.

``scipy.optimize`` adds ~49 MB of RSS and ~0.6 s of import time.  Only
the ``solve=True`` synthesis path calls ``minimize``, and it imports the
module where it calls it, so every process that never solves keeps that
headroom.  The import runs in a fresh interpreter: this test process has
long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_entry_points_do_not_import_scipy_optimize():
    code = ("import sys, repro.__main__, repro.service.server; "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False", out.stderr

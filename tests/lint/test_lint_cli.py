"""The ``python -m repro lint`` surface: exit codes, JSON schema,
selection -- and the meta-test that the real tree lints clean."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_lint_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


class TestRealTree:
    def test_real_tree_is_clean_and_schema_is_stable(self):
        """The acceptance gate: all five checkers over src/repro exit 0,
        and --json emits the documented schema."""
        proc = run_lint_cli("--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["version"] == 1
        assert [c["id"] for c in payload["checks"]] == [
            "RPR002", "RPR003", "RPR004", "RPR005",
        ]
        assert payload["findings"] == []
        assert payload["summary"]["errors"] == 0
        assert payload["summary"]["warnings"] == 0
        assert payload["summary"]["files"] > 50

    def test_list_checks(self):
        proc = run_lint_cli("--list-checks")
        assert proc.returncode == 0
        for check_id in ("RPR002", "RPR003", "RPR004", "RPR005"):
            assert check_id in proc.stdout


class TestExitCodes:
    def test_seeded_violation_exits_one(self, tmp_path):
        """A deliberately-broken tree proves the non-zero exit path."""
        bad = tmp_path / "src" / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "bad.py").write_text(
            "import numpy as np\n\n\n"
            "def f():\n"
            "    return np.random.default_rng()\n"
        )
        proc = run_lint_cli("--root", str(tmp_path), "--json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert [f["check"] for f in payload["findings"]] == ["RPR004"]
        assert payload["findings"][0]["path"] == "src/repro/core/bad.py"
        assert payload["findings"][0]["line"] == 5
        assert payload["summary"]["errors"] == 1

    def test_select_scopes_the_run(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "bad.py").write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )
        proc = run_lint_cli("--root", str(tmp_path), "--select", "RPR005")
        assert proc.returncode == 0
        proc = run_lint_cli("--root", str(tmp_path), "--ignore", "RPR004")
        assert proc.returncode == 0

    def test_unknown_check_id_exits_two(self):
        proc = run_lint_cli("--select", "RPR999")
        assert proc.returncode == 2
        assert "unknown check id" in proc.stderr

    def test_bad_root_exits_two(self, tmp_path):
        proc = run_lint_cli("--root", str(tmp_path))
        assert proc.returncode == 2
        assert "src/repro" in proc.stderr

    def test_bad_diff_base_exits_two(self):
        proc = run_lint_cli("--diff-base", "no-such-ref-anywhere")
        assert proc.returncode == 2

    def test_diff_base_filters_to_changed_files(self):
        """Against HEAD the clean tree stays clean (and the plumbing --
        git diff + path filtering -- actually runs)."""
        proc = run_lint_cli("--diff-base", "HEAD")
        assert proc.returncode == 0, proc.stdout + proc.stderr

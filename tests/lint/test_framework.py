"""Tests for the lint substrate: findings, projects, registry, run_lint."""

import pytest

from repro.lint import Finding, Project, all_checkers, run_lint


class TestFinding:
    def test_render_format(self):
        finding = Finding(path="src/repro/x.py", line=7, check="RPR001",
                          message="boom")
        assert finding.render() == "src/repro/x.py:7: RPR001 [error] boom"

    def test_to_dict_is_the_stable_schema(self):
        finding = Finding(path="p.py", line=1, check="RPR004",
                          message="m", severity="warning")
        assert finding.to_dict() == {
            "check": "RPR004", "path": "p.py", "line": 1,
            "message": "m", "severity": "warning",
        }

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(path="p.py", line=1, check="RPR001", message="m",
                    severity="fatal")

    def test_sort_order_is_path_then_line(self):
        low = Finding(path="a.py", line=2, check="RPR001", message="m")
        high = Finding(path="b.py", line=1, check="RPR001", message="m")
        later = Finding(path="a.py", line=9, check="RPR001", message="m")
        assert sorted([high, later, low]) == [low, later, high]


class TestProject:
    def test_module_by_unique_suffix(self):
        project = Project({"src/repro/a/mod.py": "x = 1",
                           "src/repro/b/other.py": "y = 2"})
        module = project.module("a/mod.py")
        assert module is not None and module.tree is not None

    def test_ambiguous_suffix_returns_none(self):
        project = Project({"src/repro/a/mod.py": "", "src/repro/b/mod.py": ""})
        assert project.module("mod.py") is None

    def test_modules_filters_to_python_under_prefix(self):
        project = Project({"src/repro/a.py": "", "docs/guide.md": "# hi",
                           "src/other/b.py": ""})
        assert [m.path for m in project.modules()] == ["src/repro/a.py"]


class TestRunLint:
    def test_all_five_checkers_registered(self):
        assert list(all_checkers()) == [
            "RPR002", "RPR003", "RPR004", "RPR005",
        ]

    def test_unknown_select_id_raises(self):
        with pytest.raises(ValueError, match="RPR999"):
            run_lint(Project({}), select=["RPR999"])

    def test_unknown_ignore_id_raises(self):
        with pytest.raises(ValueError, match="unknown check id"):
            run_lint(Project({}), ignore=["bogus"])

    def test_syntax_error_becomes_rpr000_finding(self):
        findings = run_lint(Project({"src/repro/bad.py": "def f(:\n"}))
        assert len(findings) == 1
        assert findings[0].check == "RPR000"
        assert findings[0].severity == "error"

    def test_empty_project_is_clean(self):
        assert run_lint(Project({})) == []

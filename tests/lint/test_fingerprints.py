"""RPR002 fixtures: fingerprint dispatch coverage and field drift."""


def fixture_project(*, widget_fields="    name: str\n    size: int\n",
                    hashed=("name", "size"),
                    context_extra="", extra_modules=None):
    """A minimal cache layer: one hand-fingerprinted Widget class, a
    CompilationContext caching a ``step`` input and ``working``
    artifact, and the dispatch functions the checker cross-references."""
    update_lines = "".join(f"        h(obj.{attr})\n" for attr in hashed)
    files = {
        "src/repro/things.py": (
            "from dataclasses import dataclass\n\n\n"
            "@dataclass(frozen=True)\n"
            "class Widget:\n" + widget_fields
        ),
        "src/repro/core/pipeline.py": (
            "from dataclasses import dataclass\n"
            "from repro.things import Widget\n\n\n"
            "@dataclass\n"
            "class CompilationContext:\n"
            "    step: Widget | None = None\n"
            "    working: Widget | None = None\n"
            + context_extra
        ),
        "src/repro/cache/cached.py": (
            'INPUT_FIELDS = ("step",)\n'
            'ARTIFACT_FIELDS = ("working",)\n'
        ),
        "src/repro/cache/fingerprint.py": (
            "from repro.things import Widget\n\n\n"
            "def _is_known_class(obj):\n"
            "    return isinstance(obj, (Widget,))\n\n\n"
            "def _update_known(h, obj):\n"
            "    if isinstance(obj, Widget):\n"
            + (update_lines or "        pass\n")
        ),
    }
    files.update(extra_modules or {})
    return files


class TestFieldDrift:
    def test_unhashed_field_on_known_class_is_an_error(self, lint_files):
        files = fixture_project(
            widget_fields="    name: str\n    size: int\n    color: str\n",
            hashed=("name", "size"),
        )
        findings = lint_files(files, "RPR002")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "Widget.color" in findings[0].message
        assert "invalidate" in findings[0].message

    def test_fully_hashed_known_class_is_clean(self, lint_files):
        assert lint_files(fixture_project(), "RPR002") == []

    def test_drift_checked_even_when_unreachable_from_context(
            self, lint_files):
        """A class in _is_known_class is cached somewhere; drift matters
        even if no context annotation mentions it."""
        files = fixture_project()
        files["src/repro/extra.py"] = (
            "from dataclasses import dataclass\n\n\n"
            "@dataclass\n"
            "class Orphan:\n    tag: str\n"
        )
        files["src/repro/cache/fingerprint.py"] = (
            "from repro.things import Widget\n"
            "from repro.extra import Orphan\n\n\n"
            "def _is_known_class(obj):\n"
            "    return isinstance(obj, (Widget, Orphan))\n\n\n"
            "def _update_known(h, obj):\n"
            "    if isinstance(obj, Widget):\n"
            "        h(obj.name)\n"
            "        h(obj.size)\n"
            "    elif isinstance(obj, Orphan):\n"
            "        pass\n"
        )
        findings = lint_files(files, "RPR002")
        assert len(findings) == 1
        assert "Orphan.tag" in findings[0].message


class TestReachability:
    def test_unfingerprintable_reachable_type_is_an_error(self, lint_files):
        files = fixture_project(context_extra="    thing: 'Opaque' = None\n")
        files["src/repro/cache/cached.py"] = (
            'INPUT_FIELDS = ("step",)\n'
            'ARTIFACT_FIELDS = ("working", "thing")\n'
        )
        files["src/repro/opaque.py"] = (
            "class Opaque:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
        )
        findings = lint_files(files, "RPR002")
        assert any(f.severity == "error" and "Opaque" in f.message
                   and "TypeError" in f.message for f in findings)

    def test_uncached_context_fields_are_not_walked(self, lint_files):
        """A field outside INPUT_FIELDS/ARTIFACT_FIELDS never enters the
        cache, so its type needs no fingerprint coverage."""
        files = fixture_project(
            context_extra="    scratch: 'Opaque' = None\n")
        files["src/repro/opaque.py"] = "class Opaque:\n    pass\n"
        assert lint_files(files, "RPR002") == []

    def test_bare_container_field_is_a_warning(self, lint_files):
        files = fixture_project(extra_modules={
            "src/repro/things.py": (
                "from dataclasses import dataclass, field\n\n\n"
                "@dataclass(frozen=True)\n"
                "class Widget:\n"
                "    name: str\n"
                "    size: int\n"
                "    parts: list = field(default_factory=list)\n"
            ),
        }, hashed=("name", "size", "parts"))
        findings = lint_files(files, "RPR002")
        assert [f.severity for f in findings] == ["warning"]
        assert "bare container" in findings[0].message

    def test_pass_config_fields_are_walked(self, lint_files):
        files = fixture_project()
        files["src/repro/baselines/demo.py"] = (
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n\n\n"
            "class Knob:\n    pass\n\n\n"
            "@dataclass(frozen=True)\n"
            "class DemoPass:\n"
            "    knob: Knob = None\n"
            "    reads: ClassVar[tuple[str, ...]] = ('step',)\n"
            "    writes: ClassVar[tuple[str, ...]] = ('working',)\n\n"
            "    def run(self, ctx):\n"
            "        ctx.working = ctx.step\n"
            "        return ctx\n"
        )
        findings = lint_files(files, "RPR002")
        assert any("Knob" in f.message and "pass config" in f.message
                   for f in findings)

    def test_fixture_without_cache_layer_is_skipped(self, lint_files):
        files = {"src/repro/solo.py": "class Anything:\n    pass\n"}
        assert lint_files(files, "RPR002") == []

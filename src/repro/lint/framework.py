"""The static-analysis substrate: findings, projects, checker registry.

The compiler's correctness rests on contracts no general-purpose linter
knows about: every type a pass can leave on the context must be
fingerprintable (cache invalidation), every metrics counter must exist
in the schema before production increments it, compile-path modules
must be seed-driven (bit-identity), and the async front end must never
block its event loop.  This module provides the shared machinery those
domain checkers run on:

* :class:`Finding` -- one ``file:line`` diagnostic with a check id,
  message and severity.
* :class:`Project` -- the file set under analysis: a mapping of
  repo-relative paths to sources, with lazily-parsed ASTs.  Built from
  the repo tree in production and from literal dicts in tests, so every
  checker's true-positive/true-negative behaviour pins on small fixture
  snippets without touching the filesystem.
* :class:`Checker` + :func:`register_checker` -- the registry.  Checker
  modules self-register on import; :func:`all_checkers` imports the
  built-in suite.
* :func:`run_lint` -- run (a selection of) checkers over a project and
  return sorted findings.

Everything is stdlib ``ast`` -- no third-party analysis dependencies.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

#: Severity vocabulary, mildest first.  ``error`` marks a contract
#: violation that can produce wrong artifacts or runtime crashes;
#: ``warning`` marks over-declaration/coverage drift that degrades the
#: system (cache fragmentation, dead schema entries, doc rot) without
#: corrupting results.
SEVERITIES = ("warning", "error")

#: Directory prefixes (relative to the repo root) scanned by default.
SOURCE_PREFIX = "src/repro/"

#: Documentation files some checkers cross-reference.
DOC_SUFFIXES = (".md",)


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, which contract, what went wrong."""

    path: str
    line: int
    check: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}; "
                             f"expected one of {SEVERITIES}")

    def to_dict(self) -> dict:
        """The stable ``--json`` record (schema version 1)."""
        return {
            "check": self.check,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}: {self.check} "
                f"[{self.severity}] {self.message}")


class Module:
    """One Python source file with a lazily-parsed AST."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self._tree: ast.Module | None = None
        self._error: SyntaxError | None = None

    @property
    def tree(self) -> ast.Module | None:
        """The parsed AST, or ``None`` when the source does not parse
        (the syntax error is reported as its own finding)."""
        if self._tree is None and self._error is None:
            try:
                self._tree = ast.parse(self.source, filename=self.path)
            except SyntaxError as exc:
                self._error = exc
        return self._tree

    @property
    def syntax_error(self) -> SyntaxError | None:
        self.tree  # noqa: B018 - force the parse attempt
        return self._error


class Project:
    """The file set one lint run analyses.

    ``files`` maps repo-relative POSIX paths (``src/repro/...`` /
    ``docs/...``) to file contents.  Checkers address modules by path
    suffix so fixture projects in tests can mirror the real layout with
    only the files a checker consumes.
    """

    def __init__(self, files: dict[str, str]) -> None:
        self.files = dict(files)
        self._modules: dict[str, Module] = {}

    @classmethod
    def from_root(cls, repo_root: Path) -> "Project":
        """Scan ``src/repro/**/*.py`` plus ``docs/*.md`` under a repo."""
        repo_root = Path(repo_root)
        files: dict[str, str] = {}
        source_root = repo_root / "src" / "repro"
        for path in sorted(source_root.rglob("*.py")):
            rel = path.relative_to(repo_root).as_posix()
            files[rel] = path.read_text()
        docs_root = repo_root / "docs"
        if docs_root.is_dir():
            for path in sorted(docs_root.rglob("*")):
                if path.suffix in DOC_SUFFIXES and path.is_file():
                    rel = path.relative_to(repo_root).as_posix()
                    files[rel] = path.read_text()
        return cls(files)

    # ------------------------------------------------------------------
    def modules(self, prefix: str = SOURCE_PREFIX) -> list[Module]:
        """Every Python module under ``prefix``, sorted by path."""
        return [self._module(path) for path in sorted(self.files)
                if path.startswith(prefix) and path.endswith(".py")]

    def module(self, suffix: str) -> Module | None:
        """The unique module whose path ends with ``suffix``, if any."""
        matches = [path for path in self.files
                   if path.endswith(suffix) and path.endswith(".py")]
        if len(matches) != 1:
            return None
        return self._module(matches[0])

    def text(self, suffix: str) -> tuple[str, str] | None:
        """``(path, contents)`` of the unique file ending in ``suffix``."""
        matches = [path for path in self.files if path.endswith(suffix)]
        if len(matches) != 1:
            return None
        return matches[0], self.files[matches[0]]

    def _module(self, path: str) -> Module:
        if path not in self._modules:
            self._modules[path] = Module(path, self.files[path])
        return self._modules[path]


# ----------------------------------------------------------------------
# Checker registry
# ----------------------------------------------------------------------
class Checker:
    """One contract checker.  Subclasses set ``id``/``name``/``doc``
    and implement :meth:`check`."""

    id: str = ""
    name: str = ""
    description: str = ""

    def check(self, project: Project) -> list[Finding]:
        raise NotImplementedError


_CHECKERS: dict[str, type[Checker]] = {}


def register_checker(cls: type[Checker]) -> type[Checker]:
    """Class decorator: add one checker to the registry."""
    if not cls.id:
        raise ValueError(f"checker {cls.__name__} has no id")
    claimed = _CHECKERS.get(cls.id)
    if claimed is not None and claimed is not cls:
        raise ValueError(f"checker id {cls.id!r} already registered "
                         f"by {claimed.__name__}")
    _CHECKERS[cls.id] = cls
    return cls


def all_checkers() -> dict[str, type[Checker]]:
    """The registry with the built-in suite imported (self-registering)."""
    from repro.lint import (  # noqa: F401 - imported for registration
        async_hygiene,
        determinism,
        metrics_schema,
    )
    from repro.lint import fingerprints  # noqa: F401

    return dict(sorted(_CHECKERS.items()))


def run_lint(project: Project, *, select: list[str] | None = None,
             ignore: list[str] | None = None) -> list[Finding]:
    """Run checkers over ``project`` and return sorted findings.

    ``select`` keeps only the named check ids; ``ignore`` drops the
    named ids (applied after ``select``).  Unknown ids in either raise
    ``ValueError`` so CI typos fail loudly instead of silently checking
    nothing.  Syntax errors in analysed modules surface as ``RPR000``
    findings rather than aborting the run.
    """
    registry = all_checkers()
    for requested in (select or []) + (ignore or []):
        if requested not in registry:
            raise ValueError(
                f"unknown check id {requested!r} "
                f"(known: {', '.join(registry)})"
            )
    wanted = {
        check_id: cls for check_id, cls in registry.items()
        if (select is None or check_id in select)
        and (ignore is None or check_id not in ignore)
    }
    findings: list[Finding] = []
    for module in project.modules():
        error = module.syntax_error
        if error is not None:
            findings.append(Finding(
                path=module.path, line=error.lineno or 1, check="RPR000",
                message=f"syntax error: {error.msg}", severity="error",
            ))
    for cls in wanted.values():
        findings.extend(cls().check(project))
    return sorted(findings)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin for every import in a module.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    sleep`` maps ``sleep -> time.sleep``.  Lets checkers resolve call
    sites through whatever aliasing a module uses.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def resolve_call(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """The fully-qualified dotted path of a call target, alias-expanded.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    under ``import numpy as np``; unresolvable heads return the dotted
    name as written (so literal matches still work).
    """
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


def string_tuple(node: ast.AST) -> tuple[str, ...] | None:
    """The value of a literal tuple/list of strings, else ``None``."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values: list[str] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None
        values.append(element.value)
    return tuple(values)


def _class_tuple(node: ast.ClassDef, name: str) -> tuple[str, ...] | None:
    """A literal string-tuple class attribute (``reads = (...,)``)."""
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                return string_tuple(stmt.value)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return string_tuple(stmt.value)
    return None


def iter_pass_classes(module: Module) -> list[ast.ClassDef]:
    """Pass declarations in a module: classes with a ``run`` method and
    a ``reads`` or ``writes`` class attribute (the cache contract)."""
    tree = module.tree
    if tree is None:
        return []
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(stmt, ast.FunctionDef) and stmt.name == "run"
                for stmt in node.body)
        and (_class_tuple(node, "reads") is not None
             or _class_tuple(node, "writes") is not None)
    ]

"""RPR002: every type a pass can cache must be fingerprintable.

The artifact cache keys on canonical fingerprints
(:mod:`repro.cache.fingerprint`).  Unknown types raise ``TypeError`` at
runtime -- loud, but only once a compile actually reaches them -- and
the subtler failure is silent: a *hand-fingerprinted* class (one with a
branch in ``_update_known``) that grows a dataclass field the branch
does not hash keeps producing the **old** fingerprint, so caches stop
invalidating on the new field.  PR 3's runtime can never catch that;
only comparing the class definition against the fingerprint walk can.

This checker cross-references three sources, all statically:

1. the context fields the cache snapshots (``INPUT_FIELDS`` +
   ``ARTIFACT_FIELDS`` in ``repro/cache/cached.py``) and their type
   annotations on ``CompilationContext``;
2. the transitive closure of dataclass field annotations reachable from
   those types (plus every registered pass's config fields, which
   ``fingerprint_pass`` walks);
3. the fingerprint module's dispatch: the ``_is_known_class`` tuple and
   the per-class ``obj.<attr>`` accesses inside ``_update_known``.

Findings:

* a reachable type that is neither primitive, ndarray, container,
  known, nor a dataclass (**error** -- ``fingerprint()`` will raise, or
  a future refactor could hash an unstable ``repr``);
* a known-class dataclass field absent from its ``_update_known``
  branch (**error** -- field drift: caches silently stop invalidating);
* a bare container annotation (``list`` with no element type) on a
  reachable dataclass field (**warning** -- the runtime walk still
  hashes the elements, but coverage of the element type can no longer
  be proven here).

Per-class exemptions (fields deliberately outside a fingerprint) are
listed in :data:`INTENTIONALLY_UNHASHED` with the reason recorded where
the decision lives.
"""

from __future__ import annotations

import ast

from repro.lint.framework import (
    Checker,
    Finding,
    Module,
    Project,
    iter_pass_classes,
    register_checker,
)

#: Builtin scalar types the fingerprint dispatch hashes directly.
PRIMITIVES = frozenset({
    "int", "float", "bool", "str", "bytes", "complex", "None", "object",
    "np.ndarray", "numpy.ndarray",
})

#: Typed containers the dispatch walks element-wise.
CONTAINERS = frozenset({"list", "tuple", "dict", "set", "frozenset",
                        "List", "Tuple", "Dict", "Set", "FrozenSet",
                        "Optional", "Union", "Mapping", "Sequence"})

#: Fields of hand-fingerprinted classes that are *deliberately* not
#: hashed.  ``Gate.meta`` is provenance (term labels, dressing
#: history); ``Gate.__eq__`` ignores it too, so hashing it would split
#: keys for semantically identical gates.
INTENTIONALLY_UNHASHED: dict[str, frozenset[str]] = {
    "Gate": frozenset({"meta"}),
}

#: Annotations naming these are accepted without resolution (runtime
#: protocols / numpy scalar aliases that the dispatch covers).
OPAQUE_OK = frozenset({"Any", "ClassVar"})


class _ClassInfo:
    def __init__(self, module: Module, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        self.is_dataclass = any(
            (isinstance(dec, ast.Name) and dec.id == "dataclass")
            or (isinstance(dec, ast.Call)
                and isinstance(dec.func, ast.Name)
                and dec.func.id == "dataclass")
            or (isinstance(dec, ast.Attribute) and dec.attr == "dataclass")
            for dec in node.decorator_list
        )
        #: (name, annotation) for every annotated field, ClassVars skipped.
        self.fields: list[tuple[str, ast.AST]] = []
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                annotation = stmt.annotation
                if (isinstance(annotation, ast.Subscript)
                        and isinstance(annotation.value, ast.Name)
                        and annotation.value.id == "ClassVar"):
                    continue
                self.fields.append((stmt.target.id, annotation))


def _index_classes(project: Project) -> dict[str, _ClassInfo]:
    """Bare class name -> definition, across the whole source tree."""
    index: dict[str, _ClassInfo] = {}
    for module in project.modules():
        tree = module.tree
        if tree is None:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name not in index:
                index[node.name] = _ClassInfo(module, node)
    return index


def annotation_names(node: ast.AST) -> tuple[set[str], bool]:
    """Type names referenced by an annotation, plus a bare-container flag.

    ``TrotterStep | None`` yields ``{"TrotterStep"}``;
    ``dict[str, float]`` yields ``{"str", "float"}``; a bare ``list``
    yields ``(set(), True)`` -- walkable at runtime, unverifiable here.
    """
    names: set[str] = set()
    bare = False

    def walk(item: ast.AST) -> None:
        nonlocal bare
        if isinstance(item, ast.Constant):
            if item.value is None:
                return
            if isinstance(item.value, str):
                # quoted forward reference: parse it as an annotation
                try:
                    inner = ast.parse(item.value, mode="eval").body
                except SyntaxError:
                    return
                walk(inner)
            return
        if isinstance(item, ast.Name):
            if item.id in CONTAINERS:
                bare = True
            else:
                names.add(item.id)
            return
        if isinstance(item, ast.Attribute):
            dotted = []
            value: ast.AST = item
            while isinstance(value, ast.Attribute):
                dotted.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name):
                dotted.append(value.id)
                names.add(".".join(reversed(dotted)))
            return
        if isinstance(item, ast.Subscript):
            head = item.value
            if isinstance(head, ast.Name) and head.id in CONTAINERS:
                walk(item.slice)
                return
            walk(head)
            walk(item.slice)
            return
        if isinstance(item, ast.BinOp) and isinstance(item.op, ast.BitOr):
            walk(item.left)
            walk(item.right)
            return
        if isinstance(item, ast.Tuple):
            for element in item.elts:
                walk(element)
            return
        # Ellipsis in tuple[..., ...] arrives as Constant, handled above.

    walk(node)
    return names, bare


def _known_class_names(fingerprint_mod: Module) -> set[str]:
    """Class names in ``_is_known_class``'s isinstance tuple."""
    tree = fingerprint_mod.tree
    names: set[str] = set()
    if tree is None:
        return names
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_is_known_class":
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "isinstance"
                        and len(call.args) == 2):
                    arg = call.args[1]
                    elements = (arg.elts if isinstance(arg, ast.Tuple)
                                else [arg])
                    for element in elements:
                        if isinstance(element, ast.Name):
                            names.add(element.id)
    return names


def _known_class_accesses(fingerprint_mod: Module) -> dict[str, set[str]]:
    """Per-class ``obj.<attr>`` reads inside ``_update_known`` branches."""
    tree = fingerprint_mod.tree
    accesses: dict[str, set[str]] = {}
    if tree is None:
        return accesses
    update_known = next(
        (node for node in ast.walk(tree)
         if isinstance(node, ast.FunctionDef) and node.name == "_update_known"),
        None,
    )
    if update_known is None:
        return accesses

    def branch_classes(test: ast.AST) -> list[str]:
        if (isinstance(test, ast.Call) and isinstance(test.func, ast.Name)
                and test.func.id == "isinstance" and len(test.args) == 2):
            arg = test.args[1]
            elements = arg.elts if isinstance(arg, ast.Tuple) else [arg]
            return [element.id for element in elements
                    if isinstance(element, ast.Name)]
        return []

    def obj_attrs(body: list[ast.stmt]) -> set[str]:
        attrs: set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "obj"):
                    attrs.add(node.attr)
        return attrs

    def walk_if(node: ast.If) -> None:
        classes = branch_classes(node.test)
        attrs = obj_attrs(node.body)
        for name in classes:
            accesses.setdefault(name, set()).update(attrs)
        for stmt in node.orelse:
            if isinstance(stmt, ast.If):
                walk_if(stmt)

    for stmt in update_known.body:
        if isinstance(stmt, ast.If):
            walk_if(stmt)
    return accesses


def _field_tuples(cached_mod: Module) -> tuple[tuple[str, ...],
                                               tuple[str, ...]]:
    """``INPUT_FIELDS``/``ARTIFACT_FIELDS`` literals from the cache."""
    tree = cached_mod.tree
    inputs: tuple[str, ...] = ()
    artifacts: tuple[str, ...] = ()
    if tree is None:
        return inputs, artifacts
    from repro.lint.framework import string_tuple

    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if target.id == "INPUT_FIELDS":
                        inputs = string_tuple(node.value) or ()
                    elif target.id == "ARTIFACT_FIELDS":
                        artifacts = string_tuple(node.value) or ()
    return inputs, artifacts


@register_checker
class FingerprintCoverageChecker(Checker):
    id = "RPR002"
    name = "fingerprint-coverage"
    description = ("every type reachable from cached context fields and "
                   "pass configs must be fingerprintable, and "
                   "hand-fingerprinted classes must hash every public "
                   "dataclass field (cache-invalidation drift)")

    def check(self, project: Project) -> list[Finding]:
        fingerprint_mod = project.module("repro/cache/fingerprint.py")
        cached_mod = project.module("repro/cache/cached.py")
        pipeline_mod = project.module("repro/core/pipeline.py")
        if fingerprint_mod is None or cached_mod is None \
                or pipeline_mod is None:
            return []  # fixture project without the cache layer
        known = _known_class_names(fingerprint_mod)
        accesses = _known_class_accesses(fingerprint_mod)
        inputs, artifacts = _field_tuples(cached_mod)
        index = _index_classes(project)

        context = index.get("CompilationContext")
        findings: list[Finding] = []
        seen: set[str] = set()
        # Field drift on every hand-fingerprinted dataclass, reachable
        # or not: a class in _is_known_class is cached *somewhere*.
        for name in sorted(known):
            info = index.get(name)
            if info is not None and info.is_dataclass:
                findings.extend(self._drift(name, info, accesses))
        if context is not None:
            cached_fields = set(inputs) | set(artifacts)
            for field_name, annotation in context.fields:
                if field_name not in cached_fields:
                    continue
                names, bare = annotation_names(annotation)
                if bare:
                    findings.append(self._bare(context, field_name,
                                               annotation))
                for name in sorted(names):
                    findings.extend(self._resolve(
                        name, index, known, accesses, seen,
                        origin=f"CompilationContext.{field_name}",
                        module=context.module, line=annotation.lineno,
                    ))
        for module in project.modules():
            for declared in iter_pass_classes(module):
                info = index.get(declared.name)
                if info is None or not info.is_dataclass:
                    continue
                for field_name, annotation in info.fields:
                    if field_name.startswith("_"):
                        continue
                    names, bare = annotation_names(annotation)
                    for name in sorted(names):
                        findings.extend(self._resolve(
                            name, index, known, accesses, seen,
                            origin=f"{declared.name}.{field_name} "
                                   f"(pass config)",
                            module=module, line=annotation.lineno,
                        ))
        return findings

    def _bare(self, info: _ClassInfo, field_name: str,
              annotation: ast.AST) -> Finding:
        return Finding(
            path=info.module.path, line=annotation.lineno, check=self.id,
            severity="warning",
            message=f"{info.node.name}.{field_name} is annotated with a "
                    f"bare container; element types cannot be verified "
                    f"against the fingerprint dispatch -- annotate the "
                    f"element type",
        )

    def _resolve(self, name: str, index: dict[str, _ClassInfo],
                 known: set[str], accesses: dict[str, set[str]],
                 seen: set[str], *, origin: str, module: Module,
                 line: int) -> list[Finding]:
        if name in PRIMITIVES or name in OPAQUE_OK or name in seen:
            return []
        seen.add(name)
        findings: list[Finding] = []
        info = index.get(name)
        if name in known:
            # drift is checked globally in check(); still recurse so
            # factor/param types behind known classes get resolved
            if info is not None and info.is_dataclass:
                findings.extend(self._recurse(info, index, known, accesses,
                                              seen))
            return findings
        if info is None:
            findings.append(Finding(
                path=module.path, line=line, check=self.id,
                severity="warning",
                message=f"cannot resolve type {name!r} reachable from "
                        f"{origin}; fingerprint coverage unverified",
            ))
            return findings
        if not info.is_dataclass:
            findings.append(Finding(
                path=module.path, line=line, check=self.id,
                message=f"type {name!r} reachable from {origin} is "
                        f"neither fingerprint-known (_is_known_class) "
                        f"nor a dataclass; fingerprint() will raise "
                        f"TypeError the first time it is cached",
            ))
            return findings
        findings.extend(self._recurse(info, index, known, accesses, seen))
        return findings

    def _recurse(self, info: _ClassInfo, index: dict[str, _ClassInfo],
                 known: set[str], accesses: dict[str, set[str]],
                 seen: set[str]) -> list[Finding]:
        findings: list[Finding] = []
        for field_name, annotation in info.fields:
            if field_name.startswith("_"):
                continue  # private fields are skipped by the generic walk
            names, bare = annotation_names(annotation)
            if bare:
                findings.append(self._bare(info, field_name, annotation))
            for name in sorted(names):
                findings.extend(self._resolve(
                    name, index, known, accesses, seen,
                    origin=f"{info.node.name}.{field_name}",
                    module=info.module, line=annotation.lineno,
                ))
        return findings

    def _drift(self, name: str, info: _ClassInfo,
               accesses: dict[str, set[str]]) -> list[Finding]:
        """Hand-fingerprinted dataclass: every public field must be
        hashed by its ``_update_known`` branch (or exempted)."""
        hashed = accesses.get(name, set())
        exempt = INTENTIONALLY_UNHASHED.get(name, frozenset())
        findings: list[Finding] = []
        for field_name, _annotation in info.fields:
            if field_name.startswith("_") or field_name in exempt:
                continue
            if field_name not in hashed:
                findings.append(Finding(
                    path=info.module.path, line=info.node.lineno,
                    check=self.id,
                    message=f"{name}.{field_name} is not hashed by its "
                            f"_update_known branch in the fingerprint "
                            f"module -- caches will not invalidate when "
                            f"it changes; hash it or record the "
                            f"exemption in INTENTIONALLY_UNHASHED",
                ))
        return findings

"""Cross-file facts gathered before rules run, and the path and name
helpers every rule shares.

Some determinism properties are not visible inside a single module: the
hierarchy's ``downstream`` set is *annotated* in ``repro.hierarchy.roles``
but *iterated* in ``repro.hierarchy.maintenance``.  The engine therefore
makes a first pass over every linted file and records

* attribute names declared with a ``set``/``frozenset`` annotation
  (class bodies and ``self.x: set[...]`` assignments),
* function/method names whose return annotation is a set, and
* for each literal ``<...>.rng.stream("name")``, the protocol-package
  files that acquire it,

so DET003 can recognise ``for child in state.downstream`` or
``for c in hierarchy.children_of(p)`` as unordered iteration wherever
they occur, and DET004 can see one stream shared by two modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

_SET_TYPE_NAMES = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet"})

#: Packages whose modules make protocol decisions; DET004 is scoped to
#: these (experiments deliberately share the "topology"/"workload"
#: streams across trials, and sim plumbing is not a protocol).
PROTOCOL_PACKAGES = frozenset({"net", "hierarchy", "aggregation", "core", "faults"})


def path_parts(path: str) -> list[str]:
    """A path's components, with either separator."""
    return path.replace("\\", "/").split("/")


def is_test_path(path: str) -> bool:
    """Whether ``path`` is test code (lint fixtures count as library
    code, so the rules they exercise still run on them)."""
    parts = path_parts(path)
    return "tests" in parts and "fixtures" not in parts


def is_protocol_path(path: str) -> bool:
    """Whether ``path`` is a module of one of :data:`PROTOCOL_PACKAGES`."""
    parts = path_parts(path)
    return "tests" not in parts and bool(PROTOCOL_PACKAGES.intersection(parts))


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def rng_stream_calls(tree: ast.Module) -> Iterator[tuple[str, ast.Call]]:
    """Every ``<owner>.stream("name")`` call whose owner has a segment
    containing ``rng`` and whose name is a string literal."""
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "stream"
            and node.args
        ):
            continue
        owner = dotted_name(node.func.value)
        arg = node.args[0]
        if (
            owner is not None
            and any("rng" in part for part in owner.split("."))
            and isinstance(arg, ast.Constant)
            and isinstance(arg.value, str)
        ):
            yield arg.value, node


@dataclass
class ProjectFacts:
    """What the first pass learned about the linted tree."""

    #: Attribute names annotated as set/frozenset anywhere in the tree.
    set_attributes: set[str] = field(default_factory=set)
    #: Function/method names annotated to return a set/frozenset.
    set_returning_functions: set[str] = field(default_factory=set)
    #: Literal RNG stream name -> protocol-package files acquiring it.
    rng_streams: dict[str, set[str]] = field(default_factory=dict)

    def merge_from(self, tree: ast.Module, path: str) -> None:
        """Fold one parsed module, linted as ``path``, into the fact
        tables."""
        if is_protocol_path(path):
            for name, _ in rng_stream_calls(tree):
                self.rng_streams.setdefault(name, set()).add(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                if annotation_is_set(node.annotation) or _value_is_set(node.value):
                    self._record_target(node.target, node)
            elif isinstance(node, ast.Assign):
                # Unannotated stores still declare a set when the value
                # is one: `self.x = set()`, a set literal/comprehension,
                # or a dataclass `field(default_factory=set)`.
                if _value_is_set(node.value):
                    for target in node.targets:
                        self._record_target(target, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.returns is not None and annotation_is_set(node.returns):
                    self.set_returning_functions.add(node.name)

    def _record_target(
        self, target: ast.expr, node: ast.Assign | ast.AnnAssign
    ) -> None:
        if isinstance(target, ast.Attribute):
            # self.x: set[...] = ... / self.x = set()
            self.set_attributes.add(target.attr)
        elif isinstance(target, ast.Name) and isinstance(
            getattr(node, "parent", None), (ast.ClassDef, type(None))
        ):
            # Class-body (incl. dataclass field) declarations only;
            # function locals are tracked per-scope by DET003.
            self.set_attributes.add(target.id)


def attach_parents(tree: ast.Module) -> None:
    """Annotate every node with a ``parent`` backlink (used by facts
    gathering and by rules that need the consuming context)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def _value_is_set(value: ast.expr | None) -> bool:
    """Whether an assigned value is unmistakably a set: a set literal or
    comprehension, a ``set()``/``frozenset()`` call, or a dataclass
    ``field(default_factory=set)``."""
    if value is None:
        return False
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    if name in ("set", "frozenset"):
        return True
    if name == "field":
        for keyword in value.keywords:
            if keyword.arg != "default_factory":
                continue
            factory = keyword.value
            factory_name = (
                factory.id
                if isinstance(factory, ast.Name)
                else factory.attr if isinstance(factory, ast.Attribute) else None
            )
            if factory_name in ("set", "frozenset"):
                return True
    return False


def annotation_is_set(annotation: ast.expr) -> bool:
    """Whether an annotation expression denotes a set type.

    Handles ``set``, ``set[int]``, ``frozenset[...]``, ``typing.Set[...]``
    and string annotations containing the same.
    """
    if isinstance(annotation, ast.Subscript):
        return annotation_is_set(annotation.value)
    if isinstance(annotation, ast.Name):
        return annotation.id in _SET_TYPE_NAMES
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in _SET_TYPE_NAMES
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value.split("[", 1)[0].strip()
        return text.rsplit(".", 1)[-1] in _SET_TYPE_NAMES
    return False

"""A stdlib stand-in for the strict mypy section of ``pyproject.toml``.

mypy is not always installed where the tests run.  This gate takes the
module patterns of every ``[[tool.mypy.overrides]]`` section that sets
``disallow_untyped_defs``, imports each matching module, and resolves
:func:`typing.get_type_hints` on its public functions, classes (their
own annotations, so dataclass fields too) and their public methods.  An
annotation that names something undefined, misspelt, or imported only
at runtime under another name fails here instead of in a type checker
nobody ran.

Names imported under ``if TYPE_CHECKING:`` are in scope for a type
checker, so those blocks are executed into the namespace annotations are
evaluated in.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path
from types import ModuleType
from typing import Any, Iterator

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def strict_patterns() -> list[str]:
    with open(PYPROJECT, "rb") as handle:
        config = tomllib.load(handle)
    patterns: list[str] = []
    for override in config["tool"]["mypy"].get("overrides", []):
        if override.get("disallow_untyped_defs"):
            modules = override["module"]
            patterns.extend([modules] if isinstance(modules, str) else modules)
    return patterns


def strict_modules() -> list[str]:
    names: list[str] = []
    for pattern in strict_patterns():
        if not pattern.endswith(".*"):
            names.append(pattern)
            continue
        package = importlib.import_module(pattern[:-2])
        names.append(package.__name__)
        names.extend(
            info.name
            for info in pkgutil.walk_packages(package.__path__, prefix=package.__name__ + ".")
        )
    return sorted(set(names))


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def annotation_namespace(module: ModuleType) -> dict[str, Any]:
    """The module's globals plus its ``if TYPE_CHECKING:`` imports."""
    namespace = dict(vars(module))
    source = inspect.getsource(module)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            block = ast.Module(body=node.body, type_ignores=[])
            exec(compile(block, module.__file__ or module.__name__, "exec"), namespace)
    return namespace


class _Annotated:
    """Carries one class's own ``__annotations__`` so they are resolved
    without walking bases defined in other modules."""

    def __init__(self, annotations: dict[str, Any]) -> None:
        self.__annotations__ = annotations


def annotated_objects(module: ModuleType) -> Iterator[tuple[str, Any, dict[str, Any]]]:
    """``(qualified name, annotated object, local namespace)`` for every
    public function, class and method defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj, {}
        elif inspect.isclass(obj):
            scope = dict(vars(obj))
            yield name, _Annotated(dict(obj.__dict__.get("__annotations__", {}))), scope
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member, scope


@pytest.mark.parametrize("module_name", strict_modules())
def test_public_annotations_resolve(module_name: str) -> None:
    module = importlib.import_module(module_name)
    namespace = annotation_namespace(module)
    failures = []
    for qualname, obj, scope in annotated_objects(module):
        try:
            typing.get_type_hints(obj, globalns=namespace, localns=scope)
        except Exception as error:  # any unresolvable annotation
            failures.append(f"{module_name}.{qualname}: {type(error).__name__}: {error}")
    assert not failures, "\n".join(failures)


def test_strict_list_is_not_empty() -> None:
    """Guard the gate: the override list parses into real modules."""
    names = strict_modules()
    assert "repro.sim.trace" in names
    assert "repro.core.netfilter" in names

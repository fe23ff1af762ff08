"""Every name a qncfem module exports in `__all__` exists, and is used by
the package or the benchmark or exported from the package itself; every
field of an exported dataclass is read by the package or the benchmark."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil

import pytest

import qncfem

MODULES = ["qncfem"] + [
    f"qncfem.{info.name}" for info in pkgutil.iter_modules(qncfem.__path__)
]
SRC = pathlib.Path(qncfem.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _nodes():
    """Every AST node of the package and the benchmark."""
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        yield from ast.walk(ast.parse(path.read_text()))


def used_names() -> set:
    """Names read, imported or looked up as attributes in the package and
    the benchmark; definitions and `__all__` strings do not count."""
    used = set()
    for node in _nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if getattr(module, n, None) is None]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES[1:])
def test_exports_have_a_caller(name):
    used = used_names() | set(qncfem.__all__)
    unused = [n for n in importlib.import_module(name).__all__ if n not in used]
    assert not unused, f"{name}.__all__ names with no caller: {unused}"


@pytest.mark.parametrize("name", MODULES[1:])
def test_dataclass_fields_are_read(name):
    """A field that only the constructor sets, or only the tests read, is
    state the pipeline carries for nothing."""
    read = {node.attr for node in _nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    module = importlib.import_module(name)
    classes = [getattr(module, n) for n in module.__all__]
    unread = [f"{cls.__name__}.{f.name}" for cls in classes
              if dataclasses.is_dataclass(cls)
              for f in dataclasses.fields(cls) if f.name not in read]
    assert not unread, f"{name} dataclass fields that nothing reads: {unread}"

"""Every name a qncfem module exports in `__all__` exists, and is used by
the package or the benchmark or exported from the package itself; every
field of an exported dataclass is read by the package or the benchmark;
every module-level private name of the package is read by the package."""

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


def _nodes(dirs=(SRC, PERFBENCH)):
    """Every AST node of the package and the benchmark, or of `dirs`."""
    for path in [p for d in dirs for p in d.glob("*.py")]:
        yield from ast.walk(ast.parse(path.read_text()))


def used_names(dirs=(SRC, PERFBENCH)) -> set:
    """Names read, imported or looked up as attributes in the package and
    the benchmark, or in `dirs`; definitions and `__all__` strings do not
    count."""
    used = set()
    for node in _nodes(dirs):
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


def private_definitions():
    """(module, name) of every module-level function, class and constant of
    the package whose name starts with one underscore."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            yield from ((path.stem, n) for n in names
                        if n.startswith("_") and not n.startswith("__"))


def test_private_definitions_are_read():
    """A helper that a refactor left behind, read by no one in the package
    (tests do not count), is dead code."""
    read = used_names(dirs=(SRC,))
    unread = [f"{module}.{name}" for module, name in private_definitions()
              if name not in read]
    assert not unread, f"private names the package never reads: {unread}"


def test_only_refelem_applies_the_dof_set():
    """The dof set is `ReferenceElement.sampling`; the Vandermonde, the
    child transfer, the Q1 values and the interpolation transfer are its
    tabulated values, computed in refelem.  Anywhere else in the package
    or the benchmark, `.sampling` is read only as the argument of len()."""
    stray = []
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        if path == SRC / "refelem.py":
            continue
        tree = ast.parse(path.read_text())
        counted = {id(node.args[0]) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "len" and len(node.args) == 1}
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "sampling"
                  and id(node) not in counted]
    assert not stray, f"reads of the dof set outside refelem: {stray}"

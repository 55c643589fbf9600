"""Import lint: every name that a module of src/grquiver, tests/ or demos/
imports is referenced in that module (a name listed in `__all__` counts).
Packing lint: no module of src/grquiver or demos/ but grmod names the
packed cache storage, the shift-class key or the trusted constructors, so
their format stays behind `grmod._shift_cached` and only grmod builds a
module or map that skips the checks of `GradedModule` and `ModuleMap`.
Kernel lint: no module of src/grquiver builds a submodule as
`submodule_from_subspace(m, ....kernel_basis(mat))`, two eliminations where
`grmod.kernel_submodule(m, mat)` takes one."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SRC = sorted((ROOT / "src" / "grquiver").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py")) + DEMOS
PACKING = {"_Packed", "_packed", "_packed_action", "_unpacked",
           "_shift_class", "_frozen", "_thawed", "_trusted_module",
           "_trusted_map"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_lint_catches_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "print(os.path.sep)\n")
    assert unused_imports(source) == ["line 2: np", "line 4: dumps"]


def packing_references(source: str) -> list[str]:
    """The references to a name of PACKING, as a name, an attribute or an
    imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in PACKING:
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", [f for f in SRC + DEMOS
                                  if f.name != "grmod.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_packing_stays_in_grmod(path):
    assert packing_references(path.read_text()) == []


def test_lint_catches_packing_reference():
    source = ("from .grmod import _packed, _shift_cached, shift\n"
              "from . import grmod\n"
              "key = grmod._shift_class(m)\n"
              "build = _unpacked\n"
              "f = grmod._trusted_map(m, n, x)\n")
    assert packing_references(source) == [
        "line 1: _packed", "line 3: _shift_class", "line 4: _unpacked",
        "line 5: _trusted_map"]


def _called_name(node) -> str | None:
    """The name a call calls: f(...) or x.f(...) give f."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def kernel_submodule_detours(source: str) -> list[str]:
    """The calls of submodule_from_subspace whose basis argument is a call
    of kernel_basis."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if _called_name(node) == "submodule_from_subspace":
            bases = node.args[1:] + [k.value for k in node.keywords
                                     if k.arg == "basis"]
            if any(_called_name(b) == "kernel_basis" for b in bases):
                found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", SRC,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_kernel_submodules_take_one_elimination(path):
    assert kernel_submodule_detours(path.read_text()) == []


def test_lint_catches_kernel_submodule_detour():
    source = ("sub, _ = submodule_from_subspace(P, ff.kernel_basis(epi))\n"
              "grmod.submodule_from_subspace(\n"
              "    m, basis=m.field.kernel_basis(x.T))\n"
              "submodule_from_subspace(m, kernel)\n"
              "kernel_submodule(m, ff.kernel_basis(x).T)\n"
              "submodule_from_subspace(m, ff.column_space_basis(x))\n")
    assert kernel_submodule_detours(source) == ["line 1", "line 2"]

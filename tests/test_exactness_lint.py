"""Exactness lint: the library computes over F_p with Python and numpy
integers only, so no module of src/grquiver may hold a float literal, a
true division (`/` or `/=`), a call to `float`, or a use of `random`
outside `grmod._endo_candidates`, the last randomized routine."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "grquiver"
RANDOM_ALLOWED = {("grmod.py", "_endo_candidates")}


class _Lint(ast.NodeVisitor):
    def __init__(self, filename: str):
        self.filename = filename
        self.functions: list[str] = []
        self.findings: list[str] = []

    def flag(self, node: ast.AST, what: str) -> None:
        self.findings.append(f"{self.filename}:{node.lineno}: {what}")

    def visit_FunctionDef(self, node) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, (float, complex)):
            self.flag(node, f"float literal {node.value!r}")

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div):
            self.flag(node, "true division /")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Div):
            self.flag(node, "true division /=")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            self.flag(node, "call to float")
        self.generic_visit(node)

    def random_use(self, node: ast.AST) -> None:
        if not any((self.filename, f) in RANDOM_ALLOWED
                   for f in self.functions):
            self.flag(node, "use of random")

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "random":
            self.random_use(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "random":
            self.random_use(node)
        self.generic_visit(node)

    def visit_Import(self, node) -> None:
        if any(a.name.split(".")[0] == "random" or a.name.endswith(".random")
               for a in node.names):
            self.random_use(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        if mod.split(".")[0] == "random" or mod.endswith(".random") \
                or any(a.name == "random" for a in node.names):
            self.random_use(node)


def lint(path: pathlib.Path) -> list[str]:
    checker = _Lint(path.name)
    checker.visit(ast.parse(path.read_text(), filename=str(path)))
    return checker.findings


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_exact_arithmetic_only(path):
    assert lint(path) == []


def test_lint_catches_each_kind(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n"
                   "x = 1 / 2\n"
                   "x /= 2\n"
                   "y = 0.5\n"
                   "z = float(3)\n"
                   "def f(np):\n"
                   "    return np.random.default_rng(0)\n")
    kinds = [f.split(": ", 1)[1] for f in lint(bad)]
    assert kinds == ["use of random", "true division /", "true division /=",
                     "float literal 0.5", "call to float", "use of random"]

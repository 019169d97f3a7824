"""Every module-level import in the package modules is used.

Deleting code tends to leave its imports behind; this walks each module's
syntax tree (stdlib `ast`, nothing imported) and reports names bound by a
top-level import that the module never reads.  `__init__.py` is skipped
because its imports are the package's re-exports, and `__future__`
imports bind no name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "birkhoffsym"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, for each import statement at module level."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def read_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, including names inside quoted
    annotations such as -> "Permutation"."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    return names


def test_modules_found():
    assert {p.name for p in MODULES} >= {"perm.py", "exact.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, Sequence\n"
                     "def f(x: Optional[int]) -> 'Sequence': return x\n")
    assert imported_names(tree).keys() - read_names(tree) == {"os"}

"""Every module of the package, the tests and the scripts uses what it
imports, and every name the package exports exists."""

import ast
import importlib
from pathlib import Path

import pytest

import vcgames

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)


# the package modules that declare ``__all__`` (``__main__`` runs the CLI
# when imported, and neither it nor ``cli`` exports anything)
EXPORTING = sorted(
    path for path in (ROOT / "src" / "vcgames").glob("*.py") if "__all__" in path.read_text()
)


def _annotation_names(node: ast.AST) -> set[str]:
    """The names read by an annotation, including those inside a string
    annotation such as ``"Valuation"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in import order.  A name
    listed in the module's ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom typing import Sequence, Iterator\nx: 'Iterator[int]'\n"
    assert unused_imports(source) == ["os", "Sequence"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_exported_name_resolves(path):
    module = importlib.import_module("vcgames" if path.stem == "__init__" else f"vcgames.{path.stem}")
    assert module.__all__
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_are_unique():
    assert len(set(vcgames.__all__)) == len(vcgames.__all__)

"""Source hygiene: every name a library module imports is used there, and
only ``torus.py`` enumerates the T-basis lattice.

An AST scan stands in for a linter; ``__init__.py`` is exempt because its
imports are the package's re-exports.  Sums over the T-basis go through
``torus.pair_sum``, ``reconstruct`` and ``t_stack``; a module that calls
``lattice`` is writing one of those sums again as a loop nest.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "elliptop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_sees_modules():
    assert {p.name for p in MODULES} >= {"elliptic.py", "fourier.py", "models.py"}


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def lattice_references(source: str) -> list[int]:
    """Lines that name ``lattice``: an import of it, a call, or an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "lattice" for alias in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == "lattice") or (
                isinstance(node, ast.Attribute) and node.attr == "lattice"):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_lattice_scan_flags_a_reference():
    assert lattice_references("from .torus import T, lattice\n") == [1]
    assert lattice_references("from . import torus\nfor a in torus.lattice(3):\n"
                              "    pass\n") == [2]
    assert lattice_references('"""a lattice sum"""\nlattice_distance = 1\n') == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "torus.py"],
                         ids=lambda p: p.name)
def test_only_torus_enumerates_the_lattice(path):
    assert lattice_references(path.read_text()) == []

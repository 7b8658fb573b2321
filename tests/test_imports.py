"""Every import, every UPPER_CASE module constant and every module-level _private
function or class in the library is used (no linter runs on this tree), and
importing the library loads neither scipy.stats nor networkx; the acceptance gate
runs no pipeline trial loop of its own."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
MODULES = sorted(p for p in (SRC / "spanembed").glob("*.py")
                 if p.name != "__init__.py")   # __init__ imports to re-export


def _names(tree: ast.AST) -> set[str]:
    """Every name read in ``tree``, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _names(ast.parse(note.value, mode="eval"))
    return names


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
    used = _names(tree)
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_import_check_finds_unused_names():
    source = ("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
              "from typing import Iterable, Mapping\n"
              "def f(x: 'Iterable[int]') -> None:\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["line 2: np", "line 4: Mapping"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _reads(tree: ast.AST) -> set[str]:
    """Every name loaded or read as an attribute in ``tree``."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unread_constants(sources: list[str]) -> list[str]:
    """UPPER_CASE names assigned at module level in ``sources`` that none of them reads."""
    assigned, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            assigned |= {t.id for t in targets
                         if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)}
        read |= _reads(tree)
    return sorted(assigned - read)


def unread_private_helpers(sources: list[str]) -> list[str]:
    """Module-level ``_private`` functions and classes in ``sources`` that none of them reads."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")}
        read |= _reads(tree)
    return sorted(defined - read)


def test_unread_constant_check_finds_unread_names():
    sources = ["A = 1\nB_2: int = 2\nlower = 3\nC = A\ndef f():\n    D = 4\n",
               "import m\nprint(m.C)\n"]
    assert unread_constants(sources) == ["B_2"]


def test_library_constants_are_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted((SRC / "spanembed").glob("*.py"))]
    assert unread_constants(sources) == []


def test_unread_private_helper_check_finds_unread_names():
    sources = ["def _a():\n    pass\nclass _B:\n    pass\ndef _c():\n    return _a()\n"
               "def __d__():\n    pass\ndef e():\n    def _f():\n        pass\n",
               "import m\nprint(m._B)\n"]
    assert unread_private_helpers(sources) == ["_c"]


def test_library_private_helpers_are_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted((SRC / "spanembed").glob("*.py"))]
    assert unread_private_helpers(sources) == []


def test_import_loads_no_scipy_stats_or_networkx():
    # scipy.stats alone costs about 35 MB and 0.3 s per process; networkx is a test-only oracle
    code = ("import sys, spanembed, spanembed.cli; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['scipy', 'stats'] or m.split('.')[0] == 'networkx')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def called_names(source: str) -> set[str]:
    """The name of every function called in ``source``, bare or as an attribute."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_called_names_finds_bare_and_attribute_calls():
    source = "import m\nfrom m import f\nf(1)\nm.g(2)\nh = m.k\nh(3)(4)\n"
    assert called_names(source) == {"f", "g", "h"}


def test_acceptance_gate_runs_no_pipeline_trials_of_its_own():
    # pipeline statistics come from the library's estimators, which own the
    # one seed XOR i trial stream
    source = (Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8")
    assert "run_pipeline_once" not in called_names(source)

"""Source checks that stand in for a linter.

Each package module other than __init__.py must read every name that its
module-level imports bind; an import nobody reads is a dead line.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "centroflow"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unread_imports(source: str) -> list:
    """Names bound by the module-level imports of source that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    assert _unread_imports(path.read_text()) == []


def test_the_import_check_finds_an_unread_name():
    source = ("import math\nimport os.path\nfrom numpy import pi as PI, e\n"
              "from . import curve\n\ndef f():\n    return math.pi + e + curve.n\n")
    assert _unread_imports(source) == ["PI (line 3)", "os (line 2)"]
    assert len(MODULES) >= 10

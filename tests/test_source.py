"""Source checks that stand in for a linter.

Each package module other than __init__.py must read every name that its
module-level imports bind; an import nobody reads is a dead line, and so is a
module-level private name (`_name`) that no package module reads. No module
but spectral.py may name the transform kernels and their helpers, so every
transform and its trimming stay in spectral; and no module but trajectory.py
may name record_from_fields, so march's is the one record path. Every `module.name` that the
README quotes from a package module must exist, so the README cannot name a
removed function.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "centroflow"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
README = SRC.parents[1] / "README.md"


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


def _unread_private_names(sources: dict) -> list:
    """The module-level `_name` definitions of sources (module name -> source), a function,
    a class or an assignment, whose name no source reads: as a name, an attribute or an
    import. A private helper nobody calls is a dead line."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_every_private_module_level_name_is_read():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert _unread_private_names(sources) == []


def test_the_private_name_check_finds_an_unread_helper():
    sources = {
        "spectral": ("def _fused_pass(y):\n    return _rfft(y)\n\n"
                     "def _derivative_dealias(v):\n    return v\n\n"
                     "def _rfft(v):\n    return v\n\n_LEFT, _RIGHT = 1, 2\n"
                     "_TABLE: dict = {}\n__all__ = []\n\nclass _Tables:\n    pass\n"),
        "curvature_flow": ("from .spectral import _fused_pass\nfrom . import spectral\n\n"
                           "def _stage(y):\n    return _fused_pass(y), spectral._RIGHT\n\n"
                           "STAGE = _stage\n"),
    }
    assert _unread_private_names(sources) == [
        "spectral._LEFT", "spectral._TABLE", "spectral._Tables", "spectral._derivative_dealias"]


SPECTRAL_INTERNALS = ("_rfft", "_irfft", "_trim", "_tables")


def _named(source: str, names) -> list:
    """Those of names that source names: as a name, an attribute or an import."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                named.update(alias.name.split("."))
    return sorted(named.intersection(names))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "spectral.py"],
                         ids=lambda p: p.name)
def test_only_spectral_names_the_transform_kernels(path):
    assert _named(path.read_text(), SPECTRAL_INTERNALS) == []


def test_the_kernel_check_finds_a_name_an_attribute_and_an_import():
    source = ("from . import spectral\nfrom .spectral import _trim as t, _trimmed_spectrum\n"
              "import centroflow.spectral._tables\n\n"
              "def f(v):\n    return _irfft(spectral._rfft(v))\n")
    assert _named(source, SPECTRAL_INTERNALS) == ["_irfft", "_rfft", "_tables", "_trim"]
    assert _named("from .spectral import _trimmed_spectrum, derivative\n",
                  SPECTRAL_INTERNALS) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "trajectory.py"],
                         ids=lambda p: p.name)
def test_only_trajectory_names_record_from_fields(path):
    assert _named(path.read_text(), ("record_from_fields",)) == []


def test_the_record_path_check_finds_a_name_an_attribute_and_an_import():
    for source in ("from .trajectory import march, record_from_fields\n",
                   "from . import trajectory\n\nRECORD = trajectory.record_from_fields\n",
                   "def gather(s):\n    return record_from_fields(s.t, s.g, s.phi, 0.0)\n"):
        assert _named(source, ("record_from_fields",)) == ["record_from_fields"]
    assert _named("from .trajectory import COLUMNS, march\n", ("record_from_fields",)) == []


def _unresolved_references(text: str) -> tuple:
    """(references, unresolved): the `module.name` references of text to a package
    module, a dotted name after the module allowed, and those the package lacks."""
    modules = "|".join(p.stem for p in MODULES)
    refs = re.findall(rf"`((?:{modules})(?:\.\w+)+)", text)
    unresolved = []
    for ref in refs:
        module, *names = ref.split(".")
        target = importlib.import_module(f"centroflow.{module}")
        for name in names:
            if not hasattr(target, name):
                unresolved.append(ref)
                break
            target = getattr(target, name)
    return refs, unresolved


def test_every_readme_reference_to_a_module_name_resolves():
    refs, unresolved = _unresolved_references(README.read_text())
    assert len(refs) >= 12
    assert unresolved == []


def test_the_readme_check_finds_a_removed_name():
    text = ("`io.write_csv` and `trajectory.FlowTrajectory.column(name)` stay; "
            "`io.write_tsv`, `trajectory.FlowTrajectory.rows` and `np.fft.rfft`")
    assert _unresolved_references(text) == (
        ["io.write_csv", "trajectory.FlowTrajectory.column", "io.write_tsv",
         "trajectory.FlowTrajectory.rows"],
        ["io.write_tsv", "trajectory.FlowTrajectory.rows"])

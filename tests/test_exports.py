import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import rispaces

MODULES = sorted(m.name for m in pkgutil.iter_modules(rispaces.__path__))


def test_modules_found():
    assert {"experiments", "orlicz", "spaces", "stepfn", "weights", "rademacher"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    module = importlib.import_module(f"rispaces.{name}")
    namespace = {}
    exec(f"from rispaces.{name} import *", namespace)
    missing = [n for n in getattr(module, "__all__", ()) if n not in namespace]
    assert not missing


def _absolute_imports(path: Path) -> list:
    """The top-level names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


SOURCES = sorted(Path(rispaces.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    # neither scipy nor mpmath, nor any other third-party package, in src/
    foreign = [name for name in _absolute_imports(path)
               if name != "numpy" and name not in sys.stdlib_module_names]
    assert not foreign


def test_import_guard_sees_foreign_imports(tmp_path):
    assert {"orlicz.py", "experiments.py"} <= {p.name for p in SOURCES}
    path = tmp_path / "mod.py"
    path.write_text("import os\nfrom . import x\ndef f():\n    import scipy.special\n"
                    "    from mpmath import mp\n", encoding="utf-8")
    assert _absolute_imports(path) == ["os", "scipy", "mpmath"]

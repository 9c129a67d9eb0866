import importlib
import pkgutil

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

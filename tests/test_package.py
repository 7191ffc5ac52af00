import importlib
import pkgutil

import pytest

import tempomine

# The package re-exports every library module's __all__; the CLI is the
# entry point, imported on its own.
MODULES = [m.name for m in pkgutil.iter_modules(tempomine.__path__) if m.name != "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_is_the_package_surface(name):
    module = importlib.import_module(f"tempomine.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert getattr(tempomine, attr) is getattr(module, attr), attr


def test_each_public_name_has_one_home():
    homes = {}
    for name in MODULES:
        for attr in importlib.import_module(f"tempomine.{name}").__all__:
            assert attr not in homes, f"{attr} is in {homes[attr]}.__all__ and {name}.__all__"
            homes[attr] = name


def test_cli_import_leaves_numpy_random_unloaded(fresh_python):
    # NumPy 2 loads numpy.random on first use; loading it at import would
    # add to every CLI call, the fresh-process predict included.
    proc = fresh_python("-c", "import sys, tempomine.cli; print('numpy.random' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

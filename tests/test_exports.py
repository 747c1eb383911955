import importlib
import pkgutil

import pytest

import lundberg


def test_package_exports_exactly_the_module_public_names():
    # every library module declares its public names; the command-line module is not library API
    names = [m.name for m in pkgutil.iter_modules(lundberg.__path__)
             if not m.name.startswith("_") and m.name != "cli"]
    modules = [importlib.import_module(f"lundberg.{name}") for name in names]
    assert all(hasattr(module, "__all__") for module in modules)
    declared = [name for module in modules for name in module.__all__]
    assert len(lundberg.__all__) == len(set(lundberg.__all__))
    assert sorted(lundberg.__all__) == sorted(declared)
    listed = dir(lundberg)
    for module in modules:
        for name in module.__all__:
            # the package hands out the submodule's own binding, not a copy
            assert getattr(lundberg, name) is getattr(module, name)
            assert name in listed
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        lundberg.not_a_name

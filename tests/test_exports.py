import importlib
import inspect
import pkgutil

import lundberg


def test_package_exports_exactly_the_module_public_names():
    # every library module declares its public names; the command-line module is not library API
    names = [m.name for m in pkgutil.iter_modules(lundberg.__path__)
             if not m.name.startswith("_") and m.name != "cli"]
    modules = [importlib.import_module(f"lundberg.{name}") for name in names]
    assert all(hasattr(module, "__all__") for module in modules)
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    exported = {name for name, value in vars(lundberg).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(declared)

"""The package namespace republishes each module's public names.

Every module declares its public names once, in its own ``__all__``;
``topodist`` exports exactly their union.  The command-line module is the
one exception: its ``main`` is an entry point, not library API.
"""

import importlib
import pkgutil

import topodist

MODULES = [
    importlib.import_module(f"topodist.{info.name}")
    for info in pkgutil.iter_modules(topodist.__path__)
    if info.name != "cli"
]


def test_exports_are_the_union_of_the_modules_names():
    assert len(topodist.__all__) == len(set(topodist.__all__))
    assert set(topodist.__all__) == {name for m in MODULES for name in m.__all__}


def test_each_export_is_the_object_its_module_defines():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__, name
            assert getattr(topodist, name) is obj, name


def test_wasserstein_is_the_function_not_its_module():
    module = importlib.import_module("topodist.wasserstein")
    assert topodist.wasserstein is module.wasserstein


def test_the_command_line_entry_point_is_not_exported():
    assert "main" not in topodist.__all__
    assert not hasattr(topodist, "main")

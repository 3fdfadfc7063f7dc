"""Every exported name resolves, so a deleted function cannot linger in an ``__all__``; only the CLI formats reports."""

import importlib
import inspect
import pkgutil

import pytest

import pptedge

# __main__ runs the command line on import; cli and exceptions declare no __all__
SUBMODULES = [
    importlib.import_module(f"pptedge.{info.name}")
    for info in pkgutil.iter_modules(pptedge.__path__)
    if info.name != "__main__"
]
MODULES = [pptedge] + [m for m in SUBMODULES if hasattr(m, "__all__")]


def test_every_library_module_is_checked():
    assert {m.__name__ for m in MODULES} >= {
        "pptedge",
        *(f"pptedge.{n}" for n in ("bipartite", "catalog", "criteria", "linalg", "optimize", "serialize", "witness")),
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = []
    for name in module.__all__:
        try:
            getattr(module, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("module", [m for m in SUBMODULES if m.__name__ != "pptedge.cli"], ids=lambda m: m.__name__)
def test_library_classes_write_no_report(module):
    # library results are plain records: the report blocks built from them are the command line's
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__]
    assert [c.__name__ for c in classes if hasattr(c, "to_dict") or hasattr(c, "metadata")] == []

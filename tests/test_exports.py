"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import sweepslide

MODULES = ["sweepslide"] + [f"sweepslide.{m.name}"
                            for m in pkgutil.iter_modules(sweepslide.__path__)
                            if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []

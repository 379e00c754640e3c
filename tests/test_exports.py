"""Every exported name resolves, so a deletion cannot leave a stale export, and the
CLI imports nothing beyond its one declared runtime dependency."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


# Run in a fresh interpreter: the top-level modules that importing the CLI
# loads beyond those numpy alone loads.
_NEW_MODULES = """
import sys
import numpy
before = {name.partition(".")[0] for name in sys.modules}
import sweepslide.cli
print(*sorted({name.partition(".")[0] for name in sys.modules} - before))
"""


def test_the_cli_imports_only_numpy_and_the_standard_library():
    # numpy is the only runtime dependency pyproject.toml declares.
    package_root = str(Path(sweepslide.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _NEW_MODULES], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "sweepslide" in loaded
    assert [name for name in loaded
            if name != "sweepslide" and name not in sys.stdlib_module_names] == []

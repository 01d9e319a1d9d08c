"""Every ``repro`` subpackage imports on its own in a fresh interpreter.

An import cycle only shows when the cycle's entry module is the first
``repro`` module imported, which a test session that already imported
everything cannot see — so each import runs in its own subprocess.
The same subprocess checks that the import loads nothing from an
installed third-party package: the package runs on the stdlib alone.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
SUBPACKAGES = sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


# Imports the subpackage, then prints every module the import loaded
# from an installed package.  Modules already loaded at interpreter
# start (``.pth`` hooks in site-packages) are not the import's doing.
_PROBE = """
import sys
before = set(sys.modules)
import {name}
for module_name in sorted(set(sys.modules) - before):
    path = getattr(sys.modules[module_name], "__file__", None) or ""
    if "site-packages" in path or "dist-packages" in path:
        print(module_name, path)
"""


def test_subpackages_discovered():
    assert {"repro.sim", "repro.hardware", "repro.net",
            "repro.obs"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(name=name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert not proc.stdout, f"{name} loads installed packages:\n{proc.stdout}"

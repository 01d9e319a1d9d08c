"""Every ``repro`` subpackage imports on its own in a fresh interpreter.

An import cycle only shows when the cycle's entry module is the first
``repro`` module imported, which a test session that already imported
everything cannot see — so each import runs in its own subprocess.
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


def test_subpackages_discovered():
    assert {"repro.sim", "repro.hardware", "repro.net",
            "repro.obs"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

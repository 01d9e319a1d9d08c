"""Layer attribution measured from outside the program.

* :func:`fold_profile` folds ``cProfile`` self-time per ``repro``
  subpackage (the layers), the standard library (including builtins such
  as the C json encoder), and an unattributed remainder.
* :func:`import_split` charges ``python -X importtime`` self-time in a
  fresh interpreter to the ``repro`` subpackage that first pulls each
  module in (scipy, imported by ``repro.analysis``, goes to
  ``analysis``).
"""

from __future__ import annotations

import os
import pstats
import re
import subprocess
import sys
import sysconfig

from common import SRC

#: The program's layers: every subpackage of ``src/repro``.
LAYERS = ("analysis", "apps", "core", "devices", "experiments", "fleet",
          "hardware", "net", "obs", "perf", "powerscope", "service",
          "sim", "snapshot", "workloads")
#: Buckets outside the layers.  ``stdlib`` is code the interpreter
#: ships; ``unattributed`` is the rest (top-level ``repro`` modules,
#: the benchmark itself, third-party packages).
OUTSIDE = ("stdlib", "unattributed")

_REPRO_DIR = os.path.join(os.path.realpath(SRC), "repro") + os.sep
_STDLIB_DIRS = tuple(
    os.path.realpath(path) + os.sep
    for path in {sysconfig.get_paths()["stdlib"],
                 sysconfig.get_paths()["platstdlib"]}
)
_SITE = ("site-packages", "dist-packages")


def classify(filename):
    """The bucket a profiled function's source file belongs to."""
    if filename == "~" or filename.startswith("<frozen"):
        return "stdlib"
    path = os.path.realpath(filename)
    if path.startswith(_REPRO_DIR):
        head = path[len(_REPRO_DIR):].split(os.sep, 1)
        if len(head) == 2 and head[0] in LAYERS:
            return head[0]
        return "unattributed"
    if path.startswith(_STDLIB_DIRS) and not any(s in path for s in _SITE):
        return "stdlib"
    return "unattributed"


def fold_profile(profiles):
    """``({bucket: self_s}, {(file, func): cumulative_s})`` over profiles.

    Builtins (C functions, file ``~``) are charged to the buckets of
    their callers, in proportion to the time each caller spent in them:
    ``dict.get`` called from the simulator is simulator time, while the
    C json encoder called from ``json.encoder`` stays stdlib time.
    """
    stats = pstats.Stats(profiles[0])
    for extra in profiles[1:]:
        stats.add(extra)
    self_s = dict.fromkeys(LAYERS + OUTSIDE, 0.0)
    cumulative = {}
    for (filename, _line, func), row in stats.stats.items():
        _cc, _nc, tottime, cumtime, callers = row
        if filename == "~" and callers:
            shares = {caller: timing[2] for caller, timing in callers.items()}
            spread = sum(shares.values())
            for caller, share in shares.items():
                weight = share / spread if spread else 1.0 / len(shares)
                self_s[classify(caller[0])] += tottime * weight
        else:
            self_s[classify(filename)] += tottime
        key = (os.path.basename(filename), func)
        cumulative[key] = cumulative.get(key, 0.0) + cumtime
    return self_s, cumulative


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def _layer_of(module):
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return None


def parse_importtime(text):
    """Charge each module's self time to its innermost ``repro`` layer.

    ``-X importtime`` prints the import tree in post-order (children
    before their parent, deeper indentation for children); reversed, it
    is a pre-order walk, so a depth stack gives every module's ancestors.
    Modules outside every layer's subtree are charged to ``repro``.
    """
    rows = []
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            rows.append((len(match.group(3)) // 2, match.group(4),
                         int(match.group(1)) / 1e6))
    charged = dict.fromkeys(LAYERS + ("repro",), 0.0)
    stack = []  # (depth, owning layer or None)
    for depth, module, self_s in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner = _layer_of(module) or (stack[-1][1] if stack else None)
        stack.append((depth, owner))
        charged[owner or "repro"] += self_s
    return charged


IMPORT_RUNS = 3


def import_split():
    """Median per-layer import seconds over :data:`IMPORT_RUNS` fresh
    interpreters.

    Every layer is imported in alphabetical order in one interpreter;
    ``repro.apps`` comes before ``repro.hardware``/``repro.sim``, which
    cannot be imported first on their own (a circular import).
    """
    code = "; ".join(f"import repro.{layer}" for layer in LAYERS)
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {key: sorted(run[key] for run in runs)[len(runs) // 2]
            for key in runs[0]}

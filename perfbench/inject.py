"""Deliberate slowdowns for the layer-sensitivity self-test.

``inject("advance")`` makes every ``Machine.advance`` call 30% slower;
``inject("chrome")`` does the same to ``write_chrome_trace``.  The
extra time is a pure-Python spin loop in a wrapper compiled with the
wrapped function's own source file name, so ``cProfile`` charges it to
the layer that owns the function — as a real regression there would
be.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import time

SLOWDOWN = 0.30

_WRAPPER = """
def wrapper(*args, **kwargs):
    began = clock()
    result = original(*args, **kwargs)
    for _ in spin((clock() - began) * rate):
        pass
    return result
"""


def _spin_rate():
    """Spin-loop iterations per second on this host."""
    n = 200_000
    began = time.perf_counter()
    for _ in range(n):
        pass
    return n / (time.perf_counter() - began)


def slow_down(owner, name):
    """Replace ``owner.name`` with a wrapper :data:`SLOWDOWN` slower."""
    original = getattr(owner, name)
    namespace = {"clock": time.perf_counter, "original": original,
                 "rate": SLOWDOWN * _spin_rate(),
                 "spin": lambda n: range(int(n))}
    code = compile(_WRAPPER, original.__code__.co_filename, "exec")
    exec(code, namespace)  # noqa: S102 — fixed source above
    wrapper = namespace["wrapper"]
    wrapper.__name__ = original.__name__
    setattr(owner, name, wrapper)


def inject(target):
    if target == "advance":
        # repro.hardware cannot be the first repro package imported (a
        # circular import); repro.apps loads it in a working order.
        import repro.apps  # noqa: F401
        from repro.hardware.machine import Machine

        slow_down(Machine, "advance")
    elif target == "chrome":
        from repro.obs import export

        slow_down(export, "write_chrome_trace")
    else:
        raise ValueError(f"unknown injection target {target!r}")

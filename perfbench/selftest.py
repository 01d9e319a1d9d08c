"""Layer-sensitivity self-test of the benchmark.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--seed 1]

Injects 30% slowdowns at run time (see ``inject.py``; nothing under
``src/`` changes) and checks that the benchmark sees them where
``workloads.json`` says each workload exercises or bypasses a layer:

* ``Machine.advance`` (``hardware``) slowed: paper-tables exercises
  ``hardware``, so its ``wall_ref_s`` must cross its bound, and the
  traced run must name ``hardware`` as the layer whose self time grew
  most.
* ``write_chrome_trace`` (``obs``) slowed: goal-traced exercises
  ``obs``, so its traced run must name ``obs``; paper-tables bypasses
  ``obs``, so its ``wall_ref_s`` must stay within its bound.

The bound applies to medians over runs, and one run of paper-tables
differs from the next by up to about 15% on a shared host, so the
``wall_ref_s`` change is the median, over :data:`RUNS` seeds from
``--seed`` on, of each seed's slowed run against its own base run.
Each traced check is one run at ``--seed``.

Exits 0 when all four checks hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT, load_config
from layers import LAYERS

#: Each injectable slowdown and the layer that owns the slowed function.
INJECTED_LAYER = {"advance": "hardware", "chrome": "obs"}
RUNS = 3


def run(config, workload, seed, trace, inject=None):
    cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(config["run_seconds"]),
                               "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} (inject={inject}) failed")
    metrics = json.loads(lines[-1])["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()}


def blamed_layer(base, slowed):
    """The layer whose per-pass self time grew the most."""
    growth = {layer: slowed[f"{layer}.self_s"] - base[f"{layer}.self_s"]
              for layer in LAYERS}
    return max(growth, key=growth.get), growth


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    config = load_config()
    bound = next(m["bound"] for m in config["end_to_end"]
                 if m["name"] == "wall_ref_s")
    with open(os.path.join(BENCH_DIR, "workloads.json"),
              encoding="utf-8") as handle:
        described = json.load(handle)
    seed = args.seed
    results = []

    paper = described["paper-tables"]
    seeds = range(seed, seed + RUNS)
    base = {s: run(config, "paper-tables", s, 0)["wall_ref_s"] for s in seeds}
    for inject, layer in INJECTED_LAYER.items():
        if layer not in paper["exercises"] + paper["bypasses"]:
            raise SystemExit(f"workloads.json: paper-tables lists {layer} "
                             f"neither as exercised nor as bypassed")
        change = statistics.median(
            run(config, "paper-tables", s, 0, inject)["wall_ref_s"] / base[s]
            - 1.0 for s in seeds)
        crossed = change > bound
        results.append((f"paper-tables wall_ref_s with {inject} slowed: "
                        f"{change:+.1%} vs bound {bound:.0%}",
                        crossed == (layer in paper["exercises"])))

    for workload, inject in (("paper-tables", "advance"),
                             ("goal-traced", "chrome")):
        layer = INJECTED_LAYER[inject]
        traced = run(config, workload, seed, 1)
        slowed = run(config, workload, seed, 1, inject)
        blamed, growth = blamed_layer(traced, slowed)
        results.append((f"{workload} traced with {inject} slowed: blames "
                        f"{blamed} (+{growth[blamed]:.3f} s/pass)",
                        blamed == layer
                        and layer in described[workload]["exercises"]))

    for line, ok in results:
        print(f"[{'ok' if ok else 'FAIL'}] {line}")
    return 0 if all(ok for _line, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())

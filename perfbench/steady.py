"""Steadiness check: run the benchmark as two sets and compare them.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10]

Each of two sets runs every workload once per seed (seeds 1 to
``--seeds``, the same seeds in both sets) for ``run_seconds`` through
the command in ``BENCHMARK.json``.  For each end-to-end metric and
workload it prints every set's median and quartiles, the spread
(interquartile distance over the median), and whether the sets agree:
every spread is within the metric's bound, and the second set's median
is not worse than the first set's by more than the bound.  Metric names
outside ``[A-Za-z0-9_.-]`` are rejected before anything runs.

Exits 0 when every run passed its output checks and every comparison
holds; the raw values are written to ``.perfbench/steady-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import METRIC_NAME, OUT_DIR, ROOT, load_config, quartiles

SETS = 2


def check_names(config):
    """Names in ``BENCHMARK.json`` that break the metric-name rule."""
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in config[key]]
    names += [w["name"] for w in config["workloads"]]
    bad = [name for name in names if not METRIC_NAME.match(name)]
    seen = set()
    bad += [name for name in names if name in seen or seen.add(name)]
    return bad


def run_once(config, workload, seed, seconds, trace):
    cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds),
                               "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    lines = proc.stdout.strip().splitlines()
    document = json.loads(lines[-1]) if lines else None
    ok = (proc.returncode == 0 and document is not None
          and document["correct"] and document["failed"] == 0)
    if not ok:
        sys.stderr.write(proc.stderr[-2000:])
    return ok, document


def compare(config, values, workloads):
    """Rows of ``(workload, metric, per-set stats, verdicts)``."""
    rows, ok = [], True
    for workload in workloads:
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for index in range(SETS):
                series = values[index][workload].get(name, [])
                if not series:
                    continue
                q1, median, q3 = quartiles(series)
                stats.append({"q1": q1, "median": median, "q3": q3,
                              "spread": (q3 - q1) / median if median else 0.0})
            if len(stats) < SETS:
                ok = False
                rows.append((workload, name, stats, ["missing"]))
                continue
            verdicts = []
            worst = max(s["spread"] for s in stats)
            if worst > bound:
                verdicts.append(f"spread {worst:.3f} > {bound}")
            elif worst > bound / 3:
                verdicts.append(f"spread {worst:.3f} > bound/3")
            first = stats[0]["median"]
            for later in stats[1:]:
                change = (later["median"] - first) / first if first else 0.0
                if metric["better"] == "higher":
                    change = -change
                if change > bound:
                    verdicts.append(f"set median worse by {change:.3f}")
            if any(not v.endswith("bound/3") for v in verdicts):
                ok = False
            rows.append((workload, name, stats, verdicts))
    return rows, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    config = load_config()
    bad = check_names(config)
    if bad:
        print(f"rejected: bad or duplicate names: {', '.join(bad)}",
              file=sys.stderr)
        return 2
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in config["workloads"]])
    seconds = config["run_seconds"]
    seeds = range(1, args.seeds + 1)
    values = [{w: {} for w in workloads} for _ in range(SETS)]
    runs_ok = True
    for index in range(SETS):
        for workload in workloads:
            for seed in seeds:
                ok, document = run_once(config, workload, seed, seconds, 0)
                runs_ok &= ok
                if document is None:
                    continue
                for name, metric in document["metrics"].items():
                    if not METRIC_NAME.match(name):
                        print(f"rejected: metric name {name!r}",
                              file=sys.stderr)
                        return 2
                    values[index][workload].setdefault(name, []).append(
                        metric["value"])
                print(f"set {index + 1} {workload} seed {seed}: "
                      + ("ok" if ok else "FAILED") + "  "
                      + "  ".join(f"{k}={m['value']:.4g}"
                                  for k, m in document["metrics"].items()),
                      flush=True)
    rows, agree = compare(config, values, workloads)
    print()
    print(f"{'workload':<16}{'metric':<14}"
          + "".join(f"{'set ' + str(i + 1) + ' q1/median/q3 (spread)':>44}"
                    for i in range(SETS)) + "  verdict")
    for workload, name, stats, verdicts in rows:
        cells = "".join(
            f"{s['q1']:>12.4g}{s['median']:>11.4g}{s['q3']:>11.4g}"
            f" ({s['spread']:.3f})" for s in stats)
        print(f"{workload:<16}{name:<14}{cells}  "
              + ("; ".join(verdicts) or "ok"))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"steady-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seeds": list(seeds), "seconds": seconds,
                   "values": values}, handle, indent=1)
        handle.write("\n")
    print(f"raw values: {os.path.relpath(path, ROOT)}")
    return 0 if runs_ok and agree else 1


if __name__ == "__main__":
    sys.exit(main())

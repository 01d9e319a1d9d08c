"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-tables --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``
(set-up time and seconds per pass at the reference host speed, peak
RSS); ``--trace 1`` runs the same workload traced and prints every
per-layer metric.  The last line of stdout is ``{"correct",
"attempted", "failed", "metrics"}``; a human-readable summary goes to
stderr.  The exit code is 0 only when
every output check passed.

Set-up time is measured from process start to the first timed pass
being ready: two probe processes that set up and exit, plus the
measuring process itself, each timed by this launcher.  Like the pass
times, each set-up time has its CPU part (the CPU seconds the process
reports at ready) scaled to the reference host speed by the scale
factor of the host-speed samples the process took around and during
its set-up (their own time excluded); the median of the three is
reported, and the raw median goes to stderr.  The launcher itself never
imports the program.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import (BENCH_DIR, ROOT, SRC, WORKLOADS, at_reference,
                    load_config, program_present)

#: Whole-run budget; a run that cannot finish in it is killed and fails.
DEADLINE_S = 170.0
SETUP_PROBES = 2


class ChildFailed(RuntimeError):
    pass


def _child(args, deadline, probe=False):
    """Run ``bench.py`` once.

    Returns ``(setup, result or None)``: set-up's wall seconds (less
    the host-speed samples' time), its CPU seconds, and its host-speed
    scale factor.
    """
    cmd = [sys.executable, os.path.join(BENCH_DIR, "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    if args.inject:
        cmd += ["--inject", args.inject]
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    setup = result = None
    timer = _Watchdog(proc, deadline)
    try:
        for line in proc.stdout:
            if line.startswith("@@ready "):
                ready = json.loads(line[len("@@ready "):])
                setup = (time.perf_counter() - began - ready["sampled_s"],
                         ready["cpu_s"], ready["host_factor"])
            elif line.startswith("@@result "):
                result = json.loads(line[len("@@result "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if timer.fired:
        raise ChildFailed(f"{args.workload}: run exceeded {DEADLINE_S:.0f} s")
    if code != 0 or setup is None or (not probe and result is None):
        raise ChildFailed(f"{args.workload}: benchmark process exited "
                          f"with code {code}")
    return setup, result


class _Watchdog:
    """Kill a child's whole process group if it outlives the deadline."""

    def __init__(self, proc, deadline):
        self.fired = False
        self._proc = proc
        self._timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                      self._kill)
        self._timer.daemon = True
        self._timer.start()

    def _kill(self):
        self.fired = True
        try:
            os.killpg(self._proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def cancel(self):
        self._timer.cancel()
        self._timer.join()


def _compile_sources():
    """Byte-compile the program once, so no timed set-up pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=120)


def measure(args):
    """Run the workload; return the result document and exit code."""
    deadline = time.monotonic() + DEADLINE_S
    config = load_config()
    _compile_sources()
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup.append(_child(args, deadline, probe=True)[0])
    own_setup, result = _child(args, deadline)
    setup.append(own_setup)
    measured = dict(result["metrics"])
    if args.trace:
        names = [(m["name"], m["unit"]) for m in config["per_layer"]]
    else:
        measured["setup_s"] = statistics.median(
            at_reference(*stretch) for stretch in setup)
        print(f"host set-up seconds: "
              f"{statistics.median(stretch[0] for stretch in setup):.4f}",
              file=sys.stderr)
        names = [(m["name"], m["unit"]) for m in config["end_to_end"]]
    missing = [name for name, _unit in names if name not in measured]
    if missing:
        raise ChildFailed(f"metrics not measured: {', '.join(missing)}")
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in names}
    correct = result["failed"] == 0
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if "wall_s" in measured:
        print(f"host wall seconds per pass: {measured['wall_s']:.4f}",
              file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['passes']} passes, "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4f})",
          file=sys.stderr)
    document = {"correct": correct, "attempted": result["attempted"],
                "failed": result["failed"], "metrics": metrics}
    return document, (0 if correct else 1)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see BENCHMARK.json).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("advance", "chrome"),
                        help="slow one program function by 30%% "
                             "(used by selftest.py)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not program_present():
        print(f"error: no program under {SRC}; run from the root of a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    try:
        document, code = measure(args)
    except (ChildFailed, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(document))
    return code


if __name__ == "__main__":
    sys.exit(main())

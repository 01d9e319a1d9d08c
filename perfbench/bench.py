"""One benchmark process: set up a workload, run timed passes, report.

Started by ``run.py``; not meant to be run by hand.  The process speaks
a line protocol on stdout (lines starting with ``@@``): ``@@ready
<json>`` as soon as set-up is done, so the launcher can time set-up
from process start, and ``@@result <json>`` at the end.  Anything else
the program prints is passed through to stderr by the launcher.

Set-up and, untraced, every pass are timed as host-speed stretches
(``common.HostSpeed``): sampled just before and after and, unless the
workload runs work in the background while it waits, every 0.1 s of CPU
inside, each segment between two samples scaled by them to the
reference host speed.  ``@@ready`` carries the CPU seconds set-up used,
its scale factor and the seconds its samples took, so the launcher can
scale set-up as measured from process start (the samples are pure CPU
work, so their time comes off both the wall and the CPU seconds).
Untraced (``--trace 0``) the process only times passes: ``wall_ref_s``
is the mean reference seconds per pass.  Traced (``--trace 1``) it runs
the first half of its time with spans recorded around every call into a
layer, then the second half under ``cProfile`` as well; the ratio of
the two pass times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

from common import OUT_DIR, HostSpeed, Spans, tail, use_program_source
from workloads import WORKLOAD_CLASSES, Pass


def _emit(tag, payload=None):
    line = f"@@{tag}" if payload is None else f"@@{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _run_passes(workload, seconds, tag, profiles=None, host=None,
                during=False):
    """Time passes until ``seconds`` elapse (at least one pass).

    Returns the wall seconds of every pass; with ``host``, every pass's
    seconds at the reference host speed (else an empty list), the host
    sampled inside the pass too if ``during``; and the pass results.
    Each pass starts from a collected heap, so no pass pays for garbage
    the one before it left.  Host speed samples' own time is left out
    of the pass.
    """
    walls, refs, results = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        op = f"{tag}{len(walls)}"
        profile = cProfile.Profile() if profiles is not None else None
        gc.collect()
        if host is not None:
            host.begin(during=during)
        began = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            result = workload.run_pass(op)
        except Exception as exc:  # noqa: BLE001 — a failed pass is a result
            result = Pass()
            result.check(False, f"pass {op}: {type(exc).__name__}: {exc}")
        if profile is not None:
            profile.disable()
            profiles.append(profile)
        if host is not None:
            stretch = host.end()
            walls.append(stretch.wall)
            refs.append(stretch.ref)
        else:
            walls.append(time.perf_counter() - began)
        if result.events:
            from repro.obs.diff import decision_spine

            result.counts["decisions"] = sum(len(decision_spine(events))
                                             for events in result.events)
            result.events.clear()
        results.append(result)
    return walls, refs, results


def _mean(values):
    return sum(values) / len(values)


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _per_pass(results, key):
    return _median([r.counts.get(key, 0) for r in results])


def layer_metrics(spans, results, profiles, walls_a, walls_b,
                  final, imports):
    """Every per-layer metric of ``BENCHMARK.json`` for one traced run.

    Span times and counts are from the spans-only half (``results``);
    self time and cumulative function time are from the profiled half.
    ``experiments.cell_s.*`` and ``service.{submit,status,result}_s`` are
    medians per call, ``snapshot.*_mean_s`` means per capture or fork,
    the ``service.*_job_*`` latencies per job, and every other time is
    seconds per pass.  Layers a workload does not reach read 0.
    """
    from layers import LAYERS, OUTSIDE, fold_profile

    out = {}
    passes_a = len(walls_a)

    def per_pass_span(name):
        return sum(spans.durations(name)) / passes_a

    self_s, cumulative = fold_profile(profiles)
    total = sum(self_s.values()) or 1.0
    for bucket in LAYERS + OUTSIDE:
        out[f"{bucket}.self_s"] = self_s[bucket] / len(profiles)
        out[f"{bucket}.self_share"] = self_s[bucket] / total
    for key, value in imports.items():
        out[f"{key}.import_s"] = value
    untraced, traced = _median(walls_a), _median(walls_b)
    out["trace.untraced_pass_s"] = untraced
    out["trace.traced_pass_s"] = traced
    out["trace.overhead_ratio"] = traced / untraced if untraced else 0.0

    for figure in ("video", "speech", "map", "web"):
        out[f"experiments.cell_s.{figure}"] = _median(
            spans.durations(f"experiments.cell.{figure}"))
    out["experiments.paper_bands_met"] = _per_pass(results, "paper_bands_met")
    out["powerscope.fold_phase_s"] = cumulative.get(
        ("phases.py", "fold_phase_energy"), 0.0) / len(profiles)

    out["core.decisions"] = _per_pass(results, "decisions")
    for step in ("record", "write_jsonl", "write_chrome", "join", "signature",
                 "verify"):
        out[f"obs.{step}_s"] = per_pass_span(f"obs.{step}")
    out["obs.events"] = _per_pass(results, "events")
    out["obs.trace_bytes"] = _per_pass(results, "trace_bytes")

    captures = _per_pass(results, "captures")
    forks = _per_pass(results, "forks")
    out["snapshot.captures"] = captures
    out["snapshot.forks"] = forks
    out["snapshot.capture_mean_s"] = (
        _per_pass(results, "capture_sum_s") / captures if captures else 0.0)
    out["snapshot.fork_mean_s"] = (
        _per_pass(results, "fork_sum_s") / forks if forks else 0.0)

    out["devices.generate_s"] = per_pass_span("devices.generate")
    out["devices.fold_s"] = per_pass_span("devices.fold")
    run_s = per_pass_span("fleet.run")
    busy_s = _per_pass(results, "busy_s")
    out["fleet.run_s"] = run_s
    out["fleet.busy_s"] = busy_s
    out["fleet.overhead_s"] = run_s - busy_s if run_s else 0.0
    out["fleet.retries"] = _per_pass(results, "retries")
    cached = sum(r.counts.get("cached", 0) for r in results)
    tasks = sum(r.counts.get("tasks", 0) for r in results)
    out["fleet.cache_hit_ratio"] = cached / tasks if tasks else 0.0

    for call in ("submit", "status", "result"):
        out[f"service.{call}_s"] = _median(spans.durations(f"service.{call}"))
    out["service.polls_per_job"] = 0.0
    out["service.tasks_coalesced"] = final.counts.get("tasks_coalesced", 0)
    out["service.worker_peak_rss_mb"] = final.counts.get(
        "worker_peak_rss_mb", 0.0)
    for kind in ("cold", "cached"):
        for key in ("p50_s", "tail_s", "tail_pct", "samples"):
            out[f"service.{kind}_job_{key}"] = 0.0
    return out


def service_metrics(workload):
    """Job latencies and cache use of the service-stream workload so far."""
    out = {"service.polls_per_job": _median(workload.polls),
           "fleet.cache_hit_ratio": (workload.cache_hits / workload.tasks
                                     if workload.tasks else 0.0)}
    for kind, values in workload.latency.items():
        if not values:
            continue
        pct, value, samples = tail(values)
        out[f"service.{kind}_job_p50_s"] = statistics.median(values)
        out[f"service.{kind}_job_tail_s"] = value
        out[f"service.{kind}_job_tail_pct"] = pct
        out[f"service.{kind}_job_samples"] = samples
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="exit as soon as set-up is done")
    parser.add_argument("--inject", choices=("advance", "chrome"),
                        help="slow one program function by 30%% "
                             "(layer-sensitivity self-test)")
    args = parser.parse_args(argv)

    use_program_source()
    if args.inject:
        from inject import inject

        inject(args.inject)
    os.makedirs(OUT_DIR, exist_ok=True)
    out_dir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    workload_class = WORKLOAD_CLASSES[args.workload]
    during = getattr(workload_class, "HOST_SAMPLES_DURING_PASS", True)
    host = HostSpeed()
    host.begin(during=during)
    spans = Spans(enabled=bool(args.trace))
    workload = workload_class(args.seed, spans, out_dir)
    setup = host.end()
    _emit("ready", {"cpu_s": time.process_time() - setup.sampled_cpu,
                    "sampled_s": setup.sampled_wall,
                    "host_factor": setup.factor})
    try:
        if args.probe:
            return 0
        if args.trace:
            workload.detail = True
            walls_a, _, results_a = _run_passes(workload, args.seconds / 2,
                                                "a")
            service = (service_metrics(workload)
                       if args.workload == "service-stream" else {})
            spans.enabled = False
            profiles = []
            walls_b, _, results_b = _run_passes(
                workload, args.seconds - sum(walls_a), "b", profiles=profiles)
            results = results_a + results_b
        else:
            walls_a, refs, results = _run_passes(
                workload, args.seconds, "p", host=host, during=during)
        final = workload.finish()
        if args.trace:
            from layers import import_split

            metrics = layer_metrics(spans, results_a, profiles,
                                    walls_a, walls_b, final, import_split())
            metrics.update(service)
            spans.write(os.path.join(OUT_DIR, f"spans-{args.workload}-"
                                              f"{args.seed}.json"))
        else:
            metrics = {"wall_s": _mean(walls_a),
                       "wall_ref_s": _mean(refs),
                       "peak_rss_mb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    finally:
        workload.close()
        shutil.rmtree(out_dir, ignore_errors=True)
    errors = [e for r in results + [final] for e in r.errors]
    _emit("result", {
        "attempted": sum(r.attempted for r in results) + final.attempted,
        "failed": sum(r.failed for r in results) + final.failed,
        "errors": errors[:20],
        "passes": len(results),
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads, driven through the program's public API.

Each workload is a class whose constructor is the set-up (imports, input
generation from the seed, service pool spawn) and whose ``run_pass`` is
one timed pass at a fixed input size.  A pass returns a :class:`Pass`
with the operations it attempted, the ones that failed (an exception or
an output-check mismatch), and counts for the per-layer report.
Checks too costly for the timed loop run in ``finish``.

Every call into a layer sits inside a span named after that layer, so
the traced run can time each layer from outside the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field

from common import BENCH_DIR, ROOT

GOLDEN_DIR = os.path.join(ROOT, "tests", "goldens")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")


@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    #: Traced event lists, kept (only when the workload's ``detail`` flag
    #: is set) for counting decisions after the timed pass.
    events: list = field(default_factory=list)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


def read_expected():
    """The recorded outputs (``expected.json``); empty when absent."""
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def table_digest(tables):
    """sha256 of the canonical JSON of ``{figure: {config: {obj: J}}}``."""
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bands_met(tables):
    """``(met, total)`` paper bands of ``calibration_report()`` on ``tables``.

    ``calibration_report`` computes its own calibrated tables; here the
    table builders it calls are pointed at ``tables`` for the duration
    of the call, so the band definitions stay the program's own.
    """
    from repro.experiments import calibration, fidelity_study

    builders = {"video": "video_energy_table", "speech": "speech_energy_table",
                "map": "map_energy_table", "web": "web_energy_table"}
    saved = {name: getattr(fidelity_study, name) for name in builders.values()}
    try:
        for figure, name in builders.items():
            setattr(fidelity_study, name,
                    lambda *_a, _table=tables[figure], **_k: _table)
        report = calibration.calibration_report()
    finally:
        for name, builder in saved.items():
            setattr(fidelity_study, name, builder)
    bands = [band["ok"] for figure in report["figures"]
             for band in figure["bands"]]
    return sum(bands), len(bands)


# ----------------------------------------------------------------------
class PaperTables:
    """Every cell of the Figure 6, 8, 10 and 13 energy tables.

    The seed picks the cost-model trial (``seed % TRIALS``); trial 0 is
    the calibrated model.  Each trial's tables must hash to the digest
    recorded in ``expected.json``.
    """

    TRIALS = 10

    def __init__(self, seed, spans, out_dir):
        from repro.experiments import (MAP_CONFIGS, SPEECH_CONFIGS,
                                       VIDEO_CONFIGS, WEB_CONFIGS,
                                       measure_map, measure_speech,
                                       measure_video, measure_web,
                                       trial_costs)
        from repro.workloads import IMAGES, MAPS, UTTERANCES, VIDEO_CLIPS

        self.spans = spans
        self.trial = seed % self.TRIALS
        self.costs = trial_costs(self.trial)
        self.expected = read_expected().get("paper-tables", {}).get(
            str(self.trial), {"digest": None, "bands_total": None})
        self.figures = (
            ("video", VIDEO_CONFIGS, VIDEO_CLIPS, measure_video),
            ("speech", SPEECH_CONFIGS, UTTERANCES, measure_speech),
            ("map", MAP_CONFIGS, MAPS, measure_map),
            ("web", WEB_CONFIGS, IMAGES, measure_web),
        )

    def tables(self, op):
        span = self.spans.span
        tables = {}
        for figure, configs, objects, measure in self.figures:
            table = tables[figure] = {}
            for config in configs:
                row = table[config] = {}
                for obj in objects:
                    with span(f"experiments.cell.{figure}", op):
                        row[obj.name] = measure(obj, config,
                                                costs=self.costs)
        return tables

    def run_pass(self, op):
        result = Pass()
        tables = self.tables(op)
        result.attempted += sum(len(row) for table in tables.values()
                                for row in table.values())
        result.check(table_digest(tables) == self.expected["digest"],
                     f"trial {self.trial}: figure tables differ from the "
                     f"recorded digest")
        met, total = bands_met(tables)
        result.check(total == self.expected["bands_total"],
                     f"{total} paper bands, expected "
                     f"{self.expected['bands_total']}")
        result.counts["paper_bands_met"] = met
        return result

    def finish(self):
        return Pass()

    def close(self):
        pass


# ----------------------------------------------------------------------
class GoalTraced:
    """The ``repro trace`` + ``verify-profile`` flow, on two scenarios.

    Each pass records the pinned goal-default scenario and one
    bursty-supply scenario under a recording tracer (the first pass at
    the pinned bursty seed, later passes at the other bursty seeds in an
    order drawn from the workload seed), writes JSONL and Chrome JSON, joins events to
    power spans, computes the energy signature and diffs it against the
    committed golden.  At the pinned seeds the verify must be clean; at
    any seed no join may be unresolved.
    """

    GOAL_SECONDS, GOAL_ENERGY_J = 197.0, 3000.0
    BURSTY_GOAL_SECONDS, BURSTY_PINNED_SEED = 240.0, 3
    #: Bursty seeds the passes cycle through; the pinned seed is in it.
    #: Bursty runs range from 24k to 53k events across seeds, so a pass
    #: at a freely drawn seed would change the input size from pass to
    #: pass.  These are the seeds in 1..60 whose runs are distinct and
    #: all hold 51,204 to 51,712 events (within 1% of one another).
    BURSTY_SEEDS = (3, 9, 18, 19, 20, 25, 36, 48)

    def __init__(self, seed, spans, out_dir):
        from repro.experiments import run_bursty_experiment, run_goal_experiment
        from repro.obs import (Tracer, compute_signature, diff_signatures,
                               installed, read_signature)
        from repro.obs.export import (join_power, join_summary,
                                      write_chrome_trace, write_events_jsonl)

        self.spans = spans
        self.out_dir = out_dir
        self.detail = False
        rest = [s for s in self.BURSTY_SEEDS if s != self.BURSTY_PINNED_SEED]
        random.Random(seed).shuffle(rest)
        self.bursty_seeds = itertools.cycle([self.BURSTY_PINNED_SEED] + rest)
        self.api = {
            "run_goal": run_goal_experiment, "run_bursty": run_bursty_experiment,
            "Tracer": Tracer, "installed": installed,
            "write_jsonl": write_events_jsonl, "write_chrome": write_chrome_trace,
            "join": join_power, "join_summary": join_summary,
            "signature": compute_signature, "diff": diff_signatures,
        }
        self.golden = {
            name: read_signature(os.path.join(GOLDEN_DIR, f"{name}.sig.json"))
            for name in ("goal-default", "bursty-supply")
        }

    def _scenario(self, name, pinned, run, op, result):
        api, span = self.api, self.spans.span
        tracer = api["Tracer"]()
        with span("obs.record", op):
            with api["installed"](tracer):
                run()
            tracer.flush()
        events = list(tracer.events)
        prefix = os.path.join(self.out_dir, name)
        with span("obs.write_jsonl", op):
            api["write_jsonl"](events, prefix + ".jsonl")
        with span("obs.write_chrome", op):
            api["write_chrome"](events, prefix + ".trace.json")
        written = (os.path.getsize(prefix + ".jsonl")
                   + os.path.getsize(prefix + ".trace.json"))
        with span("obs.join", op):
            joins = api["join_summary"](api["join"](events))
        with span("obs.signature", op):
            signature = api["signature"](events)
        with span("obs.verify", op):
            diff = api["diff"](self.golden[name], signature)
        result.attempted += 1
        result.check(joins["unresolved"] == 0,
                     f"{name}: {joins['unresolved']} unresolved power joins")
        if pinned:
            result.check(not diff.regression,
                         f"{name}: signature does not verify against the "
                         f"committed golden")
        counts = result.counts
        counts["trace_bytes"] = counts.get("trace_bytes", 0) + written
        counts["events"] = counts.get("events", 0) + len(events)
        if self.detail:
            result.events.append(events)

    def run_pass(self, op):
        result = Pass()
        api = self.api
        bursty_seed = next(self.bursty_seeds)
        self._scenario(
            "goal-default", True,
            lambda: api["run_goal"](self.GOAL_SECONDS,
                                    initial_energy=self.GOAL_ENERGY_J),
            op, result)
        self._scenario(
            "bursty-supply", bursty_seed == self.BURSTY_PINNED_SEED,
            lambda: api["run_bursty"](bursty_seed, self.BURSTY_GOAL_SECONDS),
            op, result)
        return result

    def finish(self):
        return Pass()

    def close(self):
        pass


# ----------------------------------------------------------------------
class FleetMatrix:
    """``fleet_matrix_campaign`` over generated fleets, serial in-process.

    The first pass uses the pinned fleet (seed 7, 4 devices) and must
    reproduce ``tests/goldens/fleet-matrix.json`` byte for byte; every
    later pass generates new devices from the workload seed, so the
    per-process record memo hits only where a real sweep would.
    """

    SIZE, PINNED_SEED = 4, 7
    SCENARIO = {"goal_seconds": 120.0, "initial_energy": 1000.0}

    def __init__(self, seed, spans, out_dir):
        from repro.devices import (fleet_from_result, fleet_matrix_campaign,
                                   generate_fleet)
        from repro.fleet import DEFAULT_GRID, FleetRunner
        from repro.obs import MetricsRegistry, set_metrics

        self.spans = spans
        self.rng = random.Random(seed)
        self.used = {self.PINNED_SEED}
        self.api = {
            "generate": generate_fleet, "campaign": fleet_matrix_campaign,
            "fold": fleet_from_result, "grid": DEFAULT_GRID,
            "runner": FleetRunner, "registry": MetricsRegistry,
            "set_metrics": set_metrics,
        }
        with open(os.path.join(GOLDEN_DIR, "fleet-matrix.json"),
                  encoding="utf-8") as handle:
            self.golden = handle.read()
        self.passes = 0

    def _fleet_seed(self):
        if self.passes == 0:
            return self.PINNED_SEED
        while True:
            seed = self.rng.randrange(1, 1 << 30)
            if seed not in self.used:
                self.used.add(seed)
                return seed

    def run_pass(self, op):
        api, span = self.api, self.spans.span
        result = Pass()
        fleet_seed = self._fleet_seed()
        self.passes += 1
        registry = api["registry"]()
        previous = api["set_metrics"](registry)
        try:
            with span("devices.generate", op):
                devices = api["generate"](self.SIZE, fleet_seed)
                spec = api["campaign"](devices, api["grid"], baseline={},
                                       scenario=dict(self.SCENARIO),
                                       name="fleet-matrix")
            with span("fleet.run", op):
                outcome = api["runner"](jobs=1).run(spec)
            with span("devices.fold", op):
                document = api["fold"](outcome).document()
        finally:
            api["set_metrics"](previous)
        telemetry = outcome.telemetry
        result.attempted += telemetry.total
        result.failed += len(outcome.failures)
        result.errors.extend(f"{f.task_id}: {f.error}"
                             for f in outcome.failures)
        if fleet_seed == self.PINNED_SEED:
            result.check(document == self.golden,
                         "fleet seed 7: matrix differs from "
                         "tests/goldens/fleet-matrix.json")
        histograms = registry.snapshot()["histograms"]
        capture = histograms.get("snapshot.capture_s", {"count": 0, "sum": 0})
        fork = histograms.get("snapshot.fork_s", {"count": 0, "sum": 0})
        result.counts.update({
            "captures": capture["count"], "capture_sum_s": capture["sum"],
            "forks": fork["count"], "fork_sum_s": fork["sum"],
            "busy_s": telemetry.busy_s, "retries": telemetry.retried,
            "cached": telemetry.cached, "tasks": telemetry.total,
        })
        return result

    def finish(self):
        return Pass()

    def close(self):
        pass


# ----------------------------------------------------------------------
class ServiceStream:
    """One client streaming small fidelity-cell campaigns to the service.

    An in-process ``CampaignService(workers=2)`` sits behind ``serve()``
    on loopback; one ``ServiceClient`` submits each campaign, waits for it
    with ``ServiceClient.wait`` (the client's own polling cadence, as
    ``repro submit --wait`` uses it) and fetches the result, then
    resubmits it, so half the jobs compute and write the result cache and
    half only read it.  All results must equal a direct ``FleetRunner``
    run of the same spec.
    """

    CAMPAIGNS_PER_PASS = 6
    TASKS_PER_CAMPAIGN = 3
    APPS = ("speech", "map", "web")
    WORKERS = 2
    #: Jobs run in the worker processes and the service's threads while
    #: the client waits, so no host-speed sample may run inside a pass.
    HOST_SAMPLES_DURING_PASS = False

    def __init__(self, seed, spans, out_dir):
        from repro.fleet import APPS, CampaignSpec, FleetRunner, Task
        from repro.service import (CampaignService, ServiceClient,
                                   results_document, serve)

        self.spans = spans
        self.rng = random.Random(seed)
        self.api = {"apps": APPS, "spec": CampaignSpec, "task": Task,
                    "runner": FleetRunner, "document": results_document}
        self.cache_dir = os.path.join(out_dir, "service-cache")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.service = CampaignService(workers=self.WORKERS,
                                       cache=self.cache_dir).start()
        self.server = serve(self.service)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-http", daemon=True)
        self.thread.start()
        self.client = ServiceClient(self.server.endpoint)
        plain_status = self.client.status

        def status(job_id):
            """``ServiceClient.status``, timed and counted; ``wait`` polls
            through it."""
            self.status_calls += 1
            with spans.span("service.status", self.op):
                return plain_status(job_id)

        self.client.status = status
        self.status_calls = 0
        self.op = None
        deadline = time.monotonic() + 60.0
        while not all(w["registered"] for w in self.client.workers()):
            if time.monotonic() > deadline:
                raise RuntimeError("service workers never registered")
            time.sleep(0.01)
        self.seen = set()
        self.campaigns = []
        self.latency = {"cold": [], "cached": []}
        self.polls = []
        self.cache_hits = 0
        self.tasks = 0

    def _campaign(self):
        apps = self.api["apps"]
        tasks = []
        while len(tasks) < self.TASKS_PER_CAMPAIGN:
            app = self.rng.choice(self.APPS)
            info = apps[app]
            config = self.rng.choice(info["configs"])
            obj = self.rng.choice(info["objects"])
            trial = self.rng.randrange(1, 1 << 20)
            task_id = f"{app}/{config}/{obj}/t{trial}"
            if task_id in self.seen:
                continue
            self.seen.add(task_id)
            params = {info["param"]: obj, "config": config, "trial": trial,
                      "spread": 0.03}
            if info["think"]:
                params["think_time_s"] = 5.0
            tasks.append(self.api["task"](id=task_id, fn=info["fn"],
                                          params=params))
        return self.api["spec"](name=f"stream-{len(self.campaigns)}",
                                tasks=tasks)

    def _job(self, spec, kind, op, result):
        span, client = self.spans.span, self.client
        start = time.perf_counter()
        with span("service.submit", op):
            job_id = client.submit(spec)
        calls_before = self.status_calls
        client.wait(job_id)
        with span("service.result", op):
            payload = client.result(job_id)
        self.latency[kind].append(time.perf_counter() - start)
        self.polls.append(self.status_calls - calls_before)
        telemetry = payload["telemetry"]
        self.cache_hits += telemetry["cached"]
        self.tasks += telemetry["total"]
        result.attempted += 1
        result.check(payload["state"] == "done" and not payload["failures"],
                     f"{spec.name} ({kind}): job {payload['state']}, "
                     f"{len(payload['failures'])} failed task(s)")
        return payload["values"]

    def run_pass(self, op):
        result = Pass()
        self.op = op
        for _ in range(self.CAMPAIGNS_PER_PASS):
            spec = self._campaign()
            cold = self._job(spec, "cold", op, result)
            cached = self._job(spec, "cached", op, result)
            self.campaigns.append((spec, cold, cached))
        return result

    def finish(self):
        """Direct ``FleetRunner`` values must equal the service's."""
        result = Pass()
        document = self.api["document"]
        for spec, cold, cached in self.campaigns:
            direct = self.api["runner"](jobs=1).run(spec).values
            expected = document(spec.name, direct)
            result.check(document(spec.name, cold) == expected,
                         f"{spec.name}: service values differ from a "
                         f"direct FleetRunner run")
            result.check(document(spec.name, cached) == expected,
                         f"{spec.name}: cached values differ from a "
                         f"direct FleetRunner run")
        metrics = self.client.metrics()
        result.counts["tasks_coalesced"] = metrics["counters"].get(
            "service.tasks_coalesced", 0)
        result.counts["worker_peak_rss_mb"] = max(
            (_peak_rss_mb(w["pid"]) for w in self.client.workers()),
            default=0.0)
        return result

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(5.0)
        self.service.stop()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _peak_rss_mb(pid):
    """A live process's peak resident set (Linux ``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


WORKLOAD_CLASSES = {
    "paper-tables": PaperTables,
    "goal-traced": GoalTraced,
    "fleet-matrix": FleetMatrix,
    "service-stream": ServiceStream,
}

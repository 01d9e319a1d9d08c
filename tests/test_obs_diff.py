"""Unit tests for repro.obs.diff: spine extraction, alignment, energy."""

import json

import pytest

from repro.obs import Tracer
from repro.obs.diff import (
    SpineEntry,
    decision_spine,
    diff_spines,
    diff_traces,
    read_spine_jsonl,
    window_energy,
    write_spine_jsonl,
)
from repro.obs.export import power_spans


def _clock():
    return 0.0


def _trace_decision(tracer, did, action, ts=None, span=None):
    ts = 0.5 * did if ts is None else ts
    args = {"did": did, "supply": 100.0, "demand": 50.0}
    if span is not None:
        args["power_span"] = span
    tracer.instant(ts, "core", f"decision.{action}", track="goal", args=args)
    return ts


def _trace_upcall(tracer, did, kind, app, level, ts=None):
    ts = 0.5 * did if ts is None else ts
    tracer.instant(ts, "core", f"upcall.{kind}", track=app,
                   args={"did": did, "application": app, "level": level})


class TestDecisionSpine:
    def test_extracts_decisions_with_attached_upcalls(self):
        tracer = Tracer(clock=_clock)
        _trace_decision(tracer, 1, "hold")
        _trace_decision(tracer, 2, "degrade")
        _trace_upcall(tracer, 2, "degrade", "video", "premiere-b")
        _trace_decision(tracer, 3, "upgrade")
        spine = decision_spine(tracer.events)
        assert [e.did for e in spine] == [1, 2, 3]
        assert spine[0].signature() == ("hold", (), False)
        assert spine[1].upcalls == (("degrade", "video", "premiere-b"),)
        assert spine[2].action == "upgrade"

    def test_upcalls_attach_by_did_not_position(self):
        # An upcall event arriving after a later decision still attaches
        # to the decision whose did it carries.
        tracer = Tracer(clock=_clock)
        _trace_decision(tracer, 1, "degrade")
        _trace_decision(tracer, 2, "hold")
        _trace_upcall(tracer, 1, "degrade", "web", "jpeg-50")
        spine = decision_spine(tracer.events)
        assert spine[0].upcalls == (("degrade", "web", "jpeg-50"),)
        assert spine[1].upcalls == ()

    def test_infeasible_flag_attaches(self):
        tracer = Tracer(clock=_clock)
        _trace_decision(tracer, 1, "degrade")
        tracer.instant(0.5, "core", "infeasible", track="goal",
                       args={"did": 1, "supply": 1.0, "demand": 9.0})
        spine = decision_spine(tracer.events)
        assert spine[0].infeasible

    def test_decision_without_did_is_rejected(self):
        tracer = Tracer(clock=_clock)
        tracer.instant(0.5, "core", "decision.hold", track="goal",
                       args={"supply": 1.0, "demand": 0.5})
        with pytest.raises(ValueError, match="re-recorded"):
            decision_spine(tracer.events)

    def test_upcall_without_matching_did_is_not_attached(self):
        tracer = Tracer(clock=_clock)
        _trace_decision(tracer, 1, "degrade")
        tracer.instant(0.5, "core", "upcall.degrade", track="video",
                       args={"application": "video", "level": "b"})
        _trace_upcall(tracer, 7, "degrade", "web", "jpeg-50")
        tracer.instant(0.5, "core", "infeasible", track="goal",
                       args={"supply": 1.0, "demand": 9.0})
        spine = decision_spine(tracer.events)
        assert spine[0].upcalls == ()
        assert not spine[0].infeasible

    def test_non_core_events_ignored(self):
        tracer = Tracer(clock=_clock)
        tracer.counter(0.1, "power", "watts", 5.0, track="watts")
        _trace_decision(tracer, 1, "hold")
        tracer.instant(0.2, "sim", "dispatch", track="engine")
        assert len(decision_spine(tracer.events)) == 1

    def test_accepts_dict_records(self):
        records = [
            {"ts": 0.5, "wall": 0.0, "cat": "core", "name": "decision.hold",
             "ph": "I", "args": {"did": 1}},
        ]
        spine = decision_spine(records)
        assert spine[0].did == 1 and spine[0].action == "hold"


def _spine(signatures):
    """Build a spine from a list of action strings (or entry tuples)."""
    spine = []
    for index, item in enumerate(signatures):
        did = index + 1
        if isinstance(item, str):
            spine.append(SpineEntry(did, 0.5 * did, item))
        else:
            action, upcalls = item
            spine.append(SpineEntry(did, 0.5 * did, action, upcalls))
    return spine


class TestDiffSpines:
    def test_identical_spines_produce_no_windows(self):
        a = _spine(["hold", "degrade", "hold"])
        b = _spine(["hold", "degrade", "hold"])
        diff = diff_spines(a, b)
        assert diff.identical
        assert diff.windows == []
        assert diff.first_divergence is None

    def test_single_difference_is_one_single_decision_window(self):
        a = _spine(["hold", "hold", "hold"])
        b = _spine(["hold", "degrade", "hold"])
        diff = diff_spines(a, b)
        assert len(diff.windows) == 1
        window = diff.windows[0]
        assert (window.start_did, window.end_did) == (2, 2)
        assert window.t0 == 1.0
        assert window.t1 == 1.5  # next agreeing decision
        assert diff.divergent_decisions == 1

    def test_upcall_payload_differences_count(self):
        a = _spine([("degrade", [("degrade", "video", "b")])])
        b = _spine([("degrade", [("degrade", "web", "jpeg-50")])])
        assert len(diff_spines(a, b).windows) == 1

    def test_contiguous_divergence_merges_into_one_window(self):
        a = _spine(["hold", "hold", "hold", "hold", "hold"])
        b = _spine(["hold", "degrade", "degrade", "degrade", "hold"])
        diff = diff_spines(a, b)
        assert len(diff.windows) == 1
        assert (diff.windows[0].start_did, diff.windows[0].end_did) == (2, 4)

    def test_gap_merges_near_adjacent_windows(self):
        a = _spine(["hold"] * 7)
        b = _spine(["hold", "degrade", "hold", "hold", "degrade",
                    "hold", "hold"])
        assert len(diff_spines(a, b, gap=0).windows) == 2
        assert len(diff_spines(a, b, gap=1).windows) == 2
        merged = diff_spines(a, b, gap=2)
        assert len(merged.windows) == 1
        assert (merged.windows[0].start_did,
                merged.windows[0].end_did) == (2, 5)
        # The absorbed matching decisions appear on both sides.
        assert len(merged.windows[0].entries_a) == 4

    def test_one_sided_tail_is_divergent(self):
        a = _spine(["hold", "hold", "hold", "hold"])
        b = _spine(["hold", "hold"])
        diff = diff_spines(a, b)
        assert len(diff.windows) == 1
        window = diff.windows[0]
        assert (window.start_did, window.end_did) == (3, 4)
        assert len(window.entries_a) == 2
        assert window.entries_b == []

    def test_last_window_extends_to_last_recorded_decision(self):
        a = _spine(["hold", "hold", "degrade"])
        b = _spine(["hold", "hold", "hold"])
        window = diff_spines(a, b).windows[0]
        assert window.t0 == 1.5
        assert window.t1 == 1.5


class TestEnergyAttribution:
    def _power_trace(self, watts_by_second):
        """One power/span complete-event per second at the given watts."""
        tracer = Tracer(clock=_clock)
        for index, watts in enumerate(watts_by_second):
            tracer.complete(
                float(index), "power", "span", dur=1.0, track="machine",
                args={"sid": index + 1, "watts": watts,
                      "joules": watts * 1.0, "process": "Idle",
                      "procedure": "_kernel_idle"},
            )
        return list(tracer.events)

    def test_window_energy_prorates_partial_overlap(self):
        spans = power_spans(self._power_trace([10.0, 10.0, 10.0]))
        assert window_energy(spans, 0.0, 3.0) == pytest.approx(30.0)
        assert window_energy(spans, 0.5, 1.5) == pytest.approx(10.0)
        assert window_energy(spans, 2.75, 10.0) == pytest.approx(2.5)
        assert window_energy(spans, 5.0, 6.0) == 0.0

    def test_diff_traces_attributes_delta_per_window(self):
        # Both runs decide at t=0.5 and t=1.0; they disagree at t=1.0,
        # and run B draws 2 W more during the divergent window.
        events_a = self._power_trace([5.0, 5.0, 5.0])
        events_b = self._power_trace([5.0, 7.0, 7.0])
        tr_a = Tracer(clock=_clock)
        _trace_decision(tr_a, 1, "hold")
        _trace_decision(tr_a, 2, "hold")
        _trace_decision(tr_a, 3, "hold")
        tr_b = Tracer(clock=_clock)
        _trace_decision(tr_b, 1, "hold")
        _trace_decision(tr_b, 2, "upgrade")
        _trace_decision(tr_b, 3, "hold")
        events_a += [e.to_dict() for e in tr_a.events]
        events_b += [e.to_dict() for e in tr_b.events]
        diff = diff_traces(events_a, events_b)
        assert len(diff.windows) == 1
        window = diff.windows[0]
        # Window covers [1.0, 1.5): A draws 5 W, B draws 7 W.
        assert window.energy_a == pytest.approx(2.5)
        assert window.energy_b == pytest.approx(3.5)
        assert window.energy_delta == pytest.approx(1.0)

    def test_attribute_false_leaves_energy_unset(self):
        tr = Tracer(clock=_clock)
        _trace_decision(tr, 1, "hold")
        tr2 = Tracer(clock=_clock)
        _trace_decision(tr2, 1, "degrade")
        diff = diff_traces(tr.events, tr2.events, attribute=False)
        assert diff.windows[0].energy_delta is None


class TestSerialization:
    def test_to_dict_is_deterministic_and_wall_free(self):
        a = _spine(["hold", "degrade", "hold"])
        b = _spine(["hold", "upgrade", "hold"])
        one = json.dumps(diff_spines(a, b).to_dict(), sort_keys=True)
        two = json.dumps(diff_spines(a, b).to_dict(), sort_keys=True)
        assert one == two
        assert '"wall"' not in one

    def test_render_mentions_first_divergence_and_energy(self):
        a = _spine(["hold", "degrade"])
        b = _spine(["hold", "upgrade"])
        diff = diff_spines(a, b)
        for window in diff.windows:
            window.energy_a, window.energy_b = 1.0, 3.5
            window.energy_delta = 2.5
        text = diff.render()
        assert "first divergence at decision 2" in text
        assert "delta +2.5 J" in text

    def test_render_identical(self):
        a = _spine(["hold"])
        text = diff_spines(a, a).render()
        assert "identical" in text

    def test_render_caps_window_list(self):
        a = _spine(["hold", "degrade"] * 30)
        b = _spine(["hold", "upgrade"] * 30)
        text = diff_spines(a, b).render(max_windows=3)
        assert "more window(s)" in text

    def test_energy_share_surfaced_in_json_schema(self):
        """``repro diff --json`` dumps ``to_dict()``; the run-level
        energy attribution must be in it.  Schema-locked: these exact
        keys, these exact semantics — a rename breaks consumers."""
        watts_a, watts_b = [5.0, 5.0, 5.0], [5.0, 7.0, 7.0]
        events_a = TestEnergyAttribution._power_trace(None, watts_a)
        events_b = TestEnergyAttribution._power_trace(None, watts_b)
        tr_a = Tracer(clock=_clock)
        tr_b = Tracer(clock=_clock)
        for did, (act_a, act_b) in enumerate(
                [("hold", "hold"), ("hold", "upgrade"), ("hold", "hold")],
                start=1):
            _trace_decision(tr_a, did, act_a)
            _trace_decision(tr_b, did, act_b)
        events_a += [e.to_dict() for e in tr_a.events]
        events_b += [e.to_dict() for e in tr_b.events]
        payload = diff_traces(events_a, events_b).to_dict()
        assert payload["total_energy_a"] == pytest.approx(sum(watts_a))
        assert payload["total_energy_b"] == pytest.approx(sum(watts_b))
        assert payload["total_energy_delta"] == pytest.approx(4.0)
        # Divergent window [1.0, 1.5): B spends 3.5 J of its 19 J run.
        assert payload["energy_share"] == pytest.approx(3.5 / 19.0)
        # Stable on a round-trip through JSON bytes.
        assert json.loads(json.dumps(payload)) == payload

    def test_unattributed_diff_omits_energy_keys(self):
        """Without energy attribution the run-level keys stay absent —
        consumers distinguish "no data" from "zero joules"."""
        a = _spine(["hold", "degrade"])
        b = _spine(["hold", "upgrade"])
        payload = diff_spines(a, b).to_dict()
        for key in ("total_energy_a", "total_energy_b",
                    "total_energy_delta", "energy_share"):
            assert key not in payload

    def test_identical_attributed_diff_has_zero_share(self):
        events = TestEnergyAttribution._power_trace(None, [5.0, 5.0])
        tr = Tracer(clock=_clock)
        _trace_decision(tr, 1, "hold")
        events += [e.to_dict() for e in tr.events]
        payload = diff_traces(list(events), list(events)).to_dict()
        assert payload["total_energy_delta"] == 0.0
        assert payload["energy_share"] == 0.0

    def test_spine_jsonl_round_trip(self, tmp_path):
        spine = [
            SpineEntry(1, 0.5, "hold"),
            SpineEntry(2, 1.0, "degrade",
                       upcalls=[("degrade", "video", "premiere-b")]),
            SpineEntry(3, 1.5, "degrade", infeasible=True),
        ]
        path = tmp_path / "spine.jsonl"
        assert write_spine_jsonl(spine, path) == 3
        loaded = read_spine_jsonl(path)
        assert loaded == spine
        assert loaded[1].upcalls == (("degrade", "video", "premiere-b"),)
        assert loaded[2].infeasible


class TestEndToEnd:
    def test_traced_goal_runs_diff_on_hysteresis(self):
        """Hysteresis on/off goal runs must diverge with energy deltas."""
        from repro.experiments import run_goal_experiment
        from repro.obs import installed

        def run(**kwargs):
            tracer = Tracer()
            with installed(tracer):
                run_goal_experiment(197.0, initial_energy=3000.0, **kwargs)
            tracer.flush()
            return list(tracer.events)

        events_on = run()
        events_off = run(variable_fraction=0.0, constant_fraction=0.0)
        diff = diff_traces(events_on, events_off,
                           label_a="hysteresis-on", label_b="hysteresis-off")
        assert not diff.identical
        assert diff.first_divergence is not None
        assert all(w.energy_delta is not None for w in diff.windows)
        # The divergent windows carry real, nonzero energy attribution.
        assert any(abs(w.energy_delta) > 1e-9 for w in diff.windows)
        # Removing the margin changes what the policy delivers: the two
        # runs fire different upcall sequences, not just different
        # verdict labels.
        upcalls = lambda spine: [u for e in spine for u in e.upcalls]
        assert upcalls(diff.spine_b) != upcalls(diff.spine_a)

"""Segment-journal power accounting: merging, folding, pins, context.

The journal is the tentpole of the event-driven accounting rework: one
entry per genuine change point, lazy folds into the attribution
dictionaries, and an exact-integral invariant (journal energy equals
the eagerly integrated total) that a property test hammers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    ExternalSupply,
    HardwareError,
    Machine,
    PowerComponent,
)
from repro.sim import Simulator


def make_machine(correction=None):
    sim = Simulator()
    machine = Machine(sim, ExternalSupply(), correction=correction)
    machine.attach(PowerComponent("base", {"on": 2.0, "off": 0.0}, "on"))
    return sim, machine


class TestJournalSegments:
    def test_unchanged_advances_merge_into_open_segment(self):
        sim, machine = make_machine()
        for t in (1.0, 2.5, 4.0):
            sim.run(until=t)
            machine.advance()
        journal = machine.journal
        assert len(journal) == 1
        assert journal[0].t0 == 0.0
        assert journal[0].t1 == 4.0
        assert journal[0].power == pytest.approx(2.0)

    def test_state_change_opens_new_segment(self):
        sim, machine = make_machine()
        sim.run(until=1.0)
        machine["base"].set_state("off")
        sim.run(until=3.0)
        machine.advance()
        journal = machine.journal
        assert [s.power for s in journal] == pytest.approx([2.0, 0.0])
        # Contiguous spans: each segment starts where the last ended.
        for prev, nxt in zip(journal, journal[1:]):
            assert prev.t1 == nxt.t0

    def test_context_change_opens_new_segment(self):
        sim, machine = make_machine()
        sim.run(until=1.0)
        token = machine.push_context("app", "work")
        sim.run(until=2.0)
        machine.pop_context(token)
        sim.run(until=3.0)
        machine.advance()
        contexts = [s.context for s in machine.journal]
        assert contexts == [
            ("Idle", "_kernel_idle"), ("app", "work"), ("Idle", "_kernel_idle")
        ]

    def test_journal_energy_matches_energy_total(self):
        sim, machine = make_machine()
        sim.run(until=1.0)
        machine["base"].set_state("off")
        sim.run(until=2.0)
        machine["base"].set_state("on")
        sim.run(until=5.0)
        machine.advance()
        assert machine.journal_energy() == pytest.approx(
            machine.energy_total, rel=1e-12
        )
        assert machine.energy_total == pytest.approx(2.0 * 4.0)


class TestLazyFold:
    def test_fold_attributes_to_context(self):
        sim, machine = make_machine()
        sim.run(until=1.0)
        token = machine.push_context("app", "work")
        sim.run(until=3.0)
        machine.pop_context(token)
        sim.run(until=4.0)
        machine.advance()
        by_process = machine.energy_by_process
        assert by_process["app"] == pytest.approx(2.0 * 2.0)
        assert by_process["Idle"] == pytest.approx(2.0 * 2.0)

    def test_fold_attributes_overlays_and_correction(self):
        sim, machine = make_machine(correction=lambda m: 0.5)
        sim.run(until=1.0)
        handle = machine.add_overlay(0.25, "Interrupts-WaveLAN")
        sim.run(until=3.0)
        machine.remove_overlay(handle)
        machine.advance()
        by_process = machine.energy_by_process
        # 2.5 W for 2 s under a 25% overlay.
        assert by_process["Interrupts-WaveLAN"] == pytest.approx(
            2.5 * 2.0 * 0.25
        )
        by_component = machine.energy_by_component
        assert by_component["(superlinear)"] == pytest.approx(0.5 * 3.0)
        assert by_component["base"] == pytest.approx(2.0 * 3.0)

    def test_process_and_component_views_sum_to_total(self):
        sim, machine = make_machine(correction=lambda m: 0.25)
        sim.run(until=1.0)
        token = machine.push_context("app")
        sim.run(until=2.0)
        machine.pop_context(token)
        machine.advance()
        assert sum(machine.energy_by_process.values()) == pytest.approx(
            machine.energy_total
        )
        assert sum(machine.energy_by_component.values()) == pytest.approx(
            machine.energy_total
        )

    def test_pin_blocks_compaction_until_released(self):
        sim, machine = make_machine()
        machine.pin_journal()
        for t in (1.0, 2.0, 3.0):
            sim.run(until=t)
            machine["base"].set_state("off" if t != 2.0 else "on")
        machine.advance()
        before = len(machine.journal)
        assert before >= 3
        machine.energy_by_process  # folds, but may not compact while pinned
        assert len(machine.journal) == before
        machine.unpin_journal()
        machine.energy_by_process
        assert len(machine.journal) < before
        # Energy survives compaction.
        assert machine.journal_energy() == pytest.approx(
            machine.energy_total, rel=1e-12
        )

    def test_unpin_without_pin_raises(self):
        _, machine = make_machine()
        with pytest.raises(HardwareError):
            machine.unpin_journal()

    def test_fold_is_idempotent(self):
        sim, machine = make_machine()
        sim.run(until=2.0)
        machine.advance()
        first = dict(machine.energy_by_process)
        again = dict(machine.energy_by_process)
        assert first == again


class TestContextStack:
    def test_out_of_order_pop(self):
        sim, machine = make_machine()
        token_a = machine.push_context("a", "fa")
        token_b = machine.push_context("b", "fb")
        machine.pop_context(token_a)  # unlink below the top
        assert machine.context == ("b", "fb")
        machine.pop_context(token_b)
        assert machine.context == ("Idle", "_kernel_idle")

    def test_unknown_token_raises_without_side_effects(self):
        sim, machine = make_machine()
        token = machine.push_context("a")
        with pytest.raises(HardwareError):
            machine.pop_context(object())
        assert machine.context == ("a", "main")
        machine.pop_context(token)

    def test_double_pop_raises(self):
        sim, machine = make_machine()
        token = machine.push_context("a")
        machine.pop_context(token)
        with pytest.raises(HardwareError):
            machine.pop_context(token)


class TestCorrectionEvaluation:
    def test_correction_evaluated_once_per_refresh_not_per_advance(self):
        calls = []

        def correction(machine):
            calls.append(machine.sim.now)
            return 0.1

        sim, machine = make_machine(correction=correction)
        machine.power  # prime the cache
        baseline = len(calls)
        for t in (1.0, 2.0, 3.0):
            sim.run(until=t)
            machine.advance()
        # Steady state: no state changes, so no re-evaluation at all.
        assert len(calls) == baseline
        machine["base"].set_state("off")
        sim.run(until=4.0)
        machine.advance()
        # Exactly one refresh for the change (the old code evaluated the
        # correction twice per integration step).
        assert len(calls) == baseline + 1
        sim.run(until=6.0)
        machine.advance()
        machine.power
        assert len(calls) == baseline + 1


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
            st.sampled_from(["none", "toggle", "push", "pop", "overlay"]),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_journal_energy_equals_total_for_any_schedule(script):
    """Invariant: the journal integrates exactly what advance() drains."""
    sim = Simulator()
    machine = Machine(sim, ExternalSupply())
    machine.attach(PowerComponent("base", {"on": 2.0, "off": 0.5}, "on"))
    tokens = []
    overlay = None
    state = "on"
    for dt, action in script:
        sim.run(until=sim.now + dt)
        if action == "toggle":
            state = "off" if state == "on" else "on"
            machine["base"].set_state(state)
        elif action == "push":
            tokens.append(machine.push_context(f"p{len(tokens)}"))
        elif action == "pop" and tokens:
            machine.pop_context(tokens.pop())
        elif action == "overlay":
            if overlay is None:
                overlay = machine.add_overlay(0.2, "irq")
            else:
                machine.remove_overlay(overlay)
                overlay = None
        else:
            machine.advance()
    machine.advance()
    assert machine.journal_energy() == pytest.approx(
        machine.energy_total, rel=1e-9, abs=1e-12
    )
    assert sum(machine.energy_by_process.values()) == pytest.approx(
        machine.energy_total, rel=1e-9, abs=1e-12
    )


# ----------------------------------------------------------------------
# incremental power cache
# ----------------------------------------------------------------------
def _scratch_power(machine):
    """Every component re-read and summed left to right in attach order."""
    pairs = [(name, component.power)
             for name, component in machine.components.items()]
    total = 0.0
    for _name, watts in pairs:
        total += watts
    correction = machine.correction(machine)
    return pairs, correction, total + correction


def _zoned_machine(sim):
    from repro.hardware import build_machine

    return build_machine(sim, zoned=(2, 2))


def _fork(machine, flat):
    """Capture ``machine`` and restore it onto a freshly built one."""
    import json

    from repro.snapshot.protocol import CaptureContext, RestoreContext

    capture = CaptureContext(machine.sim)
    state = capture.capture("machine", machine)
    shared = capture.shared
    if flat:
        # The disk/JSON path: shared markers expanded to plain rows.
        state = dict(state, journal=shared["machine/journal"].materialize())
        state = json.loads(json.dumps(state))
        shared = {}
    sim = Simulator(start_time=machine.sim.now)
    fork = _zoned_machine(sim)
    # Snapshots carry component states, not wattage tables or zone
    # levels; the rebuilt hardware gets the parent's, the way its
    # builder would rebuild them.
    for name, component in machine.components.items():
        fork[name].states = dict(component.states)
    fork["display"].zone_levels = list(machine["display"].zone_levels)
    # A reading before restore primes the fork's cache with its built
    # state, which the restore must then discard.
    fork.power
    RestoreContext(sim, [], shared).restore("machine", fork, state)
    return fork


_OPS = st.one_of(
    st.tuples(st.just("set_state"), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.just("set_zone"), st.integers(0, 3), st.integers(0, 2)),
    st.tuples(st.just("power_will_change"), st.integers(0, 4),
              st.sampled_from([0.5, 1.25, 2.0])),
    st.tuples(st.just("invalidate_power"), st.integers(0, 4),
              st.sampled_from([0.5, 1.25, 2.0])),
    st.tuples(st.just("fork"), st.booleans(), st.just(0)),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.001, 0.1, 0.7, 3.0]), st.just(0)),
)


@given(st.lists(_OPS, min_size=1, max_size=40))
@settings(max_examples=250, deadline=None)
def test_incremental_power_equals_full_recompute(script):
    """After every step the cached power, component pairs and correction
    equal (==) a from-scratch recompute, and every refresh builds a new
    ``comp_powers`` tuple."""
    from repro.hardware import Display

    refreshed = []

    def spy(machine):
        refresh = machine._refresh_power

        def spied():
            refresh()
            refreshed.append(machine._comp_powers)

        machine._refresh_power = spied
        return machine

    sim = Simulator()
    machine = spy(_zoned_machine(sim))
    levels = (Display.BRIGHT, Display.DIM, Display.OFF)
    for op, a, b in script:
        names = list(machine.components)
        component = machine.components[names[int(a) % len(names)]]
        if op == "set_state":
            others = sorted(set(component.states) - {component.state})
            if others:
                component.set_state(others[b % len(others)])
        elif op == "set_zone":
            machine["display"].set_zone(a, levels[b])
        elif op == "power_will_change":
            # A drift-style mutation no single component hook covers.
            machine.power_will_change()
            component.states = {s: w * b for s, w in component.states.items()}
        elif op == "invalidate_power":
            machine.advance()
            component.states = {s: w * b for s, w in component.states.items()}
            machine.invalidate_power()
        elif op == "fork":
            machine = spy(_fork(machine, flat=a))
            sim = machine.sim
        else:
            sim.run(until=sim.now + a)
            machine.advance()
        pairs, correction, power = _scratch_power(machine)
        assert machine.power == power
        assert list(machine._comp_powers) == pairs
        assert machine._correction_value == correction
    for index, comp_powers in enumerate(refreshed):
        assert all(comp_powers is not other for other in refreshed[:index])

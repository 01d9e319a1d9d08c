"""Unit tests for generator-based processes and FIFO resources."""

import pytest

from repro.sim import (
    Interrupted,
    ProcessError,
    Resource,
    ResourceError,
    Simulator,
)


class TestProcessLifecycle:
    def test_process_runs_to_completion(self):
        sim = Simulator()
        steps = []

        def proc():
            steps.append(sim.now)
            yield sim.timeout(1.0)
            steps.append(sim.now)
            yield sim.timeout(2.0)
            steps.append(sim.now)

        process = sim.spawn(proc())
        sim.run()
        assert steps == [0.0, 1.0, 3.0]
        assert not process.alive
        assert not process.failed

    def test_spawn_requires_generator(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            sim.spawn(lambda: None)  # not a generator object

    def test_return_value_delivered_to_joiner(self):
        sim = Simulator()
        results = []

        def child():
            yield sim.timeout(1.0)
            return 42

        def parent():
            value = yield sim.spawn(child())
            results.append(value)

        sim.spawn(parent())
        sim.run()
        assert results == [42]

    def test_yield_from_composes_subactivities(self):
        sim = Simulator()
        trace = []

        def inner(tag):
            yield sim.timeout(1.0)
            trace.append((tag, sim.now))
            return tag

        def outer():
            a = yield from inner("a")
            b = yield from inner("b")
            return a + b

        def main():
            result = yield sim.spawn(outer())
            trace.append(("total", result))

        sim.spawn(main())
        sim.run()
        assert trace == [("a", 1.0), ("b", 2.0), ("total", "ab")]

    def test_yielding_non_waitable_fails_the_process(self):
        sim = Simulator()

        def bad():
            yield 123

        process = sim.spawn(bad())
        with pytest.raises(ProcessError):
            sim.run()
        assert process.failed

    def test_exception_in_process_propagates(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        process = sim.spawn(bad())
        with pytest.raises(ValueError):
            sim.run()
        assert process.failed
        assert isinstance(process.error, ValueError)

    def test_processes_have_unique_pids_and_names(self):
        sim = Simulator()

        def noop():
            yield sim.timeout(0)

        a = sim.spawn(noop(), name="alpha")
        b = sim.spawn(noop())
        assert a.name == "alpha"
        assert a.pid != b.pid
        assert sim.processes == (a, b)


class TestInterrupts:
    def test_interrupt_raises_inside_process(self):
        sim = Simulator()
        caught = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupted as exc:
                caught.append(exc.cause)

        process = sim.spawn(sleeper())
        sim.schedule(5.0, lambda t: process.interrupt("wakeup"))
        sim.run()
        assert caught == ["wakeup"]

    def test_unhandled_interrupt_terminates_quietly(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        process = sim.spawn(sleeper())
        sim.schedule(1.0, lambda t: process.interrupt())
        sim.run()
        assert not process.alive
        assert not process.failed

    def test_abandoned_wait_does_not_resume_later(self):
        sim = Simulator()
        log = []

        def proc():
            try:
                yield sim.timeout(1.0)
            except Interrupted:
                log.append(("interrupted", sim.now))
            woken = yield sim.timeout(2.0)
            log.append(("woke", sim.now, woken))

        process = sim.spawn(proc())
        sim.schedule(0.5, lambda t: process.interrupt())
        sim.run()
        # The first timeout still fires at 1.0, but no longer wakes the
        # process out of its second wait.
        assert log == [("interrupted", 0.5), ("woke", 2.5, 2.5)]

    def test_interrupting_finished_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)

        process = sim.spawn(quick())
        sim.run()
        process.interrupt("too late")
        sim.run()
        assert not process.failed


class TestResource:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ResourceError):
            Resource(Simulator(), capacity=0)

    def test_grants_within_capacity_are_immediate(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        g1 = res.acquire()
        g2 = res.acquire()
        assert g1.triggered and g2.triggered
        assert res.in_use == 2

    def test_excess_acquirers_queue_fifo(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        g1 = res.acquire()
        g2 = res.acquire()
        g3 = res.acquire()
        assert g1.triggered and not g2.triggered and not g3.triggered
        assert res.queued == 2
        res.release(g1)
        assert g2.triggered and not g3.triggered
        res.release(g2)
        assert g3.triggered

    def test_release_of_unheld_grant_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        g1 = res.acquire()
        g2 = res.acquire()  # queued, not held
        with pytest.raises(ResourceError):
            res.release(g2)
        res.release(g1)

    def test_use_serializes_contending_processes(self):
        sim = Simulator()
        res = Resource(sim, capacity=1, name="cpu")
        spans = []

        def worker(tag, duration):
            start_holder = []
            yield from res.use(
                duration,
                owner=tag,
                on_grant=lambda: start_holder.append(sim.now),
            )
            spans.append((tag, start_holder[0], sim.now))

        sim.spawn(worker("a", 2.0))
        sim.spawn(worker("b", 3.0))
        sim.run()
        assert spans == [("a", 0.0, 2.0), ("b", 2.0, 5.0)]

    def test_use_invokes_release_hook_exactly_when_done(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        released_at = []

        def worker():
            yield from res.use(4.0, on_release=lambda: released_at.append(sim.now))

        sim.spawn(worker())
        sim.run()
        assert released_at == [4.0]
        assert res.in_use == 0


def _resource_use(sim):
    res = Resource(sim, capacity=1)
    return res, lambda owner, seconds: res.use(seconds, owner=owner)


def _machine_compute(sim):
    from repro.hardware import ExternalSupply, Machine

    machine = Machine(sim, ExternalSupply())
    return machine.cpu_resource, lambda owner, seconds: machine.compute(
        seconds, owner)


def _scheduled_compute(sim):
    from repro.hardware import ExternalSupply, Machine
    from repro.sim import QuantumScheduler

    # One quantum covers a whole 1 s burst, so the timings match FIFO.
    scheduler = QuantumScheduler(sim, quantum=2.0)
    machine = Machine(sim, ExternalSupply(), scheduler=scheduler)
    return scheduler._resource, lambda owner, seconds: machine.compute(
        seconds, owner)


def _disk_read(sim):
    from repro.hardware import Disk, ExternalSupply, Machine

    machine = Machine(sim, ExternalSupply())
    disk = machine.attach(Disk(0.9, 0.2, 2.0, read_bandwidth=1.0))
    return machine.disk_resource, lambda owner, seconds: disk.read(
        machine, seconds, owner)


def _link_transfer(sim):
    from repro.hardware import ExternalSupply, Machine
    from repro.net import Link

    link = Link(Machine(sim, ExternalSupply()), bandwidth_bps=8.0,
                latency=0.0)
    # At 8 b/s a transfer of n bytes holds the link for n seconds.
    return link._resource, lambda owner, seconds: link.transfer(
        seconds, "recv")


class TestInterruptedWaiter:
    """A waiter interrupted in the queue must not keep (or later get)
    the grant: the next waiter is served when the holder releases."""

    @pytest.mark.parametrize("path", [_resource_use, _machine_compute,
                                      _scheduled_compute, _disk_read,
                                      _link_transfer])
    @pytest.mark.parametrize("interrupt_at", [0.2, 1.0])
    def test_grant_passes_to_next_waiter(self, path, interrupt_at):
        # interrupt_at=0.2: b is still queued.  interrupt_at=1.0: the
        # interrupt is pending when a's release hands b the grant, so b
        # is thrown into while already holding it.
        sim = Simulator()
        res, hold = path(sim)
        done = {}

        def worker(tag, start, seconds):
            yield sim.timeout(start)
            try:
                yield from hold(tag, seconds)
            except Interrupted:
                done[tag] = "interrupted"
                return
            done[tag] = sim.now

        sim.spawn(worker("a", 0.0, 1.0))
        b = sim.spawn(worker("b", 0.05, 1.0))
        sim.spawn(worker("c", 0.1, 1.0))
        sim.schedule(interrupt_at, lambda _t: b.interrupt("give up"))
        sim.run()
        assert done == {"a": 1.0, "b": "interrupted", "c": 2.0}
        assert res.in_use == 0 and res.queued == 0

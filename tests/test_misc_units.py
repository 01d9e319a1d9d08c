"""Unit tests for small pieces: timeline queries, X server, servers."""

import pytest

from repro.apps import XServer
from repro.experiments import build_rig
from repro.net import Server
from repro.sim import Simulator, Timeline


class TestTimeline:
    def make(self):
        timeline = Timeline()
        timeline.record(1.0, "energy", "supply", 100.0)
        timeline.record(2.0, "energy", "demand", 90.0)
        timeline.record(3.0, "energy", "supply", 80.0)
        timeline.record(4.0, "fidelity", "video", ("baseline", 1.0))
        return timeline

    def test_len_and_iter(self):
        timeline = self.make()
        assert len(timeline) == 4
        assert [r.category for r in timeline] == [
            "energy", "energy", "energy", "fidelity",
        ]

    def test_category_filter(self):
        timeline = self.make()
        assert len(timeline.category("energy")) == 3
        assert timeline.category("ghost") == []

    def test_series_with_label(self):
        timeline = self.make()
        times, values = timeline.series("energy", "supply")
        assert times == [1.0, 3.0]
        assert values == [100.0, 80.0]

    def test_series_without_label_takes_all(self):
        timeline = self.make()
        times, _values = timeline.series("energy")
        assert times == [1.0, 2.0, 3.0]


class TestXServer:
    def test_render_seconds_charges_x_process(self):
        rig = build_rig()
        xserver = rig.xserver

        def draw():
            yield from xserver.render_seconds(1.5)

        proc = rig.sim.spawn(draw())
        rig.run_until_complete(proc)
        assert rig.energy_report()["X"] > 0
        assert xserver.requests == 1

    def test_zero_seconds_is_free(self):
        rig = build_rig()

        def draw():
            yield from rig.xserver.render_seconds(0.0)

        proc = rig.sim.spawn(draw())
        rig.run_until_complete(proc)
        assert "X" not in rig.energy_report()

    def test_render_pixels_scales_with_area(self):
        rig = build_rig()
        xserver = rig.xserver
        done = []

        def draw():
            yield from xserver.render_pixels(100_000, 1e-6)
            done.append(rig.sim.now)

        proc = rig.sim.spawn(draw())
        rig.run_until_complete(proc)
        assert done[0] == pytest.approx(0.1)

    def test_render_bytes_scales_with_size(self):
        rig = build_rig()
        done = []

        def draw():
            yield from rig.xserver.render_bytes(1_000_000, 2e-7)
            done.append(rig.sim.now)

        proc = rig.sim.spawn(draw())
        rig.run_until_complete(proc)
        assert done[0] == pytest.approx(0.2)

    def test_standalone_xserver(self):
        from repro.hardware import build_machine

        sim = Simulator()
        machine = build_machine(sim)
        xserver = XServer(machine)

        def draw():
            yield from xserver.render_seconds(0.5, procedure="_PolyFill")

        sim.spawn(draw())
        sim.run()
        machine.advance()
        assert machine.energy_by_procedure[("X", "_PolyFill")] > 0


class TestServerSpeed:
    def test_set_speed_validation(self):
        server = Server("s")
        with pytest.raises(ValueError):
            server.set_speed(0.0)

    def test_set_speed_changes_service_time(self):
        server = Server("s", speed=1.0)
        assert server.service_time(2.0) == pytest.approx(2.0)
        server.set_speed(4.0)
        assert server.service_time(2.0) == pytest.approx(0.5)

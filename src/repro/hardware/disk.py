"""Hard-disk power model.

States follow Figure 4 of the paper: a spinning-but-idle disk draws
0.88 W and a standby (spun-down) disk 0.16 W.  Reads draw extra power
while the head is active, and leaving standby costs a spin-up delay —
the classic trade-off studied by the disk spin-down literature the
paper cites (Douglis et al., Li et al.).
"""

from __future__ import annotations

from repro.hardware.component import PowerComponent

__all__ = ["Disk"]


class Disk(PowerComponent):
    """Disk with off / standby / idle (spinning) / active states."""

    OFF = "off"
    STANDBY = "standby"
    IDLE = "idle"
    ACTIVE = "active"

    def __init__(self, idle_watts, standby_watts, active_watts,
                 spinup_seconds=2.5, read_bandwidth=2.5e6, name="disk"):
        super().__init__(
            name,
            states={
                self.OFF: 0.0,
                self.STANDBY: standby_watts,
                self.IDLE: idle_watts,
                self.ACTIVE: active_watts,
            },
            initial=self.IDLE,
        )
        self.spinup_seconds = spinup_seconds
        self.read_bandwidth = read_bandwidth  # bytes/second
        self.last_activity = 0.0

    def standby(self):
        """Spin the disk down."""
        self.set_state(self.STANDBY)

    def spin_up_needed(self):
        """True when an access must first wait for spin-up."""
        return self.state in (self.STANDBY, self.OFF)

    def read(self, machine, nbytes, process="kernel", procedure="_disk_read"):
        """Generator: read ``nbytes``, spinning up first if necessary.

        Energy during the transfer is attributed to ``process`` the way
        PowerScope attributes kernel I/O time to the requesting process.
        """
        yield from self._access(machine, nbytes, process, procedure)

    def write(self, machine, nbytes, process="kernel", procedure="_disk_write"):
        """Generator: write ``nbytes`` (same power/time model as reads)."""
        yield from self._access(machine, nbytes, process, procedure)

    def _access(self, machine, nbytes, process, procedure):
        sim = machine.sim
        # One head: concurrent accesses from different processes queue.
        grant = machine.disk_resource.acquire(owner=process)
        if not grant.triggered:
            yield from machine.disk_resource.wait(grant)
        try:
            if self.spin_up_needed():
                # Spin-up draws active power for the whole delay.
                self.set_state(self.ACTIVE)
                yield sim.timeout(self.spinup_seconds)
            self.set_state(self.ACTIVE)
            duration = nbytes / self.read_bandwidth
            token = machine.push_context(process, procedure)
            try:
                yield sim.timeout(duration)
            finally:
                machine.pop_context(token)
                self.set_state(self.IDLE)
                self.last_activity = sim.now
        finally:
            machine.disk_resource.release(grant)

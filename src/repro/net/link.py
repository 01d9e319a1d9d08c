"""The wireless link model.

The testbed used a 2 Mb/s WaveLAN operating at 900 MHz.  A transfer of
``nbytes`` occupies the link for ``nbytes * 8 / bandwidth`` seconds plus
a fixed latency; transfers serialize FIFO (the medium is shared).

While a transfer is in flight the client NIC sits in its recv/xmit
state and a fraction of wall time executes the network interrupt
handler — the paper's profiles attribute those samples to
``Interrupts-WaveLAN``, and here an attribution overlay does the same.
"""

from __future__ import annotations

from repro.sim.engine import Timeout
from repro.sim.resources import Resource

__all__ = ["Link", "NetworkError", "DisconnectedError", "INTERRUPT_PROCESS"]

INTERRUPT_PROCESS = "Interrupts-WaveLAN"


class NetworkError(Exception):
    """Invalid network operation."""


class DisconnectedError(NetworkError):
    """The wireless link is down (the client is disconnected)."""


class Link:
    """A shared half-duplex wireless link attached to a client machine.

    Parameters
    ----------
    machine:
        Client machine whose ``wavelan`` component this link drives.
    bandwidth_bps:
        Link bandwidth in bits/second (paper: 2 Mb/s).
    latency:
        Per-transfer fixed latency in seconds.
    interrupt_fraction:
        Fraction of wall time spent in the NIC interrupt handler while
        a transfer is in flight (attributed to ``Interrupts-WaveLAN``).
    """

    def __init__(self, machine, bandwidth_bps=2e6, latency=0.005,
                 interrupt_fraction=0.15):
        if bandwidth_bps <= 0:
            raise NetworkError(f"bandwidth must be positive, got {bandwidth_bps}")
        if latency < 0:
            raise NetworkError(f"latency must be >= 0, got {latency}")
        if not 0.0 <= interrupt_fraction <= 1.0:
            raise NetworkError(
                f"interrupt fraction {interrupt_fraction} outside [0, 1]"
            )
        self.machine = machine
        self.sim = machine.sim
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.interrupt_fraction = interrupt_fraction
        self._resource = Resource(self.sim, capacity=1, name="link")
        self.bytes_transferred = 0
        self.transfer_count = 0
        self._observers = []
        self.up = True

    # ------------------------------------------------------------------
    # observability and variability
    # ------------------------------------------------------------------
    def observe(self, callback):
        """Register ``callback(nbytes, seconds)`` per completed transfer.

        Bandwidth estimators (see :mod:`repro.net.bandwidth`) subscribe
        here, the way Odyssey's viceroy passively observed traffic.
        """
        self._observers.append(callback)

    def set_bandwidth(self, bandwidth_bps):
        """Change the link's bandwidth (a variable-quality network).

        In-flight transfers finish at the old rate; new transfers see
        the new one.
        """
        if bandwidth_bps <= 0:
            raise NetworkError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.bandwidth_bps = bandwidth_bps

    def set_up(self, up):
        """Connect or disconnect the link (mobile clients disconnect)."""
        self.up = bool(up)

    def transfer_time(self, nbytes):
        """Seconds the link is busy moving ``nbytes``."""
        return self.latency + nbytes * 8.0 / self.bandwidth_bps

    @property
    def nic(self):
        return self.machine.components.get("wavelan")

    def transfer(self, nbytes, direction):
        """Generator: move ``nbytes`` over the link.

        ``direction`` is ``"recv"`` or ``"xmit"`` from the client's
        perspective.  The client NIC wakes for the transfer (leaving
        standby if power management rests it there) and returns to its
        resting state afterwards.
        """
        if nbytes < 0:
            raise NetworkError(f"cannot transfer negative bytes {nbytes}")
        if direction not in ("recv", "xmit"):
            raise NetworkError(f"invalid direction {direction!r}")
        if not self.up:
            raise DisconnectedError("link is down")
        duration = self.transfer_time(nbytes)
        sim = self.sim
        machine = self.machine
        start = sim.now
        nic = self.nic
        # Acquire, hold and release the medium directly: a free link
        # grants synchronously, so there is nothing to yield on first.
        resource = self._resource
        grant = resource.acquire(owner=direction)
        if not grant.triggered:
            yield from resource.wait(grant)
        if nic is not None:
            nic.begin_transfer(direction)
        overlay = None
        if self.interrupt_fraction > 0.0:
            overlay = machine.add_overlay(
                self.interrupt_fraction, INTERRUPT_PROCESS, "_nic_interrupt"
            )
        try:
            yield Timeout(sim, duration)
        finally:
            if overlay is not None:
                machine.remove_overlay(overlay)
            if nic is not None:
                nic.end_transfer()
            self.bytes_transferred += nbytes
            self.transfer_count += 1
            elapsed = sim.now - start
            for observer in self._observers:
                observer(nbytes, elapsed)
            resource.release(grant)

    def recv(self, nbytes):
        """Generator: receive ``nbytes`` from the network."""
        yield from self.transfer(nbytes, "recv")

    def xmit(self, nbytes):
        """Generator: transmit ``nbytes`` to the network."""
        yield from self.transfer(nbytes, "xmit")

"""Power-state machines for hardware components.

Each component (display, disk, wireless NIC, CPU) is a named set of
power states, each drawing a constant number of watts.  The
:class:`~repro.hardware.machine.Machine` owns the composition: it sums
component draws, applies the superlinear correction the paper measured,
and integrates energy over simulated time.

Components must notify the machine *before* changing state so that the
energy consumed in the outgoing state is integrated at the old power
level — state changes are edges in a piecewise-constant power signal.

The notification hook (``_pre_change``, installed by ``Machine.attach``)
integrates energy up to now and marks this component's cached watts
stale — the machine re-reads only stale components when it next sums
its power — so authors of component subclasses that mutate power
through paths other than :meth:`PowerComponent.set_state` (e.g. zoned
displays re-lighting individual zones) MUST call ``self._pre_change()``
before every power-affecting mutation.  Skipping it silently corrupts
both the energy integral and the cache; see docs/architecture.md
("Performance").
"""

from __future__ import annotations

__all__ = ["HardwareError", "PowerComponent"]


class HardwareError(Exception):
    """Invalid hardware operation (unknown state, duplicate name, ...)."""


class PowerComponent:
    """A hardware component with named constant-power states.

    Parameters
    ----------
    name:
        Component name, unique within a machine (e.g. ``"display"``).
    states:
        Mapping of state name to watts drawn in that state.
    initial:
        Starting state name.

    Examples
    --------
    >>> disk = PowerComponent("disk", {"standby": 0.16, "idle": 0.88}, "idle")
    >>> disk.power
    0.88
    >>> disk.set_state("standby")
    >>> disk.power
    0.16
    """

    def __init__(self, name, states, initial):
        if not states:
            raise HardwareError(f"{name}: at least one power state is required")
        for state, watts in states.items():
            if watts < 0:
                raise HardwareError(f"{name}.{state}: negative power {watts}")
        if initial not in states:
            raise HardwareError(f"{name}: unknown initial state {initial!r}")
        self.name = name
        self.states = dict(states)
        self.state = initial
        self._pre_change = None  # set by Machine.attach
        self._observers = []

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} state={self.state} {self.power:.2f}W>"

    @property
    def power(self):
        """Watts drawn in the current state."""
        return self.states[self.state]

    def set_state(self, state):
        """Transition to ``state``, integrating energy up to this instant."""
        if state not in self.states:
            raise HardwareError(
                f"{self.name}: unknown state {state!r} "
                f"(valid: {sorted(self.states)})"
            )
        if state == self.state:
            return
        if self._pre_change is not None:
            self._pre_change()
        old, self.state = self.state, state
        for observer in self._observers:
            observer(self, old, state)

    def observe(self, callback):
        """Register ``callback(component, old_state, new_state)``."""
        self._observers.append(callback)

    def is_off(self):
        """True when the component draws no power at all."""
        return self.power == 0.0

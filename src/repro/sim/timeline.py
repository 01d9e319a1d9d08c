"""Timeline tracing: a time-stamped record of simulation events.

Experiments use the timeline to reconstruct the paper's trace figures —
supply/demand curves and per-application fidelity steps over elapsed
time (Figure 19) — and tests use it to assert ordering properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TraceRecord", "Timeline"]


@dataclass(frozen=True)
class TraceRecord:
    """One timeline entry: ``(time, category, label, value)``."""

    time: float
    category: str
    label: str
    value: object = None


@dataclass
class Timeline:
    """An append-only, queryable event trace."""

    records: list = field(default_factory=list)

    def record(self, time, category, label, value=None):
        """Append a :class:`TraceRecord`."""
        self.records.append(TraceRecord(time, category, label, value))

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def category(self, category):
        """All records with the given category, in time order."""
        return [r for r in self.records if r.category == category]

    def series(self, category, label=None):
        """Return ``(times, values)`` for plotting-style consumption."""
        records = [
            r
            for r in self.records
            if r.category == category and (label is None or r.label == label)
        ]
        return [r.time for r in records], [r.value for r in records]

"""Summary statistics for experiment trials.

The paper reports each value as the mean of five (or ten) trials with
90 % confidence intervals; these helpers reproduce that reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TrialStats", "summarize", "t_quantile"]

def _coverage(theta, dof):
    """P(|T| < sqrt(dof) * tan(theta)) for integer ``dof``.

    The finite sums of Abramowitz & Stegun 26.7.3 (odd ``dof``) and
    26.7.4 (even ``dof``); monotone increasing in ``theta``.
    """
    odd = dof % 2
    sin, cos = math.sin(theta), math.cos(theta)
    total, term = 0.0, 1.0
    for k in range(dof // 2):
        total += term
        term *= cos * cos * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    if odd:
        return 2.0 / math.pi * (theta + sin * cos * total)
    return sin * total


def t_quantile(dof):
    """Two-sided 90 % Student-t quantile for integer ``dof >= 1``.

    Bisects ``theta = atan(t / sqrt(dof))`` to float resolution, so the
    cost is linear in ``dof``; callers pass ``n - 1`` for ``n`` trials.
    """
    if dof < 1 or dof != int(dof):
        raise ValueError(
            f"degrees of freedom must be an integer >= 1, got {dof!r}")
    dof = int(dof)
    lo, hi = 0.0, math.pi / 2
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return math.sqrt(dof) * math.tan(mid)
        if _coverage(mid, dof) < 0.90:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class TrialStats:
    """Mean, sample standard deviation and CI half-width of trials."""

    mean: float
    stdev: float
    ci90: float
    n: int

    @property
    def low(self):
        return self.mean - self.ci90

    @property
    def high(self):
        return self.mean + self.ci90

    def __format__(self, spec):
        spec = spec or ".1f"
        return f"{self.mean:{spec}} ± {self.ci90:{spec}}"


def summarize(values):
    """Summarize trial values the way the paper's error bars do."""
    values = list(values)
    if not values:
        raise ValueError("cannot summarize zero trials")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return TrialStats(mean, 0.0, 0.0, 1)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    stdev = math.sqrt(variance)
    half = t_quantile(n - 1) * stdev / math.sqrt(n)
    return TrialStats(mean, stdev, half, n)

"""Direct thinning simulators used as independent cross-checks.

These are classical Ogata-style thinning loops written against raw
parameters. They deliberately share no code with the decomposition-based
simulators (no neighborhoods, no weights, no ledger), so distributional
agreement between the two routes is an end-to-end check of the machinery.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import ExplosionGuardError
from .sampling import RandomStream


def ogata_hawkes(
    rates: Sequence[Callable[[float], float]],
    alpha: Sequence[Sequence[float]],
    beta: Sequence[Sequence[float]],
    t_max: float,
    rng: RandomStream,
) -> list[list[float]]:
    """Hawkes process on nodes 0..n-1 with intensity rates[i](drive_i), empty
    past before 0; the event times per node. The drive of node i sums the
    kernels alpha[i][j]*exp(-beta[i][j] t) from source j over the past events:
    rates[i] is mu_i + u for linear Hawkes, exp for exponential Hawkes.

    One exponential sum per (target, source) pair. With every alpha
    nonnegative and every rate nondecreasing, each intensity decays between
    events, so their total just after the last event dominates until the
    next acceptance; an accepted proposal goes to node i with probability
    intensity_i over that total. Raises ``ExplosionGuardError`` when an
    intensity or their total overflows the float range.
    """
    n = len(rates)
    events: list[list[float]] = [[] for _ in range(n)]
    t = 0.0
    # s[i][j]: sum of exp(-beta[i][j] (t - t_k)) over past events t_k of node j
    s = [[0.0] * n for _ in range(n)]

    def overflow() -> ExplosionGuardError:
        return ExplosionGuardError(f"the intensities overflow at t={t:g} after {sum(map(len, events))} events")

    def intensities() -> list[float]:
        try:
            return [rates[i](sum(alpha[i][j] * s[i][j] for j in range(n))) for i in range(n)]
        except OverflowError:
            raise overflow() from None

    while True:
        bound = sum(intensities())
        if bound <= 0.0:
            return events
        if bound == math.inf:
            raise overflow()
        w = rng.exponential(bound)
        t_new = t + w
        if t_new > t_max:
            return events
        for i in range(n):
            for j in range(n):
                s[i][j] *= math.exp(-beta[i][j] * w)
        t = t_new
        u = rng.uniform() * bound
        for node, lam in enumerate(intensities()):
            u -= lam
            if u < 0.0:
                events[node].append(t)
                for i in range(n):
                    s[i][node] += 1.0
                break


def ogata_age_hawkes(
    psi0: float,
    slope: float,
    alpha: float,
    beta: float,
    refractory: float,
    t_max: float,
    rng: RandomStream,
) -> list[float]:
    """Single-node age-dependent Hawkes, rate (psi0 + slope*drive) gated by the
    hard refractory period, kernel alpha*exp(-beta t), empty past before 0.

    The indicator only lowers the intensity and the drive decays between
    events, so psi evaluated at the current drive dominates ahead.
    """
    if refractory <= 0:
        raise ValueError("refractory must be positive")
    events: list[float] = []
    t = 0.0
    s = 0.0
    last = -math.inf
    while True:
        bound = psi0 + slope * alpha * s
        if bound <= 0.0:
            return events
        w = rng.exponential(bound)
        t_new = t + w
        if t_new > t_max:
            return events
        s *= math.exp(-beta * w)
        t = t_new
        lam = (psi0 + slope * alpha * s) if (t - last) > refractory else 0.0
        if lam > 0.0 and rng.uniform() < lam / bound:
            events.append(t)
            s += 1.0
            last = t

"""Exact-enough series evaluation: Riemann zeta heads and tails.

Partial sums are completed by an Euler-Maclaurin tail (integral term, half
correction and three Bernoulli terms). With 64 explicit terms the first
omitted Bernoulli term, which bounds the error for real arguments, is below
1e-15 for every exponent s in (1, 12]; the analysis tolerance is 1e-8.
:func:`zeta_tail_err` returns that bound for one tail, plus rounding.
"""

from __future__ import annotations

import math

_HEAD = 64
# B2, B4, B6 divided by (2i)!
_BERN = ((1.0 / 6.0) / 2.0, (-1.0 / 30.0) / 24.0, (1.0 / 42.0) / 720.0)
# |B8| / 8!, the coefficient of the first omitted Bernoulli term
_BERN_NEXT = (1.0 / 30.0) / 40320.0
# relative rounding allowance: 2^-45 is 128 ulp, several times the rounding of
# the at most 64 head terms and the Euler-Maclaurin terms summed in a tail
_ROUNDING = 2.0**-45


def _em_tail(s: float, n: int) -> float:
    """Euler-Maclaurin value of sum_{k > n} k^{-s} for s > 1, n >= 1."""
    tail = n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** (-s)
    rising = s
    power = float(n) ** (-s - 1.0)
    for i, coef in enumerate(_BERN):
        tail += coef * rising * power
        rising *= (s + 2 * i + 1) * (s + 2 * i + 2)
        power /= n * n
    return tail


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1."""
    if s <= 1.0:
        raise ValueError(f"zeta series diverges for s = {s}")
    head = sum(k ** (-s) for k in range(1, _HEAD + 1))
    return head + _em_tail(s, _HEAD)


def zeta_tail(s: float, n: int) -> float:
    """sum_{k > n} k^{-s} for s > 1 and n >= 0."""
    if s <= 1.0:
        raise ValueError(f"zeta tail diverges for s = {s}")
    if n < 0:
        raise ValueError("tail index must be nonnegative")
    if n == 0:
        return zeta(s)
    if n >= _HEAD:
        return _em_tail(s, n)
    head = sum(k ** (-s) for k in range(n + 1, _HEAD + 1))
    return head + _em_tail(s, _HEAD)


def zeta_tail_err(s: float, n: int) -> float:
    """Rigorous bound on |zeta_tail(s, n) - sum_{k > n} k^{-s}| for s > 1, n >= 0.

    x^{-s} is completely monotone, so the Euler-Maclaurin remainder is bounded
    by the first omitted Bernoulli term, |B8|/8! s(s+1)...(s+6) m^{-s-7}, at
    the index m = max(n, 64) where the tail is completed; a relative rounding
    allowance is added on top.
    """
    m = max(n, _HEAD)
    rising = math.prod(s + r for r in range(7))
    return _BERN_NEXT * rising * float(m) ** (-s - 7.0) + _ROUNDING * zeta_tail(s, n)


def harmonic_partial(gamma: float, m: int) -> float:
    """sum_{r=1}^{m} r^{-gamma} (0 for m <= 0)."""
    return sum(r ** (-gamma) for r in range(1, m + 1)) if m > 0 else 0.0

"""Galves-Löcherbach processes with saturation thresholds.

intensity_i(x) = psi( sum_j (beta_ij * N_j(-age_i(x), 0)) ^ K_ij ) where
N_j counts points of node j since node i's last own point (its age), ^ is
min, and beta_ii = 0. Decomposed over the empty set plus nested windows
omega_k x [-k*step, 0); the saturation thresholds make the total drive
bounded, but the per-neighborhood summands admit no summable deterministic
bounds, so the model serves decomposition evaluation and analysis rather
than the simulators.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from ..core import EMPTY_ND, Configuration, EmptyND, Neighborhood, NestedND, NodeId, NoGuard
from ..errors import CoverageError, ExplosionGuardError
from ..kernels import AffineRate
from ..sampling import RandomStream
from ..weights import GeometricLevels
from .base import KalikowModel, nested_levels, require_window_covers


class GLModel(KalikowModel):
    """Saturated counting interactions behind a Lipschitz nondecreasing rate."""

    def __init__(
        self,
        psi: AffineRate,
        beta: Mapping[tuple[NodeId, NodeId], float],
        saturation: Mapping[tuple[NodeId, NodeId], float],
        step: float,
        nodes: Sequence[NodeId],
        omega: Optional[Mapping[NodeId, Sequence[Sequence[NodeId]]]] = None,
        weights: Optional[Mapping[NodeId, GeometricLevels]] = None,
    ):
        if step <= 0:
            raise ValueError("window step must be positive")
        self.psi = psi
        self.step = float(step)
        self._nodes = tuple(sorted(int(n) for n in nodes))
        self.beta = {}
        self.sat = {}
        for (i, j), b in beta.items():
            i, j = int(i), int(j)
            if b < 0:
                raise ValueError("interaction weights must be nonnegative")
            if i == j and b != 0.0:
                raise ValueError(f"self-weight beta_{i}{i} must be zero")
            self.beta[(i, j)] = float(b)
        for (i, j), k in saturation.items():
            if k < 0:
                raise ValueError("saturation thresholds must be nonnegative")
            self.sat[(int(i), int(j))] = float(k)
        self._omega_levels = {}
        for i in self._nodes:
            sources = {j for (ii, j), b in self.beta.items() if ii == i and b > 0.0}
            self._omega_levels[i] = nested_levels(i, (omega or {}).get(i), self._nodes, sources)
        if weights is None:
            weights = {i: GeometricLevels(p_empty=0.5, ratio=0.5) for i in self._nodes}
        self.weights = dict(weights)
        self._guard = NoGuard()
        self._expand_cache: dict[tuple[int, int], Neighborhood] = {}

    # -- structure ----------------------------------------------------------

    def node_set(self):
        return self._nodes

    def guard(self):
        return self._guard

    def omega(self, i: NodeId, k: int) -> tuple[NodeId, ...]:
        levels = self._omega_levels[i]
        return levels[min(k, len(levels)) - 1]

    def expand(self, i: NodeId, desc) -> Neighborhood:
        if isinstance(desc, EmptyND):
            return Neighborhood.empty()
        if not isinstance(desc, NestedND):
            raise KeyError(f"descriptor {desc!r} is not a nested level")
        key = (i, desc.k)
        nb = self._expand_cache.get(key)
        if nb is None:
            d = desc.k * self.step
            nb = Neighborhood([(j, -d, 0.0) for j in self.omega(i, desc.k)])
            self._expand_cache[key] = nb
        return nb

    # -- drive --------------------------------------------------------------------

    def _age(self, i: NodeId, x: Configuration) -> float:
        last = x.last_before(i, 0.0)
        return math.inf if last is None else -last

    def _sat_drive(self, i: NodeId, k: int, x: Configuration) -> float:
        """Saturated drive truncated to level k's window; k = 0 gives 0."""
        if k < 1:
            return 0.0
        age = self._age(i, x)
        lo = max(-k * self.step, -age)
        total = 0.0
        for j in self.omega(i, k):
            b = self.beta.get((i, j), 0.0)
            if b == 0.0:
                continue
            count = x.count_in(j, lo, 0.0)
            total += min(b * count, self.sat.get((i, j), math.inf))
        return total

    def intensity(self, i: NodeId, x: Configuration) -> float:
        age = self._age(i, x)
        if x.window is not None:
            lo, hi = x.window
            if hi < 0.0:
                raise CoverageError(f"window {x.window} does not reach time 0")
            if lo > -age:
                raise CoverageError(
                    f"window {x.window} does not cover the age window (-{age:g}, 0)"
                )
        total = 0.0
        for j in self._nodes:
            b = self.beta.get((i, j), 0.0)
            if b == 0.0:
                continue
            count = len(x.points_in(j, -age, 0.0)) if math.isfinite(age) else sum(
                1 for s in x.points(j) if s < 0.0
            )
            total += min(b * count, self.sat.get((i, j), math.inf))
        return self.psi(total)

    def delta(self, i: NodeId, desc, x: Configuration) -> float:
        if isinstance(desc, EmptyND):
            return self.psi.at_zero
        if not isinstance(desc, NestedND):
            raise KeyError(f"descriptor {desc!r} is not a nested level")
        require_window_covers(x, self.expand(i, desc))
        return self.psi(self._sat_drive(i, desc.k, x)) - self.psi(
            self._sat_drive(i, desc.k - 1, x)
        )

    def pmf(self, i: NodeId, desc) -> float:
        return self.weights[i].pmf(desc)

    def sample_neighborhood(self, i: NodeId, rng: RandomStream):
        return self.weights[i].sample(rng)

    def enumerate_descriptors(self, i: NodeId, x: Optional[Configuration] = None):
        yield EMPTY_ND
        k = 1
        while True:
            yield NestedND(k)
            k += 1

    # -- simulation ---------------------------------------------------------------------

    def local_bound(
        self, i: NodeId, x: Configuration, t: float = 0.0, source: Optional[NodeId] = None
    ) -> float:
        """Finite only when no eligible driving point exists.

        A point of node j after node i's last own point can enter the
        level-k window band for every k at some future shift, and the level
        weights vanish as k grows, so the component values are unbounded over
        future shifts as soon as one eligible point exists.
        """
        fam = self.weights[i]
        last = x.last_before(i, t)
        since = -math.inf if last is None else last
        drive_cap = 0.0
        for j in self._nodes:
            b = self.beta.get((i, j), 0.0)
            if b == 0.0:
                continue
            eligible = sum(1 for s in x.points(j) if since < s <= t)
            if eligible:
                drive_cap += min(b * eligible, self.sat.get((i, j), math.inf))
        if drive_cap > 0.0 and self.psi.lipschitz > 0.0:
            raise ExplosionGuardError(
                f"node {i}: saturated-count components admit no finite bound over future"
                " shifts once an eligible driving point exists; this family is not"
                " simulable by adaptive thinning"
            )
        if self.psi.at_zero == 0.0:
            return 0.0
        if fam.p_empty == 0.0:
            raise ExplosionGuardError(
                f"node {i} has positive rate at zero drive but no weight on the empty set"
            )
        return self.psi.at_zero / fam.p_empty

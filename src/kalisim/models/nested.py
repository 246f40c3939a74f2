"""The nested-window family: neighborhoods v_k = omega_k x [-D_k*unit, 0),
k >= 1, with omega_1 = {i} and both the node sets and the depths growing
along the levels. The age-dependent Hawkes model (``models.age``, unit
delta) and the Galves-Löcherbach model (``models.gl``, unit the window step)
decompose over them, the lattice preset on pairs (omega_k, D_k) of its own
(``models.presets``); ``NestedModel`` alone knows the window convention.
"""

from __future__ import annotations

from typing import Collection, Mapping, Optional, Sequence

from ..core import Configuration, Neighborhood, NestedND, NodeId
from .base import KalikowModel


def nested_levels(
    omega: Optional[Mapping[NodeId, Sequence[Sequence[NodeId]]]],
    nodes: tuple[NodeId, ...],
    pairs: Collection[tuple[NodeId, NodeId]],
) -> dict[NodeId, list[tuple[NodeId, ...]]]:
    """Node sets omega_1, omega_2, ... of every node's nested family, checked.

    ``omega[i]`` lists node i's levels; the default is omega_1 = {i} and
    omega_2 = ``nodes``, and ``omega`` may name no node outside ``nodes``.
    ``pairs`` are the (target, source) pairs the intensities read. The summand
    of level k is the rate on omega_k minus the rate on omega_{k-1}, so
    omega_1 must be {i}, every level must contain the one before (or a summand
    goes negative), the last level must hold every source of i (or the
    summands miss part of the intensity) and no level may name a node outside
    ``nodes``.
    """
    given = {int(i): lv for i, lv in (omega or {}).items()}
    stray = sorted(set(given) - set(nodes))
    if stray:
        raise ValueError(f"omega names unknown nodes {stray}")
    out = {}
    for i in nodes:
        levels = [(i,), nodes] if i not in given else [tuple(sorted(int(j) for j in lvl)) for lvl in given[i]]
        if not levels or levels[0] != (i,):
            raise ValueError(f"omega_1 of node {i} must be {{{i}}}")
        for a, b in zip(levels, levels[1:]):
            if not set(a) <= set(b):
                raise ValueError(f"omega levels of node {i} must be nested")
        stray = sorted(set(levels[-1]) - set(nodes))
        if stray:
            raise ValueError(f"omega levels of node {i} reference unknown nodes {stray}")
        if not {j for ii, j in pairs if ii == i} <= set(levels[-1]):
            raise ValueError(f"omega levels of node {i} must eventually cover every source node {i} reads")
        out[i] = levels
    return out


class NestedModel(KalikowModel):
    """A family over the nested windows of depth unit ``unit``: on the finite
    network ``nodes`` the levels are ``nested_levels(omega, nodes, pairs)``,
    saturating at the last listed node set while the depth D_k = k keeps
    growing. A network without ``nodes`` overrides ``node_set``, ``omega``
    and ``depth``."""

    def __init__(
        self,
        unit: float,
        nodes: Optional[Sequence[NodeId]] = None,
        omega: Optional[Mapping[NodeId, Sequence[Sequence[NodeId]]]] = None,
        pairs: Collection[tuple[NodeId, NodeId]] = (),
    ):
        if unit <= 0:
            raise ValueError("window unit must be positive")
        self.unit = float(unit)
        self._windows: dict[tuple[NodeId, int], Neighborhood] = {}
        if nodes is not None:
            self._nodes = tuple(sorted(int(n) for n in nodes))
            self._levels = nested_levels(omega, self._nodes, pairs)

    def node_set(self):
        return self._nodes

    def omega(self, i: NodeId, k: int) -> tuple[NodeId, ...]:
        """The k-th nested node set of node i (omega_1 = {i}), in increasing order."""
        levels = self._levels[i]
        return levels[min(k, len(levels)) - 1]

    def depth(self, i: NodeId, k: int) -> int:
        """D_k, the time depth of node i's k-th level in units: k on a finite network."""
        return k

    def edge(self, i: NodeId, k: int) -> float:
        """-D_k*unit, the far edge of node i's k-th window."""
        return -self.depth(i, k) * self.unit

    def expand(self, i: NodeId, desc) -> Neighborhood:
        """The window v_k of ``NestedND(k)``, built on its first read and then kept."""
        if not isinstance(desc, NestedND):
            raise KeyError(f"descriptor {desc!r} is not a nested level")
        try:
            return self._windows[i, desc.k]
        except KeyError:
            k = desc.k
            lo = self.edge(i, k)
            nb = self._windows[i, k] = Neighborhood([(j, lo, 0.0) for j in self.omega(i, k)])
            return nb

    def enumerate_descriptors(self, i: NodeId, x: Optional[Configuration] = None):
        k = 1
        while True:
            yield NestedND(k)
            k += 1

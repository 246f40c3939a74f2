"""The atomic-bin family: models whose neighborhoods are built from
single-node time bins w_{j,n} = {j} x [-n*eps, -(n-1)*eps), n >= 1.

The linear Hawkes model decomposes over single atoms (``models.linear``),
the exponential (Taylor) model over ordered products of them
(``models.analytic``), and the lattice preset over atoms of width delta,
each read with the node's own first bin (``models.presets``). This module
is where that bin convention lives, once: a bin's edges (``bin_span``), and
in ``AtomicHawkesModel`` the bin width and each node's kernels from its
sources, an atom's piece and neighborhood (``bin_piece``, ``atom``), its
drive at a shifted past (``atom_value``), the atoms a past makes live, and
the bound every atom's component keeps at later shifts (``atom_bound``,
which walks each source's bins with ``future_bin_bounds``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from ..core import Configuration, Neighborhood, NodeId, _first_aged
from ..errors import ExplosionGuardError
from ..kernels import Kernel
from ..weights import AtomicWeights
from .base import KalikowModel, require_known_nodes

# Relative rounding allowance of the capped bin walk (derived in
# ``future_bin_bounds``): the relative roundings it covers come to below 2**-40.
_WALK_ALLOWANCE = 1.0 + 2.0**-32


class AtomicHawkesModel(KalikowModel):
    """A family over the atoms w_{j,n} of bin width ``eps`` on the finite
    network ``nodes``: ``kernels[(i, j)]`` is the kernel through which node
    j drives node i, and node i's sources are ``_incoming[i]``, in node order.
    """

    def __init__(self, nodes: Sequence[NodeId], kernels: Mapping[tuple[NodeId, NodeId], Kernel], eps: float):
        if eps <= 0:
            raise ValueError("bin width eps must be positive")
        self.eps = float(eps)
        self._nodes = tuple(sorted(int(n) for n in nodes))
        self.kernels = {(int(i), int(j)): k for (i, j), k in kernels.items()}
        require_known_nodes(self.kernels, self._nodes, "kernel")
        self._incoming = {
            i: {j: self.kernels[i, j] for j in self._nodes if (i, j) in self.kernels} for i in self._nodes
        }
        self._atoms: dict[tuple[NodeId, int], Neighborhood] = {}
        # node i's per-source set-up of the bound walk (``_source_walk``),
        # filled on a source's first points
        self._walks: dict[NodeId, dict] = {i: {} for i in self._nodes}

    def node_set(self):
        return self._nodes

    def require_lossless(self, atoms: Mapping[NodeId, AtomicWeights]) -> None:
        """Raise ValueError where node i's bin weights ``atoms[i]`` truncate a
        source's bins short of its kernel's support: the decomposition would
        miss the drive past the truncation. So a kernel of infinite support
        always meets untruncated weights."""
        for i in self._nodes:
            fam = atoms[i]
            for j, ker in self._incoming[i].items():
                nmax = fam.trunc.get(j) if j in fam.shares else None
                if nmax is not None and nmax * self.eps < ker.support_end:
                    raise ValueError(
                        f"atom family of node {i} truncates node {j} at bin {nmax} but the kernel"
                        f" reaches back to {ker.support_end:g}; the decomposition would be lossy"
                    )

    # -- the atoms ---------------------------------------------------------------

    def bin_piece(self, j: NodeId, n: int) -> tuple[NodeId, float, float]:
        """The piece (j, -n*eps, -(n-1)*eps) of the atom w_{j,n}."""
        return (j, *bin_span(n, self.eps))

    def atom(self, j: NodeId, n: int) -> Neighborhood:
        """The neighborhood w_{j,n}, built on its first read and then kept."""
        nb = self._atoms.get((j, n))
        if nb is None:
            nb = self._atoms[j, n] = Neighborhood([self.bin_piece(j, n)])
        return nb

    def atom_value(self, i: NodeId, j: NodeId, n: int, x: Configuration, t: float = 0.0) -> float:
        """a_{(j,n)}, the drive of the atom w_{j,n} on node ``i`` at the past
        of ``x`` shifted to ``t``: the kernel from j summed over the points of
        j whose shifted time lies in the bin, 0 when no kernel drives i from
        j. The points are found as ``Configuration.restrict_at`` finds them,
        which at ``t`` = 0 is ``Configuration.points_in``, and summed in time
        order."""
        ker = self._incoming[i].get(j)
        if ker is None:
            return 0.0
        pts = x.points(j)
        lo = _first_aged(pts, t, -n * self.eps)
        return sum([ker(-(s - t)) for s in pts[lo : _first_aged(pts, t, -(n - 1) * self.eps, lo)]])

    def _live_atoms(self, i: NodeId, x: Configuration) -> list[tuple[NodeId, int]]:
        """Atoms whose bin holds a point of ``x`` and whose kernel has not yet
        vanished at the bin's near edge, by bin and then by node.

        Atom (j, n) holds shifted times in [-n*eps, -(n-1)*eps), the bin of
        ages ((n-1)*eps, n*eps] that ``_bin_of`` finds."""
        out = []
        for j, ker in self._incoming[i].items():
            if ker.is_zero():
                continue
            bins = sorted({_bin_of(-s, self.eps) for s in x.points(j) if s < 0.0})
            out.extend((j, n) for n in bins if (n - 1) * self.eps < ker.support_end)
        return sorted(out, key=lambda a: (a[1], a[0]))

    # -- the bound every atom keeps at later shifts ------------------------------------

    def atom_bound(
        self, i: NodeId, atoms: AtomicWeights, x: Configuration, t: float, source: Optional[NodeId] = None
    ) -> float:
        """Largest B_n / lambda(w_{j,n}) over the atoms of node ``i``'s sources.

        ``atoms`` weighs the bins w_{j,n}; B_n is the bound of
        ``future_bin_bounds``, so the value bounds every atom's component at
        every future shift of ``x``'s past before ``t``. ``source=j`` reads
        j's atoms only.

        Each source's bins are walked by ``future_bin_bounds``, which stops
        early where an infinite-support kernel decays faster across one bin
        than the bin weights (``decay_per(eps)`` below the ratio), yet returns
        the float of the walk over every bin. Such a kernel meets untruncated
        weights (``require_lossless``), so it must decay so, or the ratios
        grow without bound along future shifts and no finite bound exists; a
        compact support needs no decay.
        """
        best = 0.0
        walks = self._walks[i]
        for j in self._incoming[i] if source is None else (source,):
            pts = x.points(j)
            if not pts:
                continue
            walk = walks.get(j)
            if walk is None:
                walk = walks[j] = self._source_walk(i, j, atoms)
            if walk:
                ker, nmax, falls, weight, table = walk
                best = future_bin_bounds(ker, pts, t, self.eps, nmax, weight, best, falls, table)
        return best

    def _source_walk(self, i: NodeId, j: NodeId, atoms: AtomicWeights):
        """What every bound walk of node ``i`` over source ``j``'s bins reads,
        as ``(kernel, nmax, falls, weight, table)`` for ``future_bin_bounds``.

        () when no kernel, or a zero one, drives i from j: its atoms'
        components are 0. Raises ``ExplosionGuardError`` when the components
        admit no finite bound once j has points: the atoms carry no weight,
        or the weights decay at least as fast as a kernel of infinite support.
        """
        ker = self._incoming[i].get(j)
        if ker is None or ker.is_zero():
            return ()
        if (1.0 - atoms.p_empty) * atoms.shares.get(j, 0.0) == 0.0:
            raise ExplosionGuardError(f"node {i}: kernel from node {j} is active but its atoms carry no weight")
        falls = math.isinf(ker.support_end)
        if falls and not ker.decay_per(self.eps) < atoms.ratios[j]:
            raise ExplosionGuardError(
                f"node {i}: bin weights from node {j} decay at least as fast as the kernel"
                " across bins; components admit no finite bound at future shifts"
            )
        return ker, atoms.trunc[j], falls, partial(atoms.bin_weight, j), ([math.nan], [math.nan])


def bin_span(n: int, eps: float) -> tuple[float, float]:
    """The edges (-n*eps, -(n-1)*eps) of bin n >= 1 of width ``eps``: the bin
    holds the shifted times in [-n*eps, -(n-1)*eps). The lattice preset's
    atoms are these bins at eps = delta (``models.presets``)."""
    return -n * eps, -(n - 1) * eps


def _bin_of(age: float, eps: float) -> int:
    """The bin holding ``age`` >= 0: the first n >= 1 with age <= n*eps, as
    the walk compares them."""
    n = int(age / eps) + 1
    while n > 1 and age <= (n - 1) * eps:
        n -= 1
    while age > n * eps:
        n += 1
    return n


def future_bin_bounds(
    ker,
    pts: tuple[float, ...],
    t: float,
    eps: float,
    nmax: Optional[int],
    weight: Callable[[int], float],
    best: float = 0.0,
    falls: bool = False,
    table: Optional[tuple[list[float], list[float]]] = None,
) -> float:
    """The largest of ``best`` and the ratios B_n / weight(n) over the bins n >= 1.

    ``table`` keeps h((n-1)*eps) and weight(n) at index n across calls, grown
    only as far as a walk reads.

    B_n bounds the bin-n drive of ``ker`` at every later shift of the past.
    ``pts`` are one source node's absolute point times, increasing; the past
    is the points at or before ``t``. Bin n holds ages in ((n-1)*eps, n*eps],
    as the atom w_{j,n} holds shifted times in [-n*eps, -(n-1)*eps). A point
    of age a can be in bin n now or later iff a <= n*eps, and its kernel
    value there is at most h(max(a, (n-1)*eps)), the kernel being
    nonincreasing. So B_n is the kernel sum over the points in bin n plus
    h((n-1)*eps) times the number of younger points. The walk reads the
    points newest first, building their kernel values' prefix sums in that
    order. It starts at the newest point's bin (every earlier B_n is 0) and
    ends at the first bin whose lower edge the kernel is 0 at, as every later
    B_n is 0, or at ``nmax`` when the weights truncate. When ``falls``, which
    needs a kernel of infinite support and so untruncated weights, it ends,
    at the latest, at the bin past the oldest point's: beyond it B_n is the
    count of points times h((n-1)*eps), whose ratio falls with n.
    Otherwise the ratios may rise up to the last bin, so the walk covers the
    truncation or the compact support whole.

    *Stopping rule.* ``falls`` says that h_n / w_n is nonincreasing in n, with
    h_n = h((n-1)*eps) and w_n = weight(n): the kernel decays faster across a
    bin than the weights. Say N points are at or before ``t`` and the K
    newest are read before bin n (their ages are at most (n-1)*eps). For
    m >= n a point younger than bin m adds h_m to B_m, and a point in bin m
    adds its kernel value v <= h_m plus the rounding of its addition to the
    prefix sums, which is at most v: a rounded sum is no farther from the
    exact one than the old sum is. The K read points are younger than bin m,
    so B_m <= (2N - K) h_m and B_m / w_m <= (2N - K) h_n / w_n. The walk
    stops at the first bin n where this envelope, times
    ``_WALK_ALLOWANCE``, is at most the running maximum: no later bin can
    raise it, so the result is the float that the walk over every bin gives.
    The walk reads the points in the live window and then
    log(2N / K') / log(ratio / decay) bins or fewer, K' being the count that
    set the maximum: O(log N) however long the history. The allowance covers
    every other
    rounding, each relative: the product, sum and difference in B_m, the
    envelope's product and division, the bin edges, the kernel's and the
    weight's evaluation, and a kernel evaluation that is nonincreasing only
    to within 2**-50. While values stay in the normal float range these come
    to below 2**-40.
    """
    hi = bisect_right(pts, t)
    if not hi:
        return best
    if falls:
        n_stop = int((t - pts[0]) / eps) + 2
    elif nmax is not None:
        n_stop = nmax
    else:
        n_stop = int(ker.support_end / eps) + 2
    acc = 0.0  # the kernel values' prefix sum over the points read, newest first
    k = 0  # points read: those younger than the current bin
    n = _bin_of(t - pts[hi - 1], eps)
    edges, weights = table or ([math.nan], [math.nan])  # index 0 is no bin
    while n <= n_stop:
        if n >= len(edges):
            for m in range(len(edges), n + 1):
                edges.append(ker((m - 1) * eps))
                weights.append(weight(m))
        c = edges[n]
        if c == 0.0:
            break  # the kernel is 0 from here on, and so is every B_m
        w = weights[n]
        if falls and (2 * hi - k) * c / w * _WALK_ALLOWANCE <= best:
            break  # no later bin can raise the maximum
        k_lo, acc_lo = k, acc
        hi_edge = n * eps
        while k < hi and (age := t - pts[hi - 1 - k]) <= hi_edge:
            acc += ker(age)
            k += 1
        bound_n = (acc - acc_lo) + k_lo * c
        if bound_n > 0.0 and (ratio := bound_n / w) > best:
            best = ratio
        n += 1
    return best

"""Branching-process cost analysis for the backward construction.

Every expanded point draws one neighborhood v and then spawns, per child
node j, a Poisson number of children with mean Gamma_j * mu(p_j(v)). The
toolkit computes the mean offspring matrix, the subcriticality constant (sup
of row sums), expected total clan sizes via the Neumann series and the
log-Laplace fixed point of the total progeny.

:func:`branching_summary` is the one place that picks a reduction. The
scalar reduction reads a translation-invariant model's common row total
(``invariant_offspring_mean``) as gamma and gives E(W) = 1/(1 - gamma); the
sample reduction builds M over a finite node sample, takes gamma as the
largest row total and E(W) from one solve of (Id - M) w = 1.
:class:`BranchingSummary` says which fields each one fills.

E(W) is the mean total progeny of a Galton-Watson tree that realizes every
drawn neighbourhood in full. A clan realizes each region once, and a child's
fresh region lies inside its neighbourhood minus what its ancestors covered,
so the tree dominates the clan: E(W) is an upper bound on the mean clan, and
the verdict gamma < 1 is sufficient for termination, not necessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import NodeId
from .errors import ConfigError, DivergenceError, NonSummableError
from .models.base import KalikowModel

ANALYSIS_TOL = 1e-8
# largest off-sample offspring mass at which a sample's matrix still gives E(W)
OFF_MASS_TOL = 1e-6
FAMILY_TOL = 1e-10  # neighbourhood mass an offspring model leaves unlisted
MAX_ITER = 200_000  # log-Laplace fixed-point iterations


def branching_matrix(model: KalikowModel, nodes: Sequence[NodeId]) -> np.ndarray:
    """Mean offspring matrix over a finite node set.

    M[i, j] = sum_v lambda_i(v) * Gamma_j * mu(p_j(v)); lazy families are
    summed with closed-form tails below the analysis tolerance. Offspring
    mass landing outside the node set is not part of the matrix; use
    :func:`branching_summary` to see it.
    """
    m, _, _ = _matrix_with_offmass(model, nodes)
    return m


def _matrix_with_offmass(model: KalikowModel, nodes: Sequence[NodeId]):
    """M over the sample, each row's off-sample mass and each node's row total."""
    node_list = tuple(int(n) for n in nodes)
    if not node_list:
        raise ValueError("need a nonempty node sample")
    for j in node_list:
        model.require_bound(j)  # refuses a node outside the bounded regime
    index = {j: k for k, j in enumerate(node_list)}
    m = np.zeros((len(node_list), len(node_list)))
    off = np.zeros(len(node_list))
    total: dict[NodeId, float] = {}
    for row_pos, i in enumerate(node_list):
        row = model.offspring_row(i, tol=ANALYSIS_TOL)
        if not math.isfinite(row.far + row.err):
            raise NonSummableError(f"offspring series of node {i} has a divergent tail")
        for j, mass in row.near.items():
            if j in index:
                m[row_pos, index[j]] = mass
            else:
                off[row_pos] += mass
        # conservative: the far mass plus the bound on its error
        off[row_pos] += row.far + row.err
        total[i] = sum(row.near.values()) + row.far + row.err
    return m, off, total


def subcriticality_gamma(
    model: KalikowModel,
    nodes: Optional[Sequence[NodeId]] = None,
    invariant: bool = False,
) -> BranchingSummary:
    """gamma = sup_i sum_v P(v) lambda_i(v); backward steps terminate a.s. iff < 1.

    The same reduction as :func:`branching_summary`, under the name the
    subcriticality gate reads it by.
    """
    return branching_summary(model, nodes, invariant)


def _clan_sizes(m: np.ndarray) -> np.ndarray:
    """w = (Id - M)^{-1} 1, every type's E(W) in one solve."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("M must be square")
    if (m < 0).any():
        raise ValueError("M must be nonnegative")
    rows = m.sum(axis=1)
    if rows.max(initial=0.0) >= 1.0:
        raise NonSummableError(
            f"non-summable Neumann series: max row sum {rows.max():g} >= 1"
        )
    return np.linalg.solve(np.eye(m.shape[0]) - m, np.ones(m.shape[0]))


def expected_clan_size(m: np.ndarray, i: int) -> float:
    """E_i(W) = (row i of (Id - M)^{-1}) . 1, the ancestor included: an upper
    bound on the mean clan of node i (see the module docstring).

    Requires every row sum of M below 1; otherwise the Neumann series
    sum_k M^k diverges.
    """
    return float(_clan_sizes(m)[i])


@dataclass(frozen=True)
class BranchingSummary:
    """The branching reduction of a model: gamma, the verdict and E(W).

    The scalar reduction (``invariant``) holds for a translation-invariant
    family: ``matrix`` is [[gamma]], ``per_node`` and ``off_mass`` are empty,
    and ``expected_w`` has the one key 0. The sample reduction fills
    ``matrix`` with M over the node sample, ``per_node`` with each sampled
    node's row total (every listed entry, inside the sample or not, plus the
    far mass and the bound on its error, so gamma is conservative),
    ``off_mass`` with each row's mass outside the sample where it is
    positive, and ``expected_w`` with every sampled node's E(W), an upper
    bound on its mean clan.

    ``expected_w`` is empty when gamma >= 1, or when a sample that is not
    invariant leaks more than ``OFF_MASS_TOL``; ``expected_w_note`` then
    says why, and is None otherwise.
    """

    matrix: np.ndarray
    gamma: float
    subcritical: bool
    expected_w: dict[NodeId, float]
    off_mass: dict[NodeId, float]
    invariant: bool
    per_node: dict[NodeId, float] = field(default_factory=dict)
    expected_w_note: Optional[str] = None

    @property
    def verdict(self) -> str:
        return "subcritical" if self.subcritical else "supercritical"


def branching_summary(
    model: KalikowModel,
    nodes: Optional[Sequence[NodeId]] = None,
    invariant: bool = False,
) -> BranchingSummary:
    """Gamma, the verdict and E(W) of ``model`` by one of two reductions.

    The scalar reduction, taken with ``invariant=True`` or for an infinite
    network given no node sample, needs the model's
    ``invariant_offspring_mean`` and takes no ``nodes`` (``ConfigError``).
    The sample reduction works over ``nodes`` (every node of a finite network
    by default); on an invariant model its E(W) is exact whatever mass leaves
    the sample.
    """
    mean = model.invariant_offspring_mean()
    invariant = invariant or (nodes is None and model.node_set() is None)
    if invariant:
        if nodes is not None:
            raise ConfigError(["the scalar reduction takes no node sample"])
        if mean is None:
            raise NonSummableError("no invariance certificate: pass an explicit node sample")
        node_list, m, off, per, gamma = (0,), np.array([[mean]]), np.zeros(1), {}, mean
    else:
        node_list = tuple(nodes) if nodes is not None else model.node_set()
        m, off, per = _matrix_with_offmass(model, node_list)
        gamma = max(per.values())
    expected = {}
    note = None
    if gamma >= 1.0:
        note = f"supercritical (gamma = {gamma:g}): the clan size has no finite mean"
    elif mean is not None:
        expected = dict.fromkeys(node_list, 1.0 / (1.0 - mean))
    elif off.max(initial=0.0) < OFF_MASS_TOL:
        w = _clan_sizes(m)
        expected = {j: float(w[pos]) for pos, j in enumerate(node_list)}
    else:
        pos = int(off.argmax())
        note = (
            f"off-sample mass {off[pos]:g} of node {node_list[pos]} is not below {OFF_MASS_TOL:g};"
            " the sample's matrix would understate E(W)"
        )
    return BranchingSummary(
        matrix=m,
        gamma=gamma,
        subcritical=gamma < 1.0,
        expected_w=expected,
        off_mass={j: float(off[pos]) for pos, j in enumerate(node_list) if off[pos] > 0},
        invariant=invariant,
        per_node=per,
        expected_w_note=note,
    )


# ---------------------------------------------------------------------------
# Log-Laplace transform of the total progeny
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OffspringModel:
    """Per-type offspring structure: mixture weights over neighborhoods and the
    Poisson means Gamma_j mu(p_j(v)) each neighborhood induces per child type.

    A point of type i draws one neighborhood v, with probability
    ``weights[i][v]``, and then independent Poisson children of every type j
    with means ``means[i][v, j]``: a multitype Poisson mixture, whose child
    counts of different types are dependent through the shared v.
    ``means[i]`` is the (n_v, n_types) array of those means.
    """

    weights: tuple[np.ndarray, ...]
    means: tuple[np.ndarray, ...]

    def __post_init__(self):
        for w, m in zip(self.weights, self.means):
            if w.ndim != 1 or m.ndim != 2 or m.shape[0] != w.shape[0]:
                raise ValueError("weights and means are inconsistent")
            if m.shape[1] != self.n_types:
                raise ValueError("means must have one column per type")

    @property
    def n_types(self) -> int:
        return len(self.weights)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "OffspringModel":
        """Deterministic single-neighborhood families realizing the mean matrix."""
        m = np.asarray(m, dtype=float)
        n = m.shape[0]
        return cls(
            weights=tuple(np.array([1.0]) for _ in range(n)),
            means=tuple(m[i].reshape(1, n) for i in range(n)),
        )

    @classmethod
    def from_model(cls, model: KalikowModel, nodes: Sequence[NodeId]) -> "OffspringModel":
        node_list = tuple(int(n) for n in nodes)
        index = {j: k for k, j in enumerate(node_list)}
        weights = []
        means = []
        for i in node_list:
            ws: list[float] = []
            ms: list[np.ndarray] = []
            count = 0
            listed = 0.0  # weight of the descriptors read so far, in enumeration order
            for desc in model.enumerate_descriptors(i):
                if 1.0 - listed < FAMILY_TOL:
                    break
                lam = model.pmf(i, desc)
                listed += lam
                count += 1
                if lam <= 0.0:
                    continue
                row = np.zeros(len(node_list))
                for j, a, b in model.expand(i, desc).pieces():
                    if j not in index:
                        raise NonSummableError(
                            f"neighborhood of node {i} reaches node {j} outside the type set;"
                            " the log-Laplace reduction needs a closed finite family"
                        )
                    row[index[j]] += model.require_bound(j) * (b - a)
                ws.append(lam)
                ms.append(row)
                if count > 1_000_000:
                    raise NonSummableError("offspring family too large to materialize")
            total = sum(ws)
            if total <= 0:
                raise NonSummableError(f"node {i} has no representable offspring mass")
            weights.append(np.asarray(ws) / total)
            means.append(np.vstack(ms))
        return cls(weights=tuple(weights), means=tuple(means))

    def log_laplace(self, theta: np.ndarray) -> np.ndarray:
        """phi_i(theta) = log sum_v lambda_i(v) exp[sum_j (e^theta_j - 1) mean_vj],
        one draw of v for every child type."""
        out = np.empty(self.n_types)
        with np.errstate(over="raise"):
            factor = np.expm1(theta)
            for i, (w, m) in enumerate(zip(self.weights, self.means)):
                out[i] = np.log(np.exp(m @ factor) @ w)
        return out


@dataclass(frozen=True)
class LogLaplaceState:
    """Fixed point of Phi = theta + phi(Phi) for the total progeny transform."""

    theta: np.ndarray
    phi_at_fixed_point: np.ndarray
    fixed_point: np.ndarray
    iterations: int
    residual: float
    converged: bool


def log_laplace_fixed_point(
    offspring: OffspringModel,
    theta: Sequence[float],
    tol: float = 1e-12,
) -> LogLaplaceState:
    """Iterate Phi^(n) = theta + phi(Phi^(n-1)) from Phi^(0) = theta.

    Inside the convergence ball the map contracts and the limit is the
    log-Laplace transform of the per-type total progeny counts; divergence
    (iterates growing without bound or overflowing) raises with the last
    iterate attached.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (offspring.n_types,):
        raise ValueError(f"theta must have {offspring.n_types} components")
    phi = offspring.log_laplace
    cur = theta.copy()
    cap = 50.0 + 10.0 * float(np.abs(theta).max())
    for it in range(1, MAX_ITER + 1):
        try:
            nxt = theta + phi(cur)
        except FloatingPointError:
            bad = np.full_like(theta, math.nan)
            raise DivergenceError(
                "theta outside convergence ball (log-Laplace overflow)",
                state=LogLaplaceState(theta, bad, cur, it, math.inf, False),
            ) from None
        if not np.all(np.isfinite(nxt)) or float(np.abs(nxt).max()) > cap:
            raise DivergenceError(
                "theta outside convergence ball (iterates unbounded)",
                state=LogLaplaceState(theta, nxt - theta, nxt, it, math.inf, False),
            )
        residual = float(np.abs(nxt - cur).max())
        cur = nxt
        if residual < tol:
            return LogLaplaceState(
                theta=theta,
                phi_at_fixed_point=phi(cur),
                fixed_point=cur,
                iterations=it,
                residual=float(np.abs(cur - theta - phi(cur)).max()),
                converged=True,
            )
    raise DivergenceError(
        f"fixed-point iteration did not converge in {MAX_ITER} steps",
        state=LogLaplaceState(theta, phi(cur), cur, MAX_ITER, residual, False),
    )


def fixed_point_jacobian(offspring: OffspringModel) -> np.ndarray:
    """d Phi / d theta at 0 by central differences; equals (Id - M)^{-1}."""
    n, step, tol = offspring.n_types, 1e-6, 1e-13
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        up = log_laplace_fixed_point(offspring, e, tol=tol).fixed_point
        dn = log_laplace_fixed_point(offspring, -e, tol=tol).fixed_point
        jac[:, j] = (up - dn) / (2.0 * step)
    return jac

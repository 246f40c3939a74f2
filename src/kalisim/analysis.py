"""Branching-process cost analysis for the backward construction.

Every expanded point spawns, per child node j, a Poisson number of children
with mean Gamma_j * mu(p_j(v)) given the drawn neighborhood v. The toolkit
computes the mean offspring matrix, the subcriticality constant (sup of row
sums), expected total clan sizes via the Neumann series, the log-Laplace
fixed point of the total progeny, and the cost curve of the lattice preset's
one-parameter weight family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import series
from .core import NodeId
from .errors import DivergenceError, NonSummableError
from .models.base import KalikowModel
from .models.presets import lattice_c_gamma

ANALYSIS_TOL = 1e-8
# largest off-sample offspring mass at which a sample's matrix still gives E(W)
OFF_MASS_TOL = 1e-6


def _translation_invariant(model: KalikowModel) -> bool:
    return hasattr(model, "translation_invariant") and model.translation_invariant()


def _require_bounds(model: KalikowModel, nodes) -> None:
    for j in nodes:
        if model.global_bound(j) is None:
            raise NonSummableError(
                f"node {j} has no global bound; branching analysis needs the bounded regime"
            )


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
    _require_bounds(model, node_list)
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


@dataclass(frozen=True)
class GammaVerdict:
    gamma: float
    subcritical: bool
    per_node: dict[NodeId, float] = field(default_factory=dict)
    invariant: bool = False

    @property
    def verdict(self) -> str:
        return "subcritical" if self.subcritical else "supercritical"


def subcriticality_gamma(
    model: KalikowModel,
    nodes: Optional[Sequence[NodeId]] = None,
    invariant: bool = False,
) -> GammaVerdict:
    """gamma = sup_i sum_v P(v) lambda_i(v); backward steps terminate a.s. iff < 1.

    With ``invariant=True`` (or for translation-invariant lattice models with
    no node sample given) the scalar closed form of the constant row sum is
    used. Otherwise each sampled node's gamma_i is the total of its
    ``offspring_row``: every listed entry, inside the sample or not, plus the
    far mass and the bound on its error, so gamma is conservative.
    """
    if invariant or (nodes is None and model.node_set() is None):
        if not _translation_invariant(model):
            raise NonSummableError("no invariance certificate: pass an explicit node sample")
        g = model.invariant_offspring_mean()
        return GammaVerdict(gamma=g, subcritical=g < 1.0, invariant=True)
    node_list = tuple(nodes) if nodes is not None else model.node_set()
    return _row_total_verdict(_matrix_with_offmass(model, node_list)[2])


def _row_total_verdict(per: dict[NodeId, float]) -> GammaVerdict:
    g = max(per.values())
    return GammaVerdict(gamma=g, subcritical=g < 1.0, per_node=per)


def expected_clan_size(m: np.ndarray, i: int) -> float:
    """E_i(W) = (row i of (Id - M)^{-1}) . 1, the ancestor included.

    Requires every row sum of M below 1; otherwise the Neumann series
    sum_k M^k diverges.
    """
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
    ones = np.ones(m.shape[0])
    sol = np.linalg.solve(np.eye(m.shape[0]) - m, ones)
    return float(sol[i])


@dataclass(frozen=True)
class BranchingSummary:
    """One-stop view of the branching reduction used for a model.

    ``expected_w_note`` says why ``expected_w`` is empty, and is None when it
    is not.
    """

    matrix: np.ndarray
    gamma: float
    subcritical: bool
    expected_w: dict[NodeId, float]
    off_mass: dict[NodeId, float]
    scalar_reduction: bool
    expected_w_note: Optional[str] = None

    @property
    def verdict(self) -> str:
        return "subcritical" if self.subcritical else "supercritical"


def branching_summary(model: KalikowModel, nodes: Optional[Sequence[NodeId]] = None) -> BranchingSummary:
    if nodes is None and model.node_set() is None:
        g = subcriticality_gamma(model, invariant=True).gamma
        ew = 1.0 / (1.0 - g) if g < 1.0 else math.inf
        return BranchingSummary(
            matrix=np.array([[g]]),
            gamma=g,
            subcritical=g < 1.0,
            expected_w={0: ew},
            off_mass={},
            scalar_reduction=True,
        )
    node_list = tuple(nodes) if nodes is not None else model.node_set()
    m, off, total = _matrix_with_offmass(model, node_list)
    verdict = _row_total_verdict(total)
    expected = {}
    note = None
    if not verdict.subcritical:
        note = f"supercritical (gamma = {verdict.gamma:g}): the clan size has no finite mean"
    elif _translation_invariant(model):
        # exact for every node by invariance, whatever mass leaves the sample
        ew = 1.0 / (1.0 - model.invariant_offspring_mean())
        expected = {j: ew for j in node_list}
    elif off.max(initial=0.0) < OFF_MASS_TOL:
        for pos, j in enumerate(node_list):
            expected[j] = expected_clan_size(m, pos)
    else:
        pos = int(off.argmax())
        note = (
            f"off-sample mass {off[pos]:g} of node {node_list[pos]} is not below {OFF_MASS_TOL:g};"
            " the sample's matrix would understate E(W)"
        )
    return BranchingSummary(
        matrix=m,
        gamma=verdict.gamma,
        subcritical=verdict.subcritical,
        expected_w=expected,
        off_mass={j: float(off[pos]) for pos, j in enumerate(node_list) if off[pos] > 0},
        scalar_reduction=False,
        expected_w_note=note,
    )


# ---------------------------------------------------------------------------
# Log-Laplace transform of the total progeny
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OffspringModel:
    """Per-type offspring structure: mixture weights over neighborhoods and the
    Poisson means Gamma_j mu(p_j(v)) each neighborhood induces per child type.

    ``weights[i]`` has one entry per neighborhood of type i; ``means[i]`` is
    the matching (n_v, n_types) array of Poisson means.
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
    def from_model(cls, model: KalikowModel, nodes: Sequence[NodeId], tol: float = 1e-10) -> "OffspringModel":
        node_list = tuple(int(n) for n in nodes)
        _require_bounds(model, node_list)
        index = {j: k for k, j in enumerate(node_list)}
        weights = []
        means = []
        for i in node_list:
            ws: list[float] = []
            ms: list[np.ndarray] = []
            count = 0
            listed = 0.0  # weight of the descriptors read so far, in enumeration order
            for desc in model.enumerate_descriptors(i):
                if 1.0 - listed < tol:
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
                    row[index[j]] += model.global_bound(j) * (b - a)
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
        """phi_i(theta) = sum_j log sum_v lambda_i(v) exp[(e^theta_j - 1) mean_vj]."""
        factor = np.expm1(theta)
        out = np.empty(self.n_types)
        for i, (w, m) in enumerate(zip(self.weights, self.means)):
            with np.errstate(over="raise"):
                out[i] = np.log(np.exp(m * factor[None, :]).T.dot(w)).sum()
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
    max_iter: int = 200_000,
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
    for it in range(1, max_iter + 1):
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
        f"fixed-point iteration did not converge in {max_iter} steps",
        state=LogLaplaceState(theta, phi(cur), cur, max_iter, residual, False),
    )


def fixed_point_jacobian(
    offspring: OffspringModel, step: float = 1e-6, tol: float = 1e-13
) -> np.ndarray:
    """d Phi / d theta at 0 by central differences; equals (Id - M)^{-1}."""
    n = offspring.n_types
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        up = log_laplace_fixed_point(offspring, e, tol=tol).fixed_point
        dn = log_laplace_fixed_point(offspring, -e, tol=tol).fixed_point
        jac[:, j] = (up - dn) / (2.0 * step)
    return jac


# ---------------------------------------------------------------------------
# Weight choice on the lattice preset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostCurvePoint:
    p: float
    f_value: float
    offspring_mean: float
    expected_clan_size: Optional[float]
    subcritical: bool


@dataclass(frozen=True)
class WeightCostCurve:
    gamma_exponent: float
    delta: float
    c_gamma: float
    points: tuple[CostCurvePoint, ...]
    argmin_p: Optional[float]


def weight_cost_curve(
    gamma_exponent: float, delta: float, p_grid: Sequence[float]
) -> WeightCostCurve:
    """Expected clan size of the lattice preset along its weight exponent grid.

    For level weights proportional to k^{-p} the mean offspring count is
    C_gamma * delta * f(p) with f(p) = sum (2k-1) k^{1-p} (finite iff p > 3),
    and the translation-invariant reduction gives E(W) = 1/(1 - mean).
    Supercritical grid points are flagged and excluded from the argmin.
    """
    if gamma_exponent <= 3.0:
        raise NonSummableError("lattice preset needs gamma > 3")
    c = lattice_c_gamma(gamma_exponent)
    points = []
    best: tuple[float, float] | None = None
    for p in p_grid:
        p = float(p)
        if p <= 3.0:
            raise NonSummableError(
                f"f(p) diverges for p = {p:g} (the series is finite iff p > 3)"
            )
        if p > gamma_exponent:
            raise ValueError(
                f"weight exponent p = {p:g} exceeds gamma = {gamma_exponent:g};"
                " the ladder would no longer dominate the envelope"
            )
        f = series.offspring_f(p)
        mean = c * delta * f
        sub = mean < 1.0
        ew = 1.0 / (1.0 - mean) if sub else None
        points.append(CostCurvePoint(p, f, mean, ew, sub))
        if sub and (best is None or ew < best[1]):
            best = (p, ew)
    return WeightCostCurve(
        gamma_exponent=float(gamma_exponent),
        delta=float(delta),
        c_gamma=c,
        points=tuple(points),
        argmin_p=None if best is None else best[0],
    )

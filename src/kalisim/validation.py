"""Named validation suites: every statistical threshold lives here.

Each suite is a self-contained experiment with a fixed default seed, returning
a report with one line per check (observed statistic, threshold, verdict).
The acceptance test module and the ``validate`` CLI subcommand both run these.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import analysis
from .core import Neighborhood
from .errors import BudgetExhausted
from .kernels import AffineRate, ExponentialKernel
from .models import (
    AgeHawkesModel,
    AnalyticHawkesModel,
    LinearHawkesModel,
    PsiSeries,
    TableEntry,
    TableModel,
    lattice_preset,
)
from .models.presets import DiagonalLattice, LatticeAgeModel, PowerLadderLattice
from .oracles import ogata_age_hawkes, ogata_hawkes
from .perfect import BackwardBudget, RegionLedger, backward_clan, perfect_sample
from .forward import forward_simulate
from .sampling import RandomStream, sample_poisson_region
from .weights import AtomicWeights


@dataclass
class CheckLine:
    label: str
    observed: float
    threshold: str
    passed: bool

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"  [{mark}] {self.label}: observed {self.observed:.6g} (need {self.threshold})"


@dataclass
class SuiteReport:
    name: str
    seed: int
    checks: list[CheckLine] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, observed: float, threshold: str, ok: bool) -> None:
        self.checks.append(CheckLine(label, float(observed), threshold, bool(ok)))

    def render(self) -> str:
        head = f"suite {self.name}: {'PASS' if self.passed else 'FAIL'} ({self.seconds:.1f}s, seed {self.seed})"
        return "\n".join([head] + [c.render() for c in self.checks])


def total_variation(sample_a: Sequence[int], sample_b: Sequence[int]) -> float:
    """TV distance between the empirical laws of two integer samples."""
    a = np.bincount(np.asarray(sample_a, dtype=int))
    b = np.bincount(np.asarray(sample_b, dtype=int))
    width = max(len(a), len(b))
    a = np.pad(a, (0, width - len(a))) / a.sum()
    b = np.pad(b, (0, width - len(b))) / b.sum()
    return 0.5 * float(np.abs(a - b).sum())


def law_pair(rep: SuiteReport, name: str, a: Sequence, b: Sequence) -> None:
    """Add the checks that two arms' window counts share one law to ``rep``.

    ``a`` and ``b`` hold one row per run and one column per node 0, 1, ...;
    with more than one column their row sums are a last, total column. Each
    column's means must agree within 4 SE. The totals must pass a two-sample
    KS test (p > 0.01), and their TV distance must stay below twice the mean
    TV of two same-law samples of these sizes, sum_k sigma_k / sqrt(2 pi) with
    sigma_k^2 = p_k (1 - p_k) (1/n_a + 1/n_b) at the pooled frequencies p_k.
    """
    from scipy import stats
    a, b = np.asarray(a, dtype=int), np.asarray(b, dtype=int)
    if a.shape[1] > 1:
        a, b = np.column_stack([a, a.sum(axis=1)]), np.column_stack([b, b.sum(axis=1)])
    for c in range(a.shape[1]):
        col = "total" if c == a.shape[1] - 1 and c > 0 else f"node {c}"
        se = math.sqrt(a[:, c].var(ddof=1) / len(a) + b[:, c].var(ddof=1) / len(b))
        diff = abs(float(a[:, c].mean() - b[:, c].mean()))
        rep.add(f"{name}: {col} mean difference", diff, f"< 4 SE = {4 * se:.3g}", diff < 4 * se)
    ta, tb = a[:, -1], b[:, -1]
    p = float(stats.ks_2samp(ta, tb).pvalue)
    rep.add(f"{name}: KS p-value of the totals", p, "> 0.01", p > 0.01)
    pooled = np.bincount(np.concatenate([ta, tb])) / (len(ta) + len(tb))
    null_tv = float(np.sqrt(pooled * (1.0 - pooled) * (1.0 / len(ta) + 1.0 / len(tb))).sum()) / math.sqrt(2 * math.pi)
    tv = total_variation(ta, tb)
    rep.add(f"{name}: TV of the totals", tv, f"< {2 * null_tv:.3g}", tv < 2 * null_tv)


def poisson_chisquare_pvalue(counts: Sequence[int], mean: float) -> float:
    """Goodness-of-fit of integer counts against Poisson(mean), pooling bins
    so that every expected count is at least 5."""
    from scipy import stats
    counts = np.asarray(counts, dtype=int)
    n = len(counts)
    kmax = int(counts.max())
    support = np.arange(kmax + 1)
    expected = stats.poisson.pmf(support, mean) * n
    tail = n - expected.sum()
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    exp_bins = list(expected) + [max(tail, 0.0)]
    obs_bins = list(observed) + [0.0]
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs_bins, exp_bins):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    if len(pooled_exp) < 2:
        return 1.0
    pooled_exp = np.asarray(pooled_exp) * (sum(pooled_obs) / sum(pooled_exp))
    return float(stats.chisquare(pooled_obs, pooled_exp).pvalue)


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


def bounded_age_model() -> AgeHawkesModel:
    """1-node age-dependent model safely inside the bounded regime."""
    return AgeHawkesModel(
        psi=AffineRate(0.5, 0.5),
        kernels={(0, 0): ExponentialKernel(alpha=0.8, beta=2.0)},
        refractory=0.5,
        nodes=[0],
    )


def two_node_clan_model() -> TableModel:
    """Two nodes, unit bounds, neighborhoods realizing M = [[.2,.3],[.1,.4]].

    The per-child-node masses are split into 0.05-long pieces parked at widely
    separated, irregularly spaced depths. The mean matrix only depends on the
    total lengths, but the separation makes region overlaps across the clan
    (which the ledger would dedupe, deflating clan sizes below the idealized
    branching process of the E(W) prediction) a sub-percent effect.
    """
    piece = 0.05
    depth = iter(50.0 + 9.0 * k + 0.37 * k * k for k in range(64))

    def pieces(masses: dict[int, float]) -> Neighborhood:
        out = []
        for j, total in masses.items():
            for _ in range(round(total / piece)):
                d = next(depth)
                out.append((j, -(d + piece), -d))
        return Neighborhood(out)

    return TableModel(
        {
            0: [TableEntry(1.0, pieces({0: 0.2, 1: 0.3}), 1.0, 0.0)],
            1: [TableEntry(1.0, pieces({0: 0.1, 1: 0.4}), 1.0, 0.0)],
        },
        bounds={0: 1.0, 1: 1.0},
    )


def atomic_gate_model(bound: float) -> LinearHawkesModel:
    """Single node, lambda(empty)=1/2, lambda(w_n)=2^-(n+1), eps=1/2, declared bound."""
    return LinearHawkesModel(
        mu={0: 0.0},
        kernels={},
        eps=0.5,
        weights={0: AtomicWeights(0.5, {0: 1.0}, {0: 0.5})},
        declared_bounds={0: bound},
    )


def spread_gate_model(bound: float) -> TableModel:
    """Single node, 64 equally weighted single-piece neighborhoods, total mass 0.25.

    The pieces sit at widely separated irregular depths, so the reachable
    depth-band space grows combinatorially along the clan and the dominating
    branching process stays tight: scaled supercritical, the clan genuinely
    explodes instead of saturating a small shared territory.
    """
    rows = []
    for r in range(64):
        d = 20.0 + 13.0 * r + 0.618 * ((r * r * 7) % 29)
        rows.append(TableEntry(1.0 / 64, Neighborhood([(0, -(d + 0.25), -d)]), 1.0, 0.0))
    return TableModel({0: rows}, bounds={0: bound})


def hawkes_ring(n: int = 4, eps: float = 0.5) -> LinearHawkesModel:
    """Ring of linear Hawkes processes on bins of width ``eps``: mu = 0.5, exponential
    kernels with beta = 1, alpha = 0.3 on each node itself and 0.15 to each neighbour."""
    kernels = {}
    for i in range(n):
        for j, a in ((i, 0.3), ((i - 1) % n, 0.15), ((i + 1) % n, 0.15)):
            kernels[(i, j)] = ExponentialKernel(a, 1.0)
    return LinearHawkesModel(mu={i: 0.5 for i in range(n)}, kernels=kernels, eps=eps)


def exp_hawkes(n: int) -> AnalyticHawkesModel:
    """Exponential Hawkes on ``n`` nodes: psi = exp, and every pair of nodes
    (self included) coupled by the kernel 0.2/n * exp(-1.5 t)."""
    kernels = {(i, j): ExponentialKernel(0.2 / n, 1.5) for i in range(n) for j in range(n)}
    return AnalyticHawkesModel(PsiSeries("exp"), kernels, eps=0.5, nodes=range(n))


def ogata_parameters(model) -> tuple[list[Callable[[float], float]], list[list[float]], list[list[float]]]:
    """(rates, alpha, beta) of an exponential-kernel linear or exp-rate model
    on nodes 0..n-1, as ``ogata_hawkes`` takes them."""
    nodes = model.node_set()
    if nodes != tuple(range(len(nodes))):
        raise ValueError("the oracle numbers its nodes 0..n-1")
    if isinstance(model, LinearHawkesModel):
        rates = [partial(operator.add, model.mu[i]) for i in nodes]
    elif model.psi.kind == "exp":
        rates = [math.exp] * len(nodes)
    else:
        raise ValueError("the oracle takes linear or exp rates only")
    kernels = [[model.kernels.get((i, j)) for j in nodes] for i in nodes]
    alpha = [[0.0 if k is None else k.alpha for k in row] for row in kernels]
    beta = [[1.0 if k is None else k.beta for k in row] for row in kernels]
    return rates, alpha, beta


LATTICE_DELTA = 0.005


def _clan_sizes(model, runs: int, seed: int, budget: BackwardBudget) -> np.ndarray:
    root = RandomStream(seed)
    sizes = np.empty(runs, dtype=int)
    for r in range(runs):
        ledger = RegionLedger()
        graph = backward_clan(model, 0, 0.0, ledger, root.child(r), budget)
        sizes[r] = graph.clan_size()
    return sizes


# ---------------------------------------------------------------------------
# Suites (acceptance criteria 1-10 plus sampling sanity)
# ---------------------------------------------------------------------------


def suite_constant_rate_perfect(seed: int = 20_101) -> SuiteReport:
    """Constant intensity 1 thinned from bound 2: rate and exponential gaps."""
    from scipy import stats
    rep = SuiteReport("constant-rate-perfect", seed)
    t0 = time.perf_counter()
    model = TableModel.constant_rate(1.0, bound=2.0)
    t_max = 10_000.0
    out = perfect_sample(model, 0, t_max, RandomStream(seed))
    pts = np.asarray(out.points(0))
    rate = len(pts) / t_max
    rep.seconds = time.perf_counter() - t0
    rep.add("empirical rate", rate, "in [0.98, 1.02]", 0.98 <= rate <= 1.02)
    gaps = np.diff(pts)
    p = stats.kstest(gaps, "expon", args=(0.0, 1.0)).pvalue
    rep.add("KS p-value of inter-arrivals vs Exp(1)", p, "> 0.01", p > 0.01)
    rep.add("runtime seconds", rep.seconds, "< 10", rep.seconds < 10.0)
    return rep


def suite_thinning_equivalence(seed: int = 20_202, runs: int = 10_000) -> SuiteReport:
    """Perfect sampler vs direct Ogata thinning on the bounded age model."""
    rep = SuiteReport("thinning-equivalence", seed)
    t0 = time.perf_counter()
    model = bounded_age_model()
    gamma = model.global_bound(0)
    window = 2.0
    root = RandomStream(seed)
    perfect_counts = np.empty(runs, dtype=int)
    for r in range(runs):
        out = perfect_sample(model, 0, window, root.child(0, r))
        perfect_counts[r] = len(out.points(0))
    burn = 50.0 / gamma
    psi, ker = model.psi(0), model.kernel(0, 0)
    oracle_counts = np.empty(runs, dtype=int)
    for r in range(runs):
        ev = ogata_age_hawkes(
            psi.base, psi.slope, ker.alpha, ker.beta, model.refractory, burn + window, root.child(1, r)
        )
        oracle_counts[r] = sum(1 for t in ev if t >= burn)
    tv = total_variation(perfect_counts, oracle_counts)
    rep.seconds = time.perf_counter() - t0
    rep.add("total variation of window counts", tv, "< 0.05", tv < 0.05)
    rep.add("runtime seconds", rep.seconds, "< 120", rep.seconds < 120.0)
    return rep


def suite_refractory(seed: int = 20_303, runs: int = 10_000) -> SuiteReport:
    """Hard refractory invariant on the lattice preset (gamma = p = 4)."""
    rep = SuiteReport("refractory", seed)
    t0 = time.perf_counter()
    model = lattice_preset(4.0, LATTICE_DELTA)
    root = RandomStream(seed)
    violations = 0
    total_points = 0
    multi = 0
    for r in range(runs):
        out = perfect_sample(model, 0, 0.5, root.child(r))
        pts = out.points(0)
        total_points += len(pts)
        if len(pts) >= 2:
            multi += 1
            gaps = np.diff(np.asarray(pts))
            violations += int((gaps <= LATTICE_DELTA).sum())
    rep.seconds = time.perf_counter() - t0
    rep.add("same-node gaps <= delta", violations, "== 0", violations == 0)
    rep.add("output points observed", total_points, "> 0", total_points > 0)
    rep.add("runs with >= 2 points", multi, "> 0", multi > 0)
    return rep


def suite_clan_size(seed: int = 20_404, runs: int = 10_000) -> SuiteReport:
    """Mean clan size of the hand-computable 2-node model vs (Id-M)^{-1}."""
    rep = SuiteReport("clan-size", seed)
    t0 = time.perf_counter()
    model = two_node_clan_model()
    m = analysis.branching_matrix(model, [0, 1])
    exact = np.array([[0.2, 0.3], [0.1, 0.4]])
    err = float(np.abs(m - exact).max())
    predicted = analysis.expected_clan_size(m, 0)
    sizes = _clan_sizes(model, runs, seed, BackwardBudget())
    mean = float(sizes.mean())
    rel = abs(mean - predicted) / predicted
    rep.seconds = time.perf_counter() - t0
    rep.add("matrix error vs hand M", err, "< 1e-12", err < 1e-12)
    rep.add("predicted E(W)", predicted, "== 2.0 (1e-12)", abs(predicted - 2.0) < 1e-12)
    rep.add("relative error of mean clan size", rel, "< 0.05", rel < 0.05)
    rep.add("runtime seconds", rep.seconds, "< 60", rep.seconds < 60.0)
    return rep


def suite_subcriticality_gate(seed: int = 20_505, runs: int = 10_000) -> SuiteReport:
    """gamma = 0.25 always terminates; the x5 bound scaling is flagged and stalls."""
    rep = SuiteReport("subcriticality-gate", seed)
    t0 = time.perf_counter()
    # the analyze gate: gamma on the atomic family and its x5 bound scaling
    verdict_atomic = analysis.subcriticality_gamma(atomic_gate_model(1.0), [0])
    rep.add("atomic-family gamma", verdict_atomic.gamma, "== 0.25 (1e-9)", abs(verdict_atomic.gamma - 0.25) < 1e-9)
    verdict_atomic5 = analysis.subcriticality_gamma(atomic_gate_model(5.0), [0])
    rep.add("scaled atomic-family gamma", verdict_atomic5.gamma, "== 1.25 (1e-9)", abs(verdict_atomic5.gamma - 1.25) < 1e-9)

    sub = spread_gate_model(1.0)
    verdict = analysis.subcriticality_gamma(sub, [0])
    rep.add("gamma of the run config", verdict.gamma, "== 0.25 (1e-9)", abs(verdict.gamma - 0.25) < 1e-9)
    rep.add("base verdict subcritical", float(verdict.subcritical), "== 1", verdict.subcritical)

    root = RandomStream(seed)
    finished = 0
    for r in range(runs):
        try:
            backward_clan(sub, 0, 0.0, RegionLedger(), root.child(0, r))
            finished += 1
        except BudgetExhausted:
            pass
    rep.add("subcritical termination fraction", finished / runs, "== 1", finished == runs)

    sup = spread_gate_model(5.0)
    verdict2 = analysis.subcriticality_gamma(sup, [0])
    rep.add("gamma of the scaled config", verdict2.gamma, "== 1.25 (1e-9)", abs(verdict2.gamma - 1.25) < 1e-9)
    rep.add("scaled verdict supercritical", float(not verdict2.subcritical), "== 1", not verdict2.subcritical)
    sup_runs = 300
    tight = BackwardBudget(max_generations=10_000, max_points=2_000)
    exhausted = 0
    for r in range(sup_runs):
        try:
            backward_clan(sup, 0, 0.0, RegionLedger(), root.child(1, r), tight)
        except BudgetExhausted:
            exhausted += 1
    frac = exhausted / sup_runs
    rep.seconds = time.perf_counter() - t0
    rep.add("supercritical budget-hit fraction", frac, "> 0.05", frac > 0.05)
    return rep


def suite_forward_oracle(seed: int = 20_606, runs: int = 10_000) -> SuiteReport:
    """Forward simulator vs direct Ogata thinning, which shares no code with it.

    The 1-node linear Hawkes and the 4-node ring, whose per-class bounds one
    node cannot show, by total variation on [0, 2], and the ring on [0, 10],
    over many renewals, by :func:`law_pair` (``runs // 2`` runs). Exponential
    Hawkes (``exp_hawkes``) on [0, 2], on 1 node and on 2 (``runs // 2``
    runs), by :func:`law_pair` and total variation.
    """
    rep = SuiteReport("forward-oracle", seed)
    t0 = time.perf_counter()
    root = RandomStream(seed)

    def counts(model, t_max: float, n_runs: int, arm: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-node counts, forward and by the oracle."""
        nodes = model.node_set()
        rates, alpha, beta = ogata_parameters(model)
        fwd, ora = (np.empty((n_runs, len(nodes)), dtype=int) for _ in range(2))
        for r in range(n_runs):
            run = forward_simulate(model, nodes, t_max, 1_000_000, None, root.child(arm, r))
            fwd[r] = [run.count(i) for i in nodes]
            ora[r] = [len(ev) for ev in ogata_hawkes(rates, alpha, beta, t_max, root.child(arm + 1, r))]
        return fwd, ora

    single = LinearHawkesModel(mu={0: 1.0}, kernels={(0, 0): ExponentialKernel(alpha=0.5, beta=1.0)}, eps=0.5)
    fwd, ora = counts(single, 2.0, runs, 0)
    tv = total_variation(fwd[:, 0], ora[:, 0])
    rep.add("total variation of N[0,2]", tv, "< 0.05", tv < 0.05)

    ring = hawkes_ring()
    fwd, ora = counts(ring, 2.0, runs, 2)
    for label, a, b in zip(["N_0", "N_1", "N_2", "N_3", "N"], [*fwd.T, fwd.sum(axis=1)], [*ora.T, ora.sum(axis=1)]):
        tv = total_variation(a, b)
        rep.add(f"ring: total variation of {label}[0,2]", tv, "< 0.05", tv < 0.05)
    law_pair(rep, "ring on [0,10]", *counts(ring, 10.0, runs // 2, 4))

    for arm, n, n_runs in ((6, 1, runs), (8, 2, runs // 2)):
        fwd, ora = counts(exp_hawkes(n), 2.0, n_runs, arm)
        law_pair(rep, f"exp on {n} node(s), [0,2]", fwd, ora)
        tv = total_variation(fwd.sum(axis=1), ora.sum(axis=1))
        rep.add(f"exp on {n} node(s): total variation of N[0,2]", tv, "< 0.05", tv < 0.05)
    rep.seconds = time.perf_counter() - t0
    rep.add("runtime seconds", rep.seconds, "< 60", rep.seconds < 60.0)
    return rep


def suite_fixed_point(seed: int = 20_707) -> SuiteReport:
    """Log-Laplace fixed point: residuals, the scalar case, and the Jacobian."""
    rep = SuiteReport("fixed-point", seed)
    t0 = time.perf_counter()
    scalar = analysis.OffspringModel.from_matrix(np.array([[0.5]]))
    zero = analysis.log_laplace_fixed_point(scalar, [0.0])
    rep.add("Phi(0)", float(np.abs(zero.fixed_point).max()), "== 0", float(np.abs(zero.fixed_point).max()) == 0.0)
    st = analysis.log_laplace_fixed_point(scalar, [0.1])
    rep.add("scalar residual", st.residual, "< 1e-12", st.residual < 1e-12)
    from scipy.optimize import brentq

    root_val = brentq(lambda u: u - 0.1 - 0.5 * math.expm1(u), 0.0, 1.0, xtol=1e-15)
    rep.add(
        "scalar fixed point vs root of Phi = 0.1 + 0.5(e^Phi - 1)",
        abs(float(st.fixed_point[0]) - root_val),
        "< 1e-10",
        abs(float(st.fixed_point[0]) - root_val) < 1e-10,
    )

    gen = np.random.default_rng(seed)
    worst = 0.0
    worst_res = 0.0
    for n in (1, 2, 3, 4):
        raw = gen.uniform(0.0, 1.0, size=(n, n))
        m = raw / raw.sum(axis=1, keepdims=True) * gen.uniform(0.3, 0.9, size=(n, 1))
        off = analysis.OffspringModel.from_matrix(m)
        st_n = analysis.log_laplace_fixed_point(off, np.zeros(n))
        worst_res = max(worst_res, st_n.residual)
        jac = analysis.fixed_point_jacobian(off)
        target = np.linalg.inv(np.eye(n) - m)
        rel = float(np.abs(jac - target).max() / np.abs(target).max())
        worst = max(worst, rel)
    rep.seconds = time.perf_counter() - t0
    rep.add("worst residual over random M", worst_res, "< 1e-12", worst_res < 1e-12)
    rep.add("worst relative Jacobian error vs (Id-M)^{-1}", worst, "< 1e-5", worst < 1e-5)
    return rep


def suite_weight_optimum(seed: int = 20_808) -> SuiteReport:
    """The power ladder on the lattice (:class:`PowerLadderLattice`, gamma = 4),
    f(p) its offspring mean over C_gamma delta: f(4) = 2 zeta(2) - zeta(3);
    p = 3 is refused; E(W) is least at p = gamma, and f decreases in p."""
    rep = SuiteReport("weight-optimum", seed)
    t0 = time.perf_counter()
    from scipy.special import zeta as scipy_zeta

    def cost(p: float, delta: float) -> tuple[float, analysis.BranchingSummary]:
        model = PowerLadderLattice(4.0, p, delta)
        summary = analysis.branching_summary(model)
        return summary.gamma / (model.c_gamma * delta), summary

    f4 = cost(4.0, 1.0)[0]
    target = 2.0 * scipy_zeta(2.0) - scipy_zeta(3.0)
    rep.add("f(4) vs 2 zeta(2) - zeta(3)", abs(f4 - target), "< 1e-6", abs(f4 - target) < 1e-6)

    refused = False
    try:
        PowerLadderLattice(4.0, 3.0, 1.0)
    except ValueError:
        refused = True
    rep.add("p = 3 rejected as divergent", float(refused), "== 1", refused)

    delta = 0.5 / (PowerLadderLattice(4.0, 4.0, 1.0).c_gamma * f4)  # offspring mean exactly 1/2 at p = 4
    grid = (3.2, 3.4, 3.6, 3.8, 4.0)
    curve = [cost(p, delta) for p in grid]
    clans = {p: summary.expected_w[0] for p, (_, summary) in zip(grid, curve) if summary.subcritical}
    argmin = min(clans, key=clans.get, default=math.nan)
    rep.add("argmin p over the grid", argmin, "== 4.0", argmin == 4.0)
    fvals = [f for f, _ in curve]
    decreasing = all(a > b for a, b in zip(fvals, fvals[1:]))
    rep.add("f decreasing along the grid", float(decreasing), "== 1", decreasing)
    rep.seconds = time.perf_counter() - t0
    return rep


def suite_deviation_tail(seed: int = 20_909, runs: int = 100_000) -> SuiteReport:
    """Exponential-tail consistency of the clan size of the 2-node model."""
    rep = SuiteReport("deviation-tail", seed)
    t0 = time.perf_counter()
    model = two_node_clan_model()
    sizes = _clan_sizes(model, runs, seed, BackwardBudget())
    ew = 2.0
    xs = [2.0, 4.0, 6.0, 8.0]
    logs = []
    for x in xs:
        p = float((sizes > ew + x).mean())
        if p <= 0.0:
            rep.seconds = time.perf_counter() - t0
            rep.add(f"tail P(W > {ew + x:g})", 0.0, "> 0 (increase runs)", False)
            return rep
        logs.append(math.log(p))
    rep.seconds = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(logs, logs[1:]))
    rep.add("log-tail strictly decreasing", float(decreasing), "== 1", decreasing)
    diffs = [b - a for a, b in zip(logs, logs[1:])]
    slack = 0.25  # Monte Carlo allowance on second differences
    concave = all(d2 <= d1 + slack for d1, d2 in zip(diffs, diffs[1:]))
    rep.add("second differences concave-or-linear (slack 0.25)", float(concave), "== 1", concave)
    rep.add("runtime seconds", rep.seconds, "< 300", rep.seconds < 300.0)
    return rep


def suite_stationarity(seed: int = 21_010, runs: int = 1_000) -> SuiteReport:
    """Rates of the lattice preset agree on [0,50) vs [50,100) within 3 MC SE."""
    rep = SuiteReport("stationarity", seed)
    t0 = time.perf_counter()
    model = lattice_preset(4.0, LATTICE_DELTA)
    root = RandomStream(seed)
    first = np.empty(runs)
    second = np.empty(runs)
    for r in range(runs):
        out = perfect_sample(model, 0, 100.0, root.child(r))
        pts = np.asarray(out.points(0))
        first[r] = (pts < 50.0).sum() / 50.0
        second[r] = (pts >= 50.0).sum() / 50.0
    diff = first - second
    se = float(diff.std(ddof=1) / math.sqrt(runs))
    observed = abs(float(diff.mean()))
    rep.seconds = time.perf_counter() - t0
    rep.add("rate difference", observed, f"< 3 SE = {3 * se:.3g}", observed < 3 * se)
    rep.add("mean rate", float(first.mean()), "> 0", float(first.mean()) > 0)
    return rep


def suite_poisson_sanity(seed: int = 21_111) -> SuiteReport:
    """Region sampler sanity: exponential gaps (KS) and Poisson counts (chi-square).

    The counts are one pooled sample of 10^6 interval counts, so that the
    verdict does not rest on one small draw: each of 100 child streams draws
    1 000 regions, each the union of ten disjoint intervals of length 2 at
    rate 3, whose counts are independent Poisson(6). The region sampler walks
    across the gaps, so nine of every ten counts start from a carried
    overshoot.
    """
    from scipy import stats
    rep = SuiteReport("poisson-sanity", seed)
    t0 = time.perf_counter()
    rng = RandomStream(seed)
    draws = np.array([rng.exponential(2.0) for _ in range(100_000)])
    ks = stats.kstest(draws, "expon", args=(0.0, 0.5))
    rep.add("KS statistic of Exp(2) draws", ks.statistic, "p > 0.01", ks.pvalue > 0.01)
    gaps = 10
    region = [(3.0 * k, 3.0 * k + 2.0) for k in range(gaps)]
    counts = []
    for s in range(100):
        stream = rng.child(2, s)
        for _ in range(1_000):
            pts = np.asarray(sample_poisson_region(stream, 3.0, region))
            counts.append(np.bincount((pts // 3.0).astype(int), minlength=gaps))
    p = poisson_chisquare_pvalue(np.concatenate(counts), 6.0)
    rep.seconds = time.perf_counter() - t0
    rep.add("chi-square p of 10^6 counts vs Poisson(6)", p, "> 0.01", p > 0.01)
    return rep


def suite_decomposition_equivalence(
    seed: int = 21_212, lattice_runs: int = 1_000, ring_runs: int = 2_000
) -> SuiteReport:
    """Two decompositions of one intensity give one law (:func:`law_pair`):
    node-0 counts on [0, 10) of the lattice preset against
    :class:`PowerLadderLattice` and against :class:`DiagonalLattice` (the
    preset's runs serve both pairs), and per-node counts on [0, 10] of the
    4-node Hawkes ring on bins of width 0.5 against width 2. Tests run it
    smaller."""
    rep = SuiteReport("decomposition-equivalence", seed)
    t0 = time.perf_counter()
    root = RandomStream(seed)

    def lattice_counts(arm, model):
        return [[len(perfect_sample(model, 0, 10.0, root.child(0, arm, r)).points(0))] for r in range(lattice_runs)]

    models = (LatticeAgeModel(4.0, LATTICE_DELTA), PowerLadderLattice(4.0, 4.0, LATTICE_DELTA),
              DiagonalLattice(4.0, LATTICE_DELTA))
    preset, power, diagonal = (lattice_counts(arm, model) for arm, model in enumerate(models))
    law_pair(rep, "lattice", preset, power)
    law_pair(rep, "nesting", preset, diagonal)

    def ring_counts(arm, model):
        runs = (forward_simulate(model, range(4), 10.0, 1_000_000, None, root.child(1, arm, r)) for r in range(ring_runs))
        return [[run.count(j) for j in range(4)] for run in runs]

    law_pair(rep, "ring", *(ring_counts(arm, hawkes_ring(4, eps)) for arm, eps in enumerate((0.5, 2.0))))
    rep.seconds = time.perf_counter() - t0
    rep.add("runtime seconds", rep.seconds, "< 30", rep.seconds < 30.0)
    return rep


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "constant-rate-perfect": suite_constant_rate_perfect,
    "thinning-equivalence": suite_thinning_equivalence,
    "refractory": suite_refractory,
    "clan-size": suite_clan_size,
    "subcriticality-gate": suite_subcriticality_gate,
    "forward-oracle": suite_forward_oracle,
    "fixed-point": suite_fixed_point,
    "weight-optimum": suite_weight_optimum,
    "deviation-tail": suite_deviation_tail,
    "stationarity": suite_stationarity,
    "poisson-sanity": suite_poisson_sanity,
    "decomposition-equivalence": suite_decomposition_equivalence,
}


def run_suite(name: str, seed: Optional[int] = None) -> SuiteReport:
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown suite {name!r}; available: {known}")
    fn = SUITES[name]
    return fn() if seed is None else fn(seed)

"""The benchmark's workloads: set-up, one operation, and the output checks.

Each workload reaches kalisim only through its public functions. The model of
a workload is fixed; the benchmark seed reaches the program only through the
``RandomStream`` handed to each operation, so one seed always gives the same
inputs. ``setup`` is exactly what ``setup_s`` times in a fresh interpreter:
importing kalisim, parsing the config where a config family exists, and
building the model.

Every operation returns an :class:`Outcome`; ``ok`` is its own check, and
``check_run`` holds the checks that need all operations of a run.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional

# "A few standard errors" for the statistical checks of a whole run.
CHECK_SE = 4.0


@dataclass(frozen=True)
class Outcome:
    """What one operation produced.

    ``points`` are its output points (accepted points, or decided clan
    members for ``clan_table``); ``value`` is the per-operation statistic that
    ``check_run`` averages; ``ok`` is the operation's own output check.
    """

    points: int
    value: float
    ok: bool


def _mean_and_se(values: list[float]) -> tuple[float, float]:
    return statistics.fmean(values), statistics.stdev(values) / math.sqrt(len(values))


class PerfectLattice:
    """``perfect_sample`` on node 0 of the lattice preset over [0, 25).

    The paper's infinite-network example. About 41 roots are proposed per
    accepted point, so ``advance`` and shallow clans do the work, and most of
    the points ``realize_new`` returns are old ones: the read-heavy ledger.
    It bypasses ``local_bound`` and the forward simulator.
    """

    name = "perfect_lattice"
    config = {"model": {"family": "lattice-4.2.6", "gamma": 4.0, "p": 4.0, "delta": 0.005}}
    node = 0
    t_max = 25.0
    delta = 0.005
    # Rate of node 0 and its standard error, from 3000 operations at the
    # commit that added this benchmark; ``python3 perfbench/reference.py``
    # recomputes them.
    reference_rate = 1.0011466666666667
    reference_rate_se = 0.0036135059574783052
    min_ops = 10
    # nominal operations per second, which sizes the traced run
    trace_ops_per_s = 10.0

    def setup(self) -> None:
        import kalisim

        self.k = kalisim
        self.model = kalisim.parse_config(self.config).build_model()

    def op(self, stream, tracer) -> Outcome:
        k = self.k
        ledger = k.RegionLedger()
        stats = None
        if tracer is not None:
            tracer.instrument_ledger(ledger)
            stats = k.PerfectRunStats()
        out = k.perfect.perfect_sample(self.model, self.node, self.t_max, stream, ledger=ledger, stats=stats)
        pts = out.points(self.node)
        if tracer is not None:
            tracer.count("perfect.roots", stats.roots)
            tracer.count("perfect.accepted", stats.accepted)
            tracer.count("sampling.ledger_points", ledger.n_points())
        ok = all(0.0 <= t < self.t_max for t in pts) and all(b - a > self.delta for a, b in zip(pts, pts[1:]))
        return Outcome(len(pts), float(len(pts)), ok)

    def check_run(self, values: list[float]) -> list[str]:
        if len(values) < 2:
            return ["the rate check needs at least two operations"]
        mean, se = _mean_and_se(values)
        rate, rate_se = mean / self.t_max, se / self.t_max
        tol = CHECK_SE * math.hypot(rate_se, self.reference_rate_se)
        if abs(rate - self.reference_rate) > tol:
            return [f"rate {rate:.5f} differs from the reference {self.reference_rate:.5f} by more than {tol:.5f}"]
        return []

    def predicted_clan_size(self) -> Optional[float]:
        g = self.k.subcriticality_gamma(self.model, invariant=True).gamma
        return 1.0 / (1.0 - g)


class ClanTable:
    """``backward_clan`` from a fresh ledger, then ``forward_accept``, on the
    two-node table model whose branching matrix is known by hand.

    Clans are deep and almost every realized point is fresh: the write-heavy,
    small-ledger case. ``advance`` is never called, so a change to the
    proposal step or to the ladder should leave this workload unchanged.
    """

    name = "clan_table"
    node = 0
    hand_matrix = ((0.2, 0.3), (0.1, 0.4))
    expected_w = 2.0
    # the clan-size suite's criteria, on at least as many clans as it draws
    matrix_tol = 1e-12
    clan_rel_tol = 0.05
    min_ops = 10_000
    trace_ops_per_s = 2000.0

    def setup(self) -> None:
        # The model is defined in code, not by a config, so no config is parsed.
        import kalisim
        from kalisim import validation

        self.k = kalisim
        self.model = validation.two_node_clan_model()

    def op(self, stream, tracer) -> Outcome:
        k = self.k
        ledger = k.RegionLedger()
        if tracer is not None:
            tracer.instrument_ledger(ledger)
        graph = k.perfect.backward_clan(self.model, self.node, 0.0, ledger, stream)
        k.perfect.forward_accept(graph, self.model, ledger)
        decided = sum(1 for rec in graph.pending if rec.decision is not None)
        if tracer is not None:
            tracer.count("perfect.roots", 1)
            tracer.count("perfect.accepted", int(bool(graph.root_record.decision)))
            tracer.count("sampling.ledger_points", ledger.n_points())
        size = graph.clan_size()
        return Outcome(decided, float(size), graph.terminated and decided == size)

    def check_run(self, values: list[float]) -> list[str]:
        errors = []
        m = self.k.branching_matrix(self.model, [0, 1])
        err = max(abs(m[i][j] - self.hand_matrix[i][j]) for i in range(2) for j in range(2))
        if not err < self.matrix_tol:
            errors.append(f"branching matrix differs from the hand M by {err:.3g}")
        predicted = self.k.expected_clan_size(m, 0)
        if not abs(predicted - self.expected_w) < self.matrix_tol:
            errors.append(f"predicted E(W) {predicted!r} is not {self.expected_w}")
        if len(values) < self.min_ops:
            errors.append(f"the clan-size check needs {self.min_ops} clans, got {len(values)}")
        else:
            rel = abs(statistics.fmean(values) - self.expected_w) / self.expected_w
            if not rel < self.clan_rel_tol:
                errors.append(f"mean clan size is {rel:.2%} away from E(W) = {self.expected_w}")
        return errors

    def predicted_clan_size(self) -> Optional[float]:
        return self.k.expected_clan_size(self.k.branching_matrix(self.model, [0, 1]), 0)


class ForwardHawkes:
    """``forward_simulate`` on a 4-node ring of linear Hawkes processes over [0, 10).

    ``local_bound`` takes most of the time; the ledger and the backward clans
    are never touched, so the perfect-sampling workloads bypass this code.
    """

    name = "forward_hawkes"
    nodes = (0, 1, 2, 3)
    mu = 0.5
    alpha_self = 0.3
    alpha_nb = 0.15
    beta = 1.0
    eps = 0.5
    t_max = 10.0
    n_max = 1_000_000
    min_ops = 10
    trace_ops_per_s = 8.0

    @property
    def config(self) -> dict:
        n = len(self.nodes)
        kernels = [
            {"from": j, "to": i, "type": "exponential", "alpha": a, "beta": self.beta}
            for i in self.nodes
            for j, a in ((i, self.alpha_self), ((i - 1) % n, self.alpha_nb), ((i + 1) % n, self.alpha_nb))
        ]
        return {
            "model": {
                "family": "linear",
                "nodes": list(self.nodes),
                "mu": [self.mu] * n,
                "eps": self.eps,
                "kernels": kernels,
            }
        }

    def setup(self) -> None:
        import kalisim

        self.k = kalisim
        self.model = kalisim.parse_config(self.config).build_model()

    def op(self, stream, tracer) -> Outcome:
        run = self.k.forward.forward_simulate(self.model, self.nodes, self.t_max, self.n_max, None, stream)
        n = run.count()
        if tracer is not None:
            tracer.count("forward.proposals", run.proposals)
            tracer.count("forward.accepted", n)
        return Outcome(n, float(n), run.stop_reason == self.k.forward.TIME_REACHED)

    def expected_count(self) -> float:
        """Mean total count from an empty past.

        Per node, the mean intensity m solves m' = beta*mu - r*m with m(0) = mu,
        where r = beta - (alpha_self + 2*alpha_nb); integrate over [0, T].
        """
        drive = self.alpha_self + 2.0 * self.alpha_nb
        r = self.beta - drive
        stationary = self.mu * self.beta / r
        transient = self.mu * drive / r**2 * (1.0 - math.exp(-r * self.t_max))
        return len(self.nodes) * (stationary * self.t_max - transient)

    def check_run(self, values: list[float]) -> list[str]:
        if len(values) < 2:
            return ["the count check needs at least two operations"]
        mean, se = _mean_and_se(values)
        expected = self.expected_count()
        if abs(mean - expected) > CHECK_SE * se:
            return [f"mean count {mean:.3f} differs from the closed form {expected:.3f} by more than {CHECK_SE} SE"]
        return []

    def predicted_clan_size(self) -> Optional[float]:
        return None  # no backward clans: forward simulation has no branching prediction


WORKLOADS = {w.name: w for w in (PerfectLattice, ClanTable, ForwardHawkes)}

"""Command-line interface: simulate-forward, simulate-perfect, analyze, validate.

Exit codes: 0 on success, 1 when a validation suite fails, 2 on configuration
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import analysis, io
from .config import RunConfig, load_config
from .errors import BudgetExhausted, ConfigError, KalisimError
from .forward import forward_simulate
from .models import LatticeAgeModel, LinearHawkesModel
from .models.presets import PowerLadderLattice
from .perfect import PerfectRunStats, perfect_sample
from .sampling import RandomStream, RegionLedger
from .validation import SUITES, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2


def _emit(text: str) -> None:
    """Print ``text`` to stdout; a reader that closed the pipe early (as
    ``| head`` does) ends the output quietly instead of with a traceback."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the unwritten rest goes to the null device, or the flush at exit raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--seed", type=int, default=None, help="override rng.seed")
    p.add_argument("--out", default=None, help="override output.points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kalisim",
        description="Point-process simulation via neighborhood decompositions of intensities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fwd = sub.add_parser("simulate-forward", help="forward simulation from empty past")
    _add_common(p_fwd)
    p_fwd.add_argument("--t-max", type=float, default=None, help="override simulation.t_max")
    p_fwd.add_argument("--n-max", type=int, default=None, help="override simulation.n_max")

    p_perf = sub.add_parser("simulate-perfect", help="perfect simulation of one node")
    _add_common(p_perf)
    p_perf.add_argument("--t-max", type=float, default=None, help="override simulation.t_max")
    p_perf.add_argument("--node", type=int, default=None, help="override simulation.node")
    p_perf.add_argument("--runs", type=int, default=None, help="override rng.runs")
    p_perf.add_argument("--dump-ledger", default=None, help="write the region ledger as JSON")

    p_an = sub.add_parser("analyze", help="branching-cost analysis report")
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--nodes", type=int, default=None, help="size of the node sample")
    p_an.add_argument("--theta", default=None, help="comma-separated vector for the log-Laplace fixed point")
    p_an.add_argument("--p-grid", default=None, help="comma-separated exponents p for the power-ladder cost curve")
    p_an.add_argument("--out", default=None, help="write the JSON report here (default stdout)")

    p_val = sub.add_parser("validate", help="run a named statistical/property suite")
    p_val.add_argument("suite", help="suite name (see 'validate list')")
    p_val.add_argument("--seed", type=int, default=None)
    return parser


def _load(args, overrides: dict) -> RunConfig:
    """The run configuration, with the common flags and ``overrides`` put in
    place of the file's values before validation."""
    return load_config(args.config, {"rng.seed": args.seed, "output.points": args.out, **overrides})


def _cmd_forward(args) -> int:
    cfg = _load(args, {"simulation.t_max": args.t_max, "simulation.n_max": args.n_max})
    model = cfg.build_model()
    if model.node_set() is None:
        family = cfg.model_section["family"]
        raise ConfigError([f"simulate-forward needs a finite network; {family} has infinitely many nodes"])
    nodes = cfg.nodes if cfg.nodes is not None else model.node_set()

    summaries = []
    base = RandomStream(cfg.seed)
    for r in range(cfg.runs):
        run = forward_simulate(model, nodes, cfg.t_max, cfg.n_max, cfg.guard, base.child(r))
        path = _run_path(cfg.points_path, r, cfg.runs)
        n = io.emit_points(path, run.accepted)
        summaries.append(
            {
                "run": r,
                "seed_path": [cfg.seed, r],
                "points": n,
                "stop_reason": run.stop_reason,
                "tau": run.tau,
                "proposals": run.proposals,
                "rate_integral": run.rate_integral,
                "accept_ratio": n / run.proposals if run.proposals else 0.0,
                "proposals_per_point": run.proposals / n if n else None,
                "bound_terms": run.bound_terms,
                "rate": n / run.tau if run.tau > 0 else 0.0,
                "file": str(path),
            }
        )
        print(f"run {r}: {n} points, stop {run.stop_reason} at tau={run.tau:g} -> {path}")
    if cfg.summary_path:
        summary: dict = {"command": "simulate-forward", "runs": summaries}
        if isinstance(model, LinearHawkesModel):  # the atom family each node sampled from
            summary["weights"] = {str(i): fam.to_json() for i, fam in model.weights.items()}
        io.write_summary(cfg.summary_path, summary)
    return EXIT_OK


def _run_path(base: str, r: int, runs: int) -> str:
    if runs == 1:
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}_run{r:03d}{p.suffix or '.csv'}"))


def _cmd_perfect(args) -> int:
    cfg = _load(args, {"simulation.t_max": args.t_max, "simulation.node": args.node, "rng.runs": args.runs})
    model = cfg.build_model()
    t_max, node, runs, seed = cfg.t_max, cfg.node, cfg.runs, cfg.seed

    summaries = []
    exhausted = 0
    base = RandomStream(seed)
    last_ledger = None
    for r in range(runs):
        stats = PerfectRunStats()
        ledger = RegionLedger()
        last_ledger = ledger
        try:
            sample = perfect_sample(
                model, node, t_max, base.child(r), budget=cfg.budget, ledger=ledger, stats=stats
            )
        except BudgetExhausted as exc:
            exhausted += 1
            print(f"run {r}: backward budget exhausted ({exc})", file=sys.stderr)
            summaries.append({"run": r, "seed_path": [seed, r], "budget_exhausted": True})
            continue
        path = _run_path(cfg.points_path, r, runs)
        n = io.emit_points(path, sample)
        entry = {
            "run": r,
            "seed_path": [seed, r],
            "points": n,
            "rate": n / t_max,
            "budget_exhausted": False,
            "file": str(path),
        }
        entry.update(stats.to_json())
        summaries.append(entry)
        print(f"run {r}: {n} accepted points on [0,{t_max:g}] -> {path}")
    if args.dump_ledger and last_ledger is not None:
        last_ledger.dump(args.dump_ledger)
        print(f"ledger of the last run -> {args.dump_ledger}")
    if cfg.summary_path:
        io.write_summary(
            cfg.summary_path,
            {
                "command": "simulate-perfect",
                "node": node,
                "t_max": t_max,
                "budget_exhausted_runs": exhausted,
                "runs": summaries,
            },
        )
    return EXIT_OK


def _floats(flag: str, text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        raise ConfigError([f"{flag} must be comma-separated finite numbers, got {text!r}"])
    return values


def _cost_entry(model: LatticeAgeModel) -> dict:
    """What a lattice decomposition costs a perfect sweep: Gamma, the rate of
    its roots, and the mean nodes of a drawn neighbourhood. Nodes times E(W)
    bounds the ledger requests per root: a point's own draw does not depend
    on its being in the clan, and E(W) bounds the mean clan."""
    return {"dominating_rate": model.require_bound(0), "nodes_per_neighborhood": model.nodes_per_neighborhood()}


def _cost_curve(model: LatticeAgeModel, grid: list[float]) -> dict:
    """The paper's power ladder C_gamma k^{-p} on ``model``'s lattice at each
    p of ``grid``, one ``PowerLadderLattice`` each, costed as the configured
    model is; f is the offspring mean over C_gamma delta. Supercritical points
    are left out of the argmin."""
    points = []
    for p in grid:
        try:
            power = PowerLadderLattice(model.gamma_exponent, p, model.refractory)
        except ValueError as exc:  # a weight exponent above gamma, or not above 3
            raise ConfigError([f"--p-grid: {exc}"]) from None
        summary = analysis.branching_summary(power)
        ew = summary.expected_w.get(0)
        f = summary.gamma / (power.c_gamma * power.refractory)
        points.append(dict(p=p, f=f, offspring_mean=summary.gamma, expected_clan_size=ew,
                           subcritical=summary.subcritical, **_cost_entry(power)))
    best = min((pt for pt in points if pt["subcritical"]), key=lambda pt: pt["expected_clan_size"], default=None)
    return {"c_gamma": power.c_gamma, "argmin_p": None if best is None else best["p"], "points": points}


def _cmd_analyze(args) -> int:
    if args.nodes is not None and args.nodes < 1:
        raise ConfigError([f"--nodes must be >= 1, got {args.nodes}"])
    cfg = load_config(args.config)
    model = cfg.build_model()
    report: dict = {"family": cfg.model_section.get("family")}
    if args.theta is not None and model.node_set() is None:
        raise ConfigError([f"--theta needs a closed finite family; {report['family']} has infinitely many nodes"])

    nodes = None
    if args.nodes is not None:
        listed, half = model.node_set(), args.nodes // 2
        nodes = list(range(-half, args.nodes - half)) if listed is None else list(listed)[: args.nodes]
    summary = analysis.branching_summary(model, nodes)
    if summary.invariant and args.theta is not None:
        raise ConfigError(["--theta needs a node sample; the scalar reduction has none (pass --nodes)"])
    report["gamma"] = summary.gamma
    report["verdict"] = summary.verdict
    if summary.invariant:
        report["reduction"] = "translation-invariant scalar"
        if summary.subcritical:
            report["expected_clan_size"] = summary.expected_w[0]
    else:
        report["reduction"] = "finite node sample"
        nodes = report["nodes"] = list(summary.per_node)
        # Gamma_j, the rate of node j's dominating process: over the node's
        # rate, the number of roots a perfect sweep proposes per accepted point
        if rates := {str(j): g for j in nodes if (g := model.global_bound(j)) is not None}:
            report["dominating_rate"] = rates
        report["M"] = summary.matrix.tolist()
        report["expected_clan_size"] = {str(k): v for k, v in summary.expected_w.items()}
        if summary.expected_w_note:
            report["expected_clan_size_note"] = summary.expected_w_note
        if summary.off_mass:
            report["off_sample_mass"] = {str(k): v for k, v in summary.off_mass.items()}
        if args.theta is not None:
            theta = _floats("--theta", args.theta)
            off = analysis.OffspringModel.from_model(model, nodes)
            try:
                state = analysis.log_laplace_fixed_point(off, theta)
            except ValueError as exc:  # theta of the wrong length
                raise ConfigError([f"--theta: {exc}"]) from None
            report["log_laplace"] = {
                "theta": theta,
                "fixed_point": state.fixed_point.tolist(),
                "iterations": state.iterations,
                "residual": state.residual,
            }
    if isinstance(model, LatticeAgeModel):
        report["level_head"] = [list(level) for level in model.head]  # the nesting's (radius, depth)
        for key, value in _cost_entry(model).items():
            report.setdefault(key, value)  # a node sample keeps its per-node rates
        if args.p_grid is not None:
            report["cost_curve"] = _cost_curve(model, _floats("--p-grid", args.p_grid))
    elif args.p_grid is not None:
        raise ConfigError(["--p-grid needs the lattice-4.2.6 preset (gamma and delta)"])

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with io.open_output(args.out) as fh:
            fh.write(text + "\n")
        print(f"analysis report -> {args.out}")
    else:
        _emit(text)
    return EXIT_OK


def _cmd_validate(args) -> int:
    if args.suite == "list":
        _emit("\n".join(sorted(SUITES)))
        return EXIT_OK
    try:
        report = run_suite(args.suite, seed=args.seed)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_CONFIG
    _emit(report.render())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate-forward":
            return _cmd_forward(args)
        if args.command == "simulate-perfect":
            return _cmd_perfect(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "validate":
            return _cmd_validate(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except KalisimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

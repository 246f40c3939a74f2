import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kalisim
from kalisim.cli import EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, main
from kalisim.models.presets import PowerLadderLattice

LATTICE = {"model": {"family": "lattice-4.2.6", "gamma": 4, "p": 4, "delta": 0.005}}
FINITE = {
    "model": {
        "family": "linear",
        "nodes": [0],
        "mu": [0.5],
        "eps": 0.5,
        "kernels": [{"from": 0, "to": 0, "type": "exponential", "alpha": 0.3, "beta": 1.0}],
    }
}
TABLE = {
    "model": {
        "family": "table",
        "entries": {"0": [{"weight": 1.0, "pieces": [[0, -1.0, -0.5]], "bound": 1.0}]},
        "bounds": {"0": 1.0},
    }
}

AGE = {
    "model": {
        "family": "age",
        "nodes": [0, 1],
        "psi": {"base": 0.5, "slope": 0.2},
        "refractory": 0.1,
        "kernels": [{"from": 0, "to": 0, "type": "exponential", "alpha": 0.3, "beta": 1.0}],
    }
}
# levels that reach node 5, which is not a node of the network
AGE_STRAY_LEVEL = {"model": dict(AGE["model"], omega={"0": [[0], [0, 5]]})}
AGE_STRAY_KERNEL = {"model": dict(AGE["model"], kernels=[dict(AGE["model"]["kernels"][0], to=7)])}
# levels given for node 5, which is not a node of the network
AGE_STRAY_OMEGA = {"model": dict(AGE["model"], omega={"5": [[5], [5, 0]]})}


def truncated(trunc):
    """FINITE with a kernel reaching back two bins and atom weights truncated at ``trunc``."""
    kernel = {"from": 0, "to": 0, "type": "step", "edges": [0.0, 1.0], "values": [0.4]}
    weights = {"shares": {"0": 1.0}, "ratios": {"0": 0.5}, "trunc": {"0": trunc}}
    return {"model": dict(FINITE["model"], kernels=[kernel], weights=weights)}


# the test's own directory stands in for the config file
CONFIG_DIR = "<tmp_path>"
# below a file, so no process can create it, whatever its permissions
UNWRITABLE = os.path.join(os.devnull, "out")


def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _checkout_env():
    src = str(Path(kalisim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(*args):
    """A fresh interpreter that imports this checkout's kalisim."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_checkout_env(), timeout=120)


def run_cli(*args):
    """``python -m kalisim`` in a fresh interpreter, so that nothing catches a traceback."""
    return run_python("-m", "kalisim", *args)


def test_package_runs_as_a_module():
    proc = run_cli("validate", "clan-size")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("suite clan-size: PASS")


# weight exponents whose cost curve fills a report of about 350 kB, several
# times what a pipe buffers
LONG_P_GRID = ",".join(str(3.1 + k / 2000) for k in range(1800))


@pytest.mark.parametrize(
    "command, lines",
    [
        # a report of a few hundred bytes: the reader closes before it is written
        ("validate", 0),
        # a report longer than the pipe holds: the writer is still writing
        # when the reader closes after one line
        ("analyze", 1),
    ],
)
def test_a_reader_that_closes_early_ends_the_output_quietly(tmp_path, command, lines):
    if command == "validate":
        args = ["validate", "fixed-point"]
    else:
        args = ["analyze", "--config", write_config(tmp_path, LATTICE), "--p-grid", LONG_P_GRID]
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "kalisim", *args],
        stdout=write_end,
        stderr=subprocess.PIPE,
        text=True,
        env=_checkout_env(),
    )
    os.close(write_end)
    with os.fdopen(read_end) as reader:
        head = [reader.readline() for _ in range(lines)]
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert proc.returncode == EXIT_OK
    assert head == (["{\n"] if lines else [])


def test_cli_import_leaves_scipy_unloaded():
    # SciPy is loaded by the suites that use it, and jsonschema only by the
    # tests, which check the package's own config shape check against it
    for module in ("kalisim", "kalisim.cli"):
        proc = run_python("-c", f"import sys, {module}; assert not {{'jsonschema', 'scipy'}} & set(sys.modules)")
        assert proc.returncode == 0, proc.stderr


def test_analyze_lattice_sample(tmp_path, capsys):
    start = time.perf_counter()
    code = main(["analyze", "--config", write_config(tmp_path, LATTICE), "--nodes", "3"])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["nodes"] == [-1, 0, 1]
    assert set(report["off_sample_mass"]) == {"-1", "0", "1"}
    assert report["verdict"] == "subcritical"
    # exact for every node by translation invariance: E(W) = 1/(1 - 0.0902)
    ew = 1.0 / (1.0 - kalisim.lattice_preset(4, 0.005).invariant_offspring_mean())
    assert report["expected_clan_size"] == {"-1": ew, "0": ew, "1": ew}
    assert ew == pytest.approx(1.099, abs=1e-3)
    assert "expected_clan_size_note" not in report
    # the row totals come in closed form; walking the nested levels took minutes
    assert elapsed < 20.0


@pytest.mark.parametrize(
    "command, cfg, extra, expected",
    [
        ("analyze", {"model": {"family": "no-such-family"}}, [], EXIT_CONFIG),
        ("analyze", FINITE, ["--invariant"], EXIT_CONFIG),
        ("analyze", TABLE, ["--nodes", "0"], EXIT_CONFIG),
        ("analyze", TABLE, ["--nodes", "-1"], EXIT_CONFIG),
        ("analyze", TABLE, ["--theta", "0.1,0.2"], EXIT_CONFIG),
        ("analyze", LATTICE, ["--p-grid", "abc"], EXIT_CONFIG),
        ("analyze", LATTICE, ["--p-grid", "4.5"], EXIT_CONFIG),
        ("analyze", LATTICE, ["--p-grid", "3.0"], EXIT_CONFIG),
        ("analyze", LATTICE, ["--p-grid", "nan,4"], EXIT_CONFIG),
        ("analyze", LATTICE, ["--p-grid=4,-inf"], EXIT_CONFIG),
        ("analyze", TABLE, ["--p-grid", "4"], EXIT_CONFIG),
        ("analyze", TABLE, ["--theta=nan"], EXIT_CONFIG),
        ("analyze", TABLE, ["--theta=inf"], EXIT_CONFIG),
        ("analyze", TABLE, ["--theta=1000"], EXIT_VALIDATION),
        ("analyze", LATTICE, ["--theta", "0.1"], EXIT_CONFIG),
        ("analyze", LATTICE, ["--nodes", "3", "--theta", "0.1,0.1,0.1"], EXIT_CONFIG),
        ("simulate-perfect", LATTICE, ["--t-max", "-1"], EXIT_CONFIG),
        ("simulate-perfect", LATTICE, ["--runs", "0"], EXIT_CONFIG),
        ("simulate-perfect", TABLE, ["--node", "7"], EXIT_CONFIG),
        ("simulate-forward", FINITE, ["--t-max", "0"], EXIT_CONFIG),
        ("simulate-forward", FINITE, ["--n-max", "-3"], EXIT_CONFIG),
        ("simulate-forward", LATTICE, [], EXIT_CONFIG),
        ("simulate-forward", dict(FINITE, simulation={"nodes": [5]}), [], EXIT_CONFIG),
        ("simulate-forward", dict(FINITE, simulation={"nodes": [0, 0]}), ["--t-max", "1"], EXIT_CONFIG),
        ("analyze", CONFIG_DIR, [], EXIT_CONFIG),
        ("analyze", b'{"model": "\xff"}', [], EXIT_CONFIG),
        ("analyze", TABLE, ["--out", UNWRITABLE], EXIT_CONFIG),
        ("simulate-perfect", LATTICE, ["--t-max", "1", "--out", UNWRITABLE], EXIT_CONFIG),
        ("simulate-perfect", LATTICE, ["--t-max", "1", "--dump-ledger", UNWRITABLE], EXIT_CONFIG),
        ("simulate-forward", FINITE, ["--t-max", "1", "--out", UNWRITABLE], EXIT_CONFIG),
        ("simulate-forward", dict(FINITE, output={"summary": UNWRITABLE}), ["--t-max", "1"], EXIT_CONFIG),
        ("simulate-perfect", dict(LATTICE, simulation={"t_max": float("inf")}), [], EXIT_CONFIG),
        ("simulate-forward", {"model": dict(FINITE["model"], eps=float("nan"))}, ["--t-max", "1"], EXIT_CONFIG),
        ("simulate-forward", truncated("x"), ["--t-max", "1"], EXIT_CONFIG),
        ("simulate-forward", truncated(2.5), ["--t-max", "1"], EXIT_CONFIG),
        ("simulate-perfect", AGE_STRAY_LEVEL, ["--t-max", "200", "--runs", "3"], EXIT_CONFIG),
        ("analyze", AGE_STRAY_LEVEL, [], EXIT_CONFIG),
        ("analyze", AGE_STRAY_KERNEL, [], EXIT_CONFIG),
        ("analyze", AGE_STRAY_OMEGA, [], EXIT_CONFIG),
    ],
    ids=[
        "invalid-config",
        "invariant-is-not-an-option",
        "zero-nodes",
        "negative-nodes",
        "theta-of-wrong-length",
        "p-grid-not-numbers",
        "p-grid-above-gamma",
        "p-grid-not-above-3",
        "p-grid-nan",
        "p-grid-infinite",
        "p-grid-on-a-finite-family",
        "theta-nan",
        "theta-infinite",
        "theta-outside-the-convergence-ball",
        "theta-without-a-node-sample",
        "theta-on-an-infinite-family",
        "perfect-negative-t-max",
        "perfect-zero-runs",
        "perfect-unknown-node",
        "forward-zero-t-max",
        "forward-negative-n-max",
        "forward-on-the-lattice",
        "forward-unknown-nodes",
        "forward-repeated-nodes",
        "config-is-a-directory",
        "config-not-utf-8",
        "analyze-unwritable-out",
        "perfect-unwritable-out",
        "perfect-unwritable-ledger",
        "forward-unwritable-out",
        "forward-unwritable-summary",
        "perfect-infinite-t-max",
        "forward-nan-eps",
        "forward-trunc-not-a-number",
        "forward-trunc-not-an-integer",
        "perfect-level-names-unknown-node",
        "analyze-level-names-unknown-node",
        "analyze-kernel-to-unknown-node",
        "analyze-levels-for-unknown-node",
    ],
)
def test_analyze_failure_exit_codes(tmp_path, command, cfg, extra, expected):
    out = str(tmp_path / "out")
    if cfg is CONFIG_DIR:
        config = str(tmp_path)
    elif isinstance(cfg, bytes):
        config = str(tmp_path / "config.json")
        Path(config).write_bytes(cfg)
    else:
        config = write_config(tmp_path, cfg)
    proc = run_cli(command, "--config", config, "--out", out, *extra)
    assert proc.returncode == expected
    assert proc.stderr.strip()
    assert "Traceback" not in proc.stderr + proc.stdout
    assert "Warning" not in proc.stderr


def test_missing_config_is_a_config_error(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "time,node"
    return lines[1:]


def test_simulate_perfect_writes_runs_summary_and_ledger(tmp_path):
    summary_path = tmp_path / "summary.json"
    cfg = dict(
        LATTICE,
        simulation={"t_max": 5.0},
        rng={"seed": 3, "runs": 2},
        output={"points": str(tmp_path / "points.csv"), "summary": str(summary_path)},
    )
    ledger_path = tmp_path / "ledger.json"
    code = main(["simulate-perfect", "--config", write_config(tmp_path, cfg), "--dump-ledger", str(ledger_path)])
    assert code == EXIT_OK
    summary = json.loads(summary_path.read_text())
    assert summary["command"] == "simulate-perfect"
    runs = summary["runs"]
    assert [r["run"] for r in runs] == [0, 1]
    for r in runs:
        assert set(kalisim.PerfectRunStats().to_json()) <= set(r)
        assert len(read_rows(r["file"])) == r["points"]
    assert len({r["file"] for r in runs}) == 2

    dumped = json.loads(ledger_path.read_text())
    last = kalisim.RegionLedger()
    model = kalisim.build_model(LATTICE["model"])
    kalisim.perfect_sample(model, 0, 5.0, kalisim.RandomStream(3).child(1), ledger=last)
    assert set(dumped) == set(last.to_json())
    for node in dumped.values():
        times = [p["time"] for p in node["points"]]
        assert times == sorted(times)


def test_simulate_perfect_refuses_a_model_without_bounds(tmp_path, capsys):
    cfg = dict(FINITE, output={"points": str(tmp_path / "points.csv")})
    assert main(["simulate-perfect", "--config", write_config(tmp_path, cfg), "--t-max", "1"]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: LinearHawkesModel exposes no global bound for node 0;"
                   " this operation needs the bounded decomposition regime"]


def test_simulate_perfect_records_exhausted_runs(tmp_path, capsys):
    # one neighbourhood of length 0.5 at bound 5: 2.5 children per point, so
    # clans outgrow a three-generation budget
    summary_path = tmp_path / "summary.json"
    cfg = {
        "model": dict(TABLE["model"], bounds={"0": 5.0}),
        "simulation": {"t_max": 1.0, "budget": {"max_generations": 3}},
        "rng": {"seed": 3, "runs": 3},
        "output": {"points": str(tmp_path / "points.csv"), "summary": str(summary_path)},
    }
    assert main(["simulate-perfect", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
    summary = json.loads(summary_path.read_text())
    assert summary["budget_exhausted_runs"] == 2
    assert [r["budget_exhausted"] for r in summary["runs"]] == [True, True, False]
    assert summary["runs"][0] == {"run": 0, "seed_path": [3, 0], "budget_exhausted": True}
    assert capsys.readouterr().err.count("backward budget exhausted") == 2


@pytest.mark.parametrize("suite", ["fixed-point", "weight-optimum", "constant-rate-perfect"])
def test_validate_passes_a_suite_in_process(suite, capsys):
    assert main(["validate", suite]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"suite {suite}: PASS")


def analyze_report(tmp_path, capsys, cfg, *flags):
    assert main(["analyze", "--config", write_config(tmp_path, cfg), *flags]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


def test_analyze_invariant_reduction(tmp_path, capsys):
    # the lattice without a node sample takes the scalar reduction
    report = analyze_report(tmp_path, capsys, LATTICE)
    g = kalisim.lattice_preset(4, 0.005).invariant_offspring_mean()
    assert report["reduction"] == "translation-invariant scalar"
    assert (report["gamma"], report["verdict"]) == (g, "subcritical")
    assert report["expected_clan_size"] == 1.0 / (1.0 - g)


def test_analyze_reports_the_lattice_nesting(tmp_path, capsys):
    model = kalisim.lattice_preset(4, 0.005)
    for flags in ((), ("--nodes", "3")):
        report = analyze_report(tmp_path, capsys, LATTICE, *flags)
        assert report["level_head"] == [list(level) for level in model.head]
        assert report["level_head"][:3] == [[0, 1], [1, 1], [1, 2]] and report["level_head"][-1] == [7, 8]
        assert report["nodes_per_neighborhood"] == model.nodes_per_neighborhood()
        assert report["nodes_per_neighborhood"] == pytest.approx(2.553, abs=1e-3)
    assert "level_head" not in analyze_report(tmp_path, capsys, TABLE)


def test_analyze_reports_the_dominating_rate(tmp_path, capsys):
    gam = kalisim.lattice_preset(4, 0.005).global_bound(0)
    assert analyze_report(tmp_path, capsys, LATTICE)["dominating_rate"] == gam
    assert gam == pytest.approx(3.294, abs=1e-3)
    sample = analyze_report(tmp_path, capsys, LATTICE, "--nodes", "3")["dominating_rate"]
    assert sample == {"-1": gam, "0": gam, "1": gam}
    assert analyze_report(tmp_path, capsys, TABLE)["dominating_rate"] == {"0": 1.0}


def test_analyze_theta_solves_the_log_laplace_fixed_point(tmp_path, capsys):
    # M = [[0.5]] from one neighbourhood, so Phi = theta + 0.5 (e^Phi - 1)
    ll = analyze_report(tmp_path, capsys, TABLE, "--theta", "0.1")["log_laplace"]
    (phi,) = ll["fixed_point"]
    assert ll["theta"] == [0.1]
    assert ll["residual"] < 1e-11
    assert phi == pytest.approx(0.1 + 0.5 * math.expm1(phi), abs=1e-11)


def test_analyze_p_grid_cost_curve(tmp_path, capsys):
    curve = analyze_report(tmp_path, capsys, LATTICE, "--p-grid", "3.5,4")["cost_curve"]
    assert curve["c_gamma"] == kalisim.models.lattice_c_gamma(4.0)
    assert curve["argmin_p"] == 4.0
    assert [pt["p"] for pt in curve["points"]] == [3.5, 4.0]
    # at p = gamma the curve's offspring mean is that of the lattice simulated
    # on the power ladder, above the preset's own Lipschitz ladder
    below, at_gamma = curve["points"]
    power = PowerLadderLattice(4, 4, 0.005).invariant_offspring_mean()
    assert at_gamma["offspring_mean"] == pytest.approx(power, rel=1e-12)
    assert below["offspring_mean"] > at_gamma["offspring_mean"]
    assert at_gamma["offspring_mean"] > kalisim.lattice_preset(4, 0.005).invariant_offspring_mean()


def test_the_cost_curve_is_the_closed_form(tmp_path, capsys):
    # the ladder's tails sum f(p) = sum_k (2k - 1) k^{1-p} = 2 zeta(p-2) - zeta(p-1),
    # most fragile near the divergence at p = 3
    mpmath = pytest.importorskip("mpmath")
    curve = analyze_report(tmp_path, capsys, LATTICE, "--p-grid", "3.1,3.5,4")["cost_curve"]
    for pt in curve["points"]:
        with mpmath.workdps(40):
            f = float(2 * mpmath.zeta(pt["p"] - 2) - mpmath.zeta(pt["p"] - 1))
        assert pt["f"] == pytest.approx(f, rel=1e-12)
        assert pt["offspring_mean"] == pytest.approx(curve["c_gamma"] * 0.005 * f, rel=1e-12)


def test_every_decomposition_gets_one_cost_entry(tmp_path, capsys):
    # Gamma and the nodes of a drawn neighbourhood; their product with E(W)
    # bounds the ledger requests per root, since a point's own draw does not
    # depend on its being in the clan and E(W) bounds the mean clan (a traced
    # perfect_lattice run measured 2.69 requests per root against 2.806)
    report = analyze_report(tmp_path, capsys, LATTICE, "--p-grid", "3.1,4")
    supercritical, power = report["cost_curve"]["points"]
    for entry, gam, nodes, ew, bound in ((report, 3.2942, 2.5529, 1.0991, 2.806), (power, 33.764, 1.2213, 1.4829, 1.811)):
        assert entry["dominating_rate"] == pytest.approx(gam, abs=1e-3)
        assert entry["nodes_per_neighborhood"] == pytest.approx(nodes, abs=1e-4)
        assert entry["expected_clan_size"] == pytest.approx(ew, abs=1e-4)
        assert entry["nodes_per_neighborhood"] * entry["expected_clan_size"] == pytest.approx(bound, abs=1e-3)
    assert power["dominating_rate"] == PowerLadderLattice(4, 4, 0.005).global_bound(0)
    assert not supercritical["subcritical"] and supercritical["expected_clan_size"] is None
    # the curve is costed only along --p-grid; model.p is checked, not read
    sample = analyze_report(tmp_path, capsys, {"model": dict(LATTICE["model"], p=3.5)}, "--nodes", "3")
    assert sample["nodes_per_neighborhood"] == report["nodes_per_neighborhood"]
    assert "cost_curve" not in sample


def test_simulate_forward_writes_runs_and_summary(tmp_path):
    summary_path = tmp_path / "summary.json"
    cfg = dict(
        FINITE,
        simulation={"t_max": 20.0},
        rng={"seed": 5, "runs": 2},
        output={"points": str(tmp_path / "points.csv"), "summary": str(summary_path)},
    )
    assert main(["simulate-forward", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
    summary = json.loads(summary_path.read_text())
    assert summary["command"] == "simulate-forward"
    runs = summary["runs"]
    assert [r["run"] for r in runs] == [0, 1]
    for r in runs:
        assert len(read_rows(r["file"])) == r["points"] > 0
        assert r["accept_ratio"] == r["points"] / r["proposals"]
        # one node reading itself: the empty set's and its atoms' bounds at
        # the start, then its atoms' one term after each acceptance
        assert r["bound_terms"] == 2 + r["points"]
        assert r["rate_integral"] > 0.0
    assert len({r["file"] for r in runs}) == 2


def test_simulate_forward_step_kernel_on_untruncated_weights(tmp_path):
    # a compact-support kernel on geometric weights of any ratio has a finite bound
    model = {
        "family": "linear",
        "nodes": [0],
        "mu": [0.5],
        "eps": 0.5,
        "kernels": [{"from": 0, "to": 0, "type": "step", "edges": [0, 0.6, 1.3], "values": [0.4, 0.2]}],
        "weights": {"empty": 0.5, "shares": {"0": 1.0}, "ratios": {"0": 0.5}},
    }
    summary = flagged_run(tmp_path, "simulate-forward", {"model": model}, [])
    (run,) = summary["runs"]
    assert run["stop_reason"] == "time-reached" and run["points"] > 0


def test_forward_summary_names_the_decomposition(tmp_path):
    # the default family: lambda(empty) = 1/2 and bin ratio exp(-1/4), the
    # square root of the kernel's decay across a bin
    summary = flagged_run(tmp_path, "simulate-forward", FINITE, [])
    (run,) = summary["runs"]
    assert run["proposals_per_point"] == run["proposals"] / run["points"]
    (fam,) = summary["weights"].values()
    assert set(fam) == {"empty", "shares", "ratios", "trunc"}
    assert fam["empty"] == 0.5
    assert fam["ratios"]["0"] == pytest.approx(math.exp(-0.25), rel=1e-15)
    assert fam["shares"] == {"0": 1.0} and fam["trunc"] == {"0": None}
    # a given weights section is echoed as it was written
    weights = {"empty": 0.4, "shares": {"0": 1.0}, "ratios": {"0": 0.85}, "trunc": {"0": None}}
    summary = flagged_run(tmp_path, "simulate-forward", {"model": dict(FINITE["model"], weights=weights)}, [])
    assert summary["weights"] == {"0": weights}


def flagged_run(tmp_path, command, cfg, flags):
    """Summary of ``command`` run with ``flags`` over a config that sets
    t_max 20, seed 5 and one run, all writing under ``tmp_path``."""
    summary_path = tmp_path / "summary.json"
    cfg = dict(
        cfg,
        simulation={"t_max": 20.0},
        rng={"seed": 5, "runs": 1},
        output={"points": str(tmp_path / "points.csv"), "summary": str(summary_path)},
    )
    assert main([command, "--config", write_config(tmp_path, cfg), *flags]) == EXIT_OK
    return json.loads(summary_path.read_text())


def test_perfect_flags_override_the_config(tmp_path):
    out = str(tmp_path / "flagged.csv")
    flags = ["--t-max", "2", "--runs", "2", "--seed", "7", "--node", "4", "--out", out]
    summary = flagged_run(tmp_path, "simulate-perfect", LATTICE, flags)
    assert (summary["t_max"], summary["node"]) == (2.0, 4)
    assert [r["seed_path"] for r in summary["runs"]] == [[7, 0], [7, 1]]
    assert all(Path(r["file"]).name.startswith("flagged_run") for r in summary["runs"])


def test_forward_flags_override_the_config(tmp_path):
    out = str(tmp_path / "flagged.csv")
    flags = ["--t-max", "3", "--n-max", "2", "--seed", "7", "--out", out]
    (run,) = flagged_run(tmp_path, "simulate-forward", FINITE, flags)["runs"]
    assert run["seed_path"] == [7, 0]
    assert run["file"] == out
    assert run["points"] <= 2 and run["tau"] <= 3.0

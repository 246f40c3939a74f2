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


def run_python(*args):
    """A fresh interpreter that imports this checkout's kalisim."""
    src = str(Path(kalisim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def run_cli(*args):
    """``python -m kalisim`` in a fresh interpreter, so that nothing catches a traceback."""
    return run_python("-m", "kalisim", *args)


def test_package_runs_as_a_module():
    proc = run_cli("validate", "clan-size")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("suite clan-size: PASS")


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
    # exact for every node by translation invariance: E(W) = 1/(1 - 0.3955)
    ew = 1.0 / (1.0 - kalisim.lattice_preset(4, 4, 0.005).invariant_offspring_mean())
    assert report["expected_clan_size"] == {"-1": ew, "0": ew, "1": ew}
    assert ew == pytest.approx(1.654, abs=1e-3)
    assert "expected_clan_size_note" not in report
    # the row totals come in closed form; walking the nested levels took minutes
    assert elapsed < 20.0


@pytest.mark.parametrize(
    "command, cfg, extra, expected",
    [
        ("analyze", {"model": {"family": "no-such-family"}}, [], EXIT_CONFIG),
        ("analyze", FINITE, ["--invariant"], EXIT_VALIDATION),
        ("analyze", TABLE, ["--nodes", "0"], EXIT_CONFIG),
        ("analyze", TABLE, ["--nodes", "-1"], EXIT_CONFIG),
        ("analyze", TABLE, ["--theta", "0.1,0.2"], EXIT_CONFIG),
        ("analyze", LATTICE, ["--p-grid", "abc"], EXIT_CONFIG),
        ("analyze", LATTICE, ["--p-grid", "4.5"], EXIT_CONFIG),
        ("simulate-perfect", LATTICE, ["--t-max", "-1"], EXIT_CONFIG),
        ("simulate-perfect", LATTICE, ["--runs", "0"], EXIT_CONFIG),
        ("simulate-perfect", TABLE, ["--node", "7"], EXIT_CONFIG),
        ("simulate-forward", FINITE, ["--t-max", "0"], EXIT_CONFIG),
        ("simulate-forward", FINITE, ["--n-max", "-3"], EXIT_CONFIG),
        ("simulate-forward", LATTICE, [], EXIT_CONFIG),
        ("simulate-forward", dict(FINITE, simulation={"nodes": [5]}), [], EXIT_CONFIG),
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
    ],
    ids=[
        "invalid-config",
        "invariant-on-finite-model",
        "zero-nodes",
        "negative-nodes",
        "theta-of-wrong-length",
        "p-grid-not-numbers",
        "p-grid-above-gamma",
        "perfect-negative-t-max",
        "perfect-zero-runs",
        "perfect-unknown-node",
        "forward-zero-t-max",
        "forward-negative-n-max",
        "forward-on-the-lattice",
        "forward-unknown-nodes",
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
        # one node reading itself: its whole bound at the start, then its one
        # term after each acceptance
        assert r["bound_terms"] == 1 + r["points"]
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
    # the default: the mean-field family, with m = 0.5 / (1 - 0.3) and bin ratio exp(-1/4)
    peak = 0.5 / 0.7 * 0.5 * 0.3 / (1.0 - math.exp(-0.25))
    summary = flagged_run(tmp_path, "simulate-forward", FINITE, [])
    (run,) = summary["runs"]
    assert run["proposals_per_point"] == run["proposals"] / run["points"]
    (fam,) = summary["weights"].values()
    assert set(fam) == {"empty", "shares", "ratios", "trunc"}
    assert fam["empty"] == pytest.approx(0.5 / (0.5 + peak), rel=1e-12)
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
